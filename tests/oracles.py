"""Independent oracles the tests check the library against.

These deliberately re-derive everything from the raw circle data along a
different code path: boundary structure via a networkx multigraph on arrow
endpoints, and equivalence via explicit enumeration of relabellings, edge
flips, rotations and reversals; canonical forms via the edge-flip mask
loop; the enumeration by canonicalising every candidate; boundary tracing
and partial duality via two separate endpoint walks; and three test-only
kernels: the direct deletion properness test, the literal vertex split and
the trivial-loop test.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, permutations
from typing import Iterable

import networkx as nx

from ribbonminor import (
    ArpError,
    ArrowPresentation,
    BoundaryComponent,
    EdgeLineSegment,
    VertexLineSegment,
    can_split_vertex,
    canonical_presentation,
    canonicalize,
    contract_edge,
    trace_boundaries,
    underlying_graph,
)
from ribbonminor.arrow_core import Segment
from ribbonminor.minor_ops import _boundary_arc_edge_counts, _check_label, _fresh_label
from ribbonminor.verify import _compositions, _words


def _endpoints_in_circle_order(circle):
    """[(position, endpoint marker), ...] walking the circle once; each arrow
    contributes its tail and head, met tail-first exactly when its sign is +."""
    order = []
    for j, (_, sign) in enumerate(circle):
        first, second = ("T", "H") if sign > 0 else ("H", "T")
        order.append((j, first))
        order.append((j, second))
    return order


def nx_boundary_partition(g):
    """Partition of boundary segments into components, via networkx.

    Nodes are arrow endpoints; gap arcs join consecutive endpoints around
    each circle (skipping over each arrow's own extent) and jump segments
    join head-of-one to tail-of-the-other per edge.  Connected components of
    the 2-regular multigraph are the boundary components.
    """
    graph = nx.MultiGraph()
    for ci, circle in enumerate(g.circles):
        if not circle:
            graph.add_edge(("iso", ci, 0), ("iso", ci, 1), seg=("v", ci, 0))
            continue
        order = _endpoints_in_circle_order(circle)
        # consecutive pairs (exit of one arrow, entry of the next) are gaps
        for k in range(1, len(order), 2):
            a = order[k]
            b = order[(k + 1) % len(order)]
            gap_index = k // 2
            graph.add_edge(
                (ci, a[0], a[1]), (ci, b[0], b[1]), seg=("v", ci, gap_index)
            )
    occ = {}
    for ci, circle in enumerate(g.circles):
        for j, (lab, _) in enumerate(circle):
            occ.setdefault(lab, []).append((ci, j))
    for lab, ((c1, p1), (c2, p2)) in sorted(occ.items()):
        graph.add_edge((c1, p1, "H"), (c2, p2, "T"), seg=("e", lab, 1))
        graph.add_edge((c2, p2, "H"), (c1, p1, "T"), seg=("e", lab, 2))
    parts = []
    for comp in nx.connected_components(graph):
        segs = frozenset(
            data["seg"] for u, v, data in graph.edges(comp, data=True)
        )
        parts.append(segs)
    return frozenset(parts)


def nx_face_count(g) -> int:
    return len(nx_boundary_partition(g))


def _label_circles(g):
    """Map each label to the circles of its two arrows."""
    occ = {}
    for ci, circle in enumerate(g.circles):
        for lab, _ in circle:
            occ.setdefault(lab, []).append(ci)
    return occ


def nx_component_count(g) -> int:
    """Connected components of the ribbon graph, isolated circles included."""
    comp_graph = nx.Graph()
    comp_graph.add_nodes_from(range(g.n_vertices))
    for u, v in _label_circles(g).values():
        comp_graph.add_edge(u, v)
    return nx.number_connected_components(comp_graph) if g.n_vertices else 0


def nx_euler_genus(g) -> int:
    return 2 * nx_component_count(g) - g.n_vertices + g.n_edges - nx_face_count(g)


def nx_is_bipartite(g) -> bool:
    """No loop, and the underlying multigraph is bipartite by networkx."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(g.n_vertices))
    for u, v in _label_circles(g).values():
        if u == v:
            return False
        graph.add_edge(u, v)
    return nx.is_bipartite(graph)


def nx_is_checkerboard_colourable(g) -> bool:
    """The faces of ``nx_boundary_partition``, joined once per edge between
    the faces of its two sides, form a bipartite graph; an edge with both
    sides on one face rules that out."""
    faces = list(nx_boundary_partition(g))
    face_of = {seg: fi for fi, segs in enumerate(faces) for seg in segs}
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(len(faces)))
    for lab in _label_circles(g):
        f1, f2 = face_of[("e", lab, 1)], face_of[("e", lab, 2)]
        if f1 == f2:
            return False
        graph.add_edge(f1, f2)
    return nx.is_bipartite(graph)


def _cyclic_key(circle):
    """Representative of a circle up to rotation and reversal-with-flip."""
    if not circle:
        return ()
    best = None
    rev = tuple((lab, -s) for lab, s in reversed(circle))
    for base in (circle, rev):
        for r in range(len(base)):
            cand = base[r:] + base[:r]
            if best is None or cand < best:
                best = cand
    return best


def _multiset_key(circles):
    return tuple(sorted(_cyclic_key(c) for c in circles))


def brute_equivalent(g, h) -> bool:
    """Equivalence by exhaustive enumeration of relabellings and per-edge
    arrow-pair flips, with circles compared as a multiset of cyclic words up
    to rotation/reversal.  Exponential; for small presentations only."""
    gl, hl = g.labels, h.labels
    if len(gl) != len(hl) or g.n_vertices != h.n_vertices:
        return False
    target = _multiset_key(h.circles)
    for perm in permutations(hl):
        relab = dict(zip(gl, perm))
        renamed = tuple(
            tuple((relab[lab], s) for lab, s in c) for c in g.circles
        )
        for r in range(len(gl) + 1):
            for flip in combinations(perm, r):
                flipped = tuple(
                    tuple((lab, -s if lab in flip else s) for lab, s in c)
                    for c in renamed
                )
                if _multiset_key(flipped) == target:
                    return True
    return False


# The canonical form as first written: the plain sign encoding (bit 0 for +),
# minimised over every edge-flip mask, each mask running the full search
# over circle order, rotations, reversals and relabelling.  Exponential in
# the edge count; the library's flip-invariant encoding must agree with it
# byte for byte.


def _flip_loop_circle_variants(circle):
    if not circle:
        return ((),)
    variants = set()
    reversed_flipped = tuple((lab, -s) for lab, s in reversed(circle))
    for base in (circle, reversed_flipped):
        for r in range(len(base)):
            variants.add(base[r:] + base[:r])
    return tuple(sorted(variants))


def _flip_loop_encode_circle(variant, mapping):
    m = dict(mapping)
    nxt = len(m)
    enc = []
    for lab, s in variant:
        i = m.get(lab)
        if i is None:
            m[lab] = i = nxt
            nxt += 1
        enc.append((i, 0 if s > 0 else 1))
    return tuple(enc), m


def _flip_loop_base_canonical(circles):
    variants = [_flip_loop_circle_variants(c) for c in circles]

    def rec(remaining, mapping):
        if not remaining:
            return ()
        cands = []
        for ci in remaining:
            for var in variants[ci]:
                enc, m = _flip_loop_encode_circle(var, mapping)
                cands.append((enc, ci, m))
        best_enc = min(c[0] for c in cands)
        results = []
        seen_branch = set()
        for enc, ci, m in cands:
            if enc != best_enc:
                continue
            sig = (tuple(sorted(m.items())), tuple(sorted(circles[i] for i in remaining if i != ci)))
            if sig in seen_branch:
                continue
            seen_branch.add(sig)
            results.append((best_enc,) + rec(remaining - {ci}, m))
        return min(results)

    return rec(frozenset(range(len(circles))), {})


def _flip_loop_label(i):
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(97 + r) + out
    return out


def flip_loop_canonicalize(g) -> str:
    """Canonical text of g by the edge-flip mask loop; uncached."""
    labels = g.labels
    best = None
    for mask in range(1 << len(labels)):
        flip = {labels[i] for i in range(len(labels)) if mask >> i & 1}
        circles = tuple(
            tuple((lab, -s if lab in flip else s) for lab, s in c) for c in g.circles
        )
        cand = _flip_loop_base_canonical(circles)
        if best is None or cand < best:
            best = cand
    return "".join(
        "(" + " ".join(f"{_flip_loop_label(i)}{'+' if bit == 0 else '-'}" for i, bit in circ) + ")"
        for circ in (best if best is not None else ())
    )


# The enumeration as first written: every raw (word, composition) candidate
# is canonicalised, the canonical texts are deduplicated, and each surviving
# text is re-parsed.  The library keeps only the candidates that are already
# canonical and must produce the same classes in the same order.


def dedup_enumerate(spec):
    """Class representatives of an ``EnumerationSpec`` by canonicalising
    every candidate; uncached, but fills the library's canonical-form cache."""
    forms: set[str] = set()
    if not spec.connected_only or spec.max_edges == 0:
        top = 1 if spec.connected_only else spec.max_circles
        for k in range(1, top + 1):
            forms.add(canonicalize(ArrowPresentation([()] * k)))
    for e in range(1, spec.max_edges + 1):
        for word in _words(e):
            for parts in _compositions(2 * e, spec.max_circles):
                circles = [tuple((f"e{word[i][0]}", word[i][1]) for i in part) for part in parts]
                g = ArrowPresentation(circles)
                if spec.connected_only and not underlying_graph(g).is_connected():
                    continue
                forms.add(canonicalize(g))
                if not spec.connected_only:
                    for extra in range(1, spec.max_circles - len(circles) + 1):
                        padded = ArrowPresentation(circles + [()] * extra)
                        forms.add(canonicalize(padded))
    return tuple(canonical_presentation(ArrowPresentation.from_text(f)) for f in sorted(forms))


# Boundary tracing and partial duality as first written: each builds its own
# 2-regular graph on arrow endpoints and walks it with its own loop.  The
# library's single arc list and walker must give the same components,
# segments and directions, and the same dual circles, signs and order.

# endpoint of an arrow occurrence: (circle, position, part) with part 0=tail, 1=head
_Endpoint = tuple[int, int, int]


def _entry_endpoint(ci: int, pos: int, sign) -> _Endpoint:
    # first endpoint met when walking the circle: tail for +, head for -
    return (ci, pos, 0 if sign > 0 else 1)


def _exit_endpoint(ci: int, pos: int, sign) -> _Endpoint:
    return (ci, pos, 1 if sign > 0 else 0)


def _segment_endpoints(g: ArrowPresentation) -> dict[Segment, tuple[_Endpoint, _Endpoint] | None]:
    """Map every boundary segment to its intrinsically oriented endpoint pair.

    Isolated-vertex gaps map to ``None``: their boundary is a closed circle on
    its own.
    """
    segs: dict[Segment, tuple[_Endpoint, _Endpoint] | None] = {}
    for ci, circle in enumerate(g.circles):
        d = len(circle)
        if d == 0:
            segs[VertexLineSegment(ci, 0)] = None
            continue
        for j in range(d):
            k = (j + 1) % d
            segs[VertexLineSegment(ci, j)] = (
                _exit_endpoint(ci, j, circle[j][1]),
                _entry_endpoint(ci, k, circle[k][1]),
            )
    for lab, ((c1, p1), (c2, p2)) in sorted(g.occurrences.items()):
        segs[EdgeLineSegment(lab, 1)] = ((c1, p1, 1), (c2, p2, 0))
        segs[EdgeLineSegment(lab, 2)] = ((c2, p2, 1), (c1, p1, 0))
    return segs


def _segment_sort_key(seg: Segment):
    if isinstance(seg, VertexLineSegment):
        return (0, seg.circle, seg.gap)
    return (1, seg.label, seg.side)


def endpoint_trace_boundaries(g: ArrowPresentation) -> tuple[BoundaryComponent, ...]:
    """Boundary components by walking the segment-endpoint graph; uncached."""
    segs = _segment_endpoints(g)
    at: dict[_Endpoint, list[Segment]] = defaultdict(list)
    for seg, eps in segs.items():
        if eps is not None:
            at[eps[0]].append(seg)
            at[eps[1]].append(seg)
    components: list[BoundaryComponent] = []
    seen: set[Segment] = set()
    for seg0 in sorted(segs, key=_segment_sort_key):
        if seg0 in seen:
            continue
        if segs[seg0] is None:
            seen.add(seg0)
            components.append(BoundaryComponent((seg0,), (1,)))
            continue
        walk = [seg0]
        dirs = [1]
        seen.add(seg0)
        cur, direction = seg0, 1
        while True:
            a, b = segs[cur]  # type: ignore[misc]
            ep = b if direction == 1 else a
            s1, s2 = at[ep]
            nxt = s2 if s1 == cur else s1
            if nxt == seg0:
                break
            ndir = 1 if segs[nxt][0] == ep else -1  # type: ignore[index]
            walk.append(nxt)
            dirs.append(ndir)
            seen.add(nxt)
            cur, direction = nxt, ndir
        components.append(BoundaryComponent(tuple(walk), tuple(dirs)))
    return tuple(components)


def endpoint_partial_dual(g: ArrowPresentation, edges: Iterable[str]) -> ArrowPresentation:
    """The partial dual by walking a tagged arc list of arrows and gaps."""
    a = frozenset(edges)
    if not a:
        return g
    missing = a - set(g.labels)
    if missing:
        raise ArpError(f"label {sorted(missing)[0]!r} not present")

    # Arcs between occurrence endpoints.  Arrow arcs are stored (tail, head);
    # gap arcs are stored (exit of occ j, entry of occ j+1).  Each endpoint
    # meets exactly one arc of each kind, so the arcs close into circles.
    arcs: list[tuple] = []  # ("arrow", label, tail_ep, head_ep) | ("gap", ep_a, ep_b)
    n_empty = 0
    for ci, circle in enumerate(g.circles):
        d = len(circle)
        if d == 0:
            n_empty += 1
            continue
        for j in range(d):
            k = (j + 1) % d
            arcs.append(
                ("gap", _exit_endpoint(ci, j, circle[j][1]), _entry_endpoint(ci, k, circle[k][1]))
            )
    for lab, ((c1, p1), (c2, p2)) in sorted(g.occurrences.items()):
        t1, h1 = (c1, p1, 0), (c1, p1, 1)
        t2, h2 = (c2, p2, 0), (c2, p2, 1)
        if lab in a:
            arcs.append(("arrow", lab, h1, t2))
            arcs.append(("arrow", lab, h2, t1))
        else:
            arcs.append(("arrow", lab, t1, h1))
            arcs.append(("arrow", lab, t2, h2))

    at: dict[tuple, list[int]] = defaultdict(list)
    for idx, arc in enumerate(arcs):
        at[arc[-2]].append(idx)
        at[arc[-1]].append(idx)

    circles = []
    visited = [False] * len(arcs)
    for start in range(len(arcs)):
        if visited[start]:
            continue
        word = []
        idx, forward = start, True
        while True:
            visited[idx] = True
            arc = arcs[idx]
            if arc[0] == "arrow":
                word.append((arc[1], 1 if forward else -1))
            ep = arc[-1] if forward else arc[-2]
            i1, i2 = at[ep]
            nxt = i2 if i1 == idx else i1
            if nxt == start:
                break
            forward = arcs[nxt][-2] == ep
            idx = nxt
        circles.append(tuple(word))
    circles.extend(() for _ in range(n_empty))
    return ArrowPresentation(circles)


# Kernels only the tests use, kept as independent cross-checks of the
# library's properness test for deletion, its vertex split and its loops.


def is_proper_deletion_direct(g: ArrowPresentation, e: str) -> bool:
    """Direct form of the properness test for deletion, without dualising.

    Deletion is improper exactly when (1) the two edge line segments of e lie
    on one boundary component, (2) their distance there is odd, and (3)
    arrows placed on them consistently with the edge boundary are consistent
    on that component.  Kept alongside :func:`is_proper_deletion` as a
    cross-validating oracle.
    """
    _check_label(g, e)
    s1, s2 = EdgeLineSegment(e, 1), EdgeLineSegment(e, 2)
    for b in trace_boundaries(g):
        if s1 in b.segments:
            if s2 not in b.segments:
                return True  # condition (1) fails
            i, j = b.segments.index(s1), b.segments.index(s2)
            k, m = _boundary_arc_edge_counts(b, i, j)
            if not (k % 2 == 1 and m % 2 == 1):
                return True  # condition (2) fails: the distance is even
            # The intrinsic orientations of the two sides (head of one arrow
            # to tail of the other) are consistent along the edge boundary,
            # so condition (3) holds iff the walk crosses both the same way.
            return b.directions[i] != b.directions[j]
    raise ArpError(f"label {e!r} not present")  # pragma: no cover


def split_vertex_via_insertion(g: ArrowPresentation, circle: int, p: int, q: int) -> ArrowPresentation:
    """The same split performed literally: insert a fresh edge with consistent
    arrows at the two gaps, then contract it.  Agrees with
    :func:`split_vertex` up to equivalence; kept as a cross-check."""
    if not can_split_vertex(g, circle, p, q):
        raise ArpError("dual distance is odd")
    x = _fresh_label(g)
    c = g.circles[circle]
    p, q = sorted((p, q))
    if p == q:
        new = c[: p + 1] + ((x, 1), (x, 1)) + c[p + 1 :]
    else:
        new = c[: p + 1] + ((x, 1),) + c[p + 1 : q + 1] + ((x, 1),) + c[q + 1 :]
    inserted = ArrowPresentation(g.circles[:circle] + (new,) + g.circles[circle + 1 :])
    return contract_edge(inserted, x)


def is_trivial_loop(g: ArrowPresentation, e: str) -> bool:
    """For a bouquet, whether no other loop's occurrences interleave with e's.

    Only single-circle presentations are supported; every edge of a bouquet
    is a loop.
    """
    if g.n_vertices != 1:
        raise ArpError("is_trivial_loop requires a bouquet (exactly one circle)")
    if e not in g.occurrences:
        raise ArpError(f"label {e!r} not present")
    circle = g.circles[0]
    p1, p2 = (pos for _, pos in g.occurrences[e])
    for lab in g.labels:
        if lab == e:
            continue
        (_, q1), (_, q2) = g.occurrences[lab]
        if (p1 < q1 < p2) != (p1 < q2 < p2):
            return False
    return True
