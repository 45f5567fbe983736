"""Independent oracles the tests check the library against.

These deliberately re-derive everything from the raw circle data along a
different code path: boundary structure via a networkx multigraph on arrow
endpoints, and equivalence via explicit enumeration of relabellings, edge
flips, rotations and reversals; canonical forms via the edge-flip mask loop,
and the minimal encoding via the recursive search over circle order;
the enumeration by canonicalising every raw (word, composition) candidate,
as first written; the label table by collecting each label's positions
and counting them, as first written, and the boundary walk that reads
that table; boundary tracing and partial duality via two separate
endpoint walks; five test-only kernels: the direct
deletion properness test,
the literal vertex and face splits, the counted face-split gate and the
trivial-loop test; the arcs of a boundary walk or a circle, counted item by item, as the
reference for every distance and parity gate; the minor search with its
first, start-dependent caps; and move generation by the public gates, and
contraction through the partial dual, as first written; the read-only
sequence contract of a move list, checked against its tuple; and the witnesses
the reach pass leaves in ``_contains_cache``, replayed move by move through
those routes, the join family's literal vertex deletion and join included.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import MutableSequence, Sequence
from itertools import combinations, permutations
from typing import Iterable

import networkx as nx

from ribbonminor import (
    ArpError,
    ArrowPresentation,
    BoundaryComponent,
    EdgeLineSegment,
    MinorMove,
    VertexLineSegment,
    boundary_distance,
    can_split_face,
    can_split_vertex,
    canonical_presentation,
    canonicalize,
    contract_edge,
    delete_edge,
    dual_distance,
    euler_genus,
    is_equivalent,
    is_orientable_loop,
    is_permissible_join,
    is_proper_contraction,
    is_proper_deletion,
    partial_dual,
    split_face,
    trace_boundaries,
    underlying_graph,
    vls_dual_distance,
)
from ribbonminor.arrow_core import MAX_KEY_VERTICES, Circle, Segment, Sign
from ribbonminor.minor_ops import _check_label
from ribbonminor import minor_search
from ribbonminor.minor_search import (
    MinorFamily,
    _isolated_count,
    _state_key,
    applicable_moves,
)


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


def nx_components(g) -> tuple[frozenset[int], ...]:
    """The components of the underlying multigraph, isolated circles
    included, by networkx, sorted by least circle."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(g.n_vertices))
    graph.add_edges_from(_label_circles(g).values())
    return tuple(sorted(map(frozenset, nx.connected_components(graph)), key=min))


def nx_same_underlying_graph(g, h) -> bool:
    """Whether the underlying multigraphs of g and h, loops and isolated
    vertices included, are isomorphic by networkx."""

    def multigraph(x):
        graph = nx.MultiGraph()
        graph.add_nodes_from(range(x.n_vertices))
        graph.add_edges_from(_label_circles(x).values())
        return graph

    return nx.is_isomorphic(multigraph(g), multigraph(h))


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


# The minimal encoding as last searched: the flip-invariant encoding of the
# library, minimised by a recursive search over circle order that keeps the
# ties of each level's least circle and skips identical circles.  Factorial
# in the number of identical components; the library's rooted, component-wise
# construction must give the same encoding on every input.


def _circle_variants(circle: Circle) -> tuple[Circle, ...]:
    if not circle:
        return ((),)
    variants = set()
    reversed_flipped = tuple((lab, -s) for lab, s in reversed(circle))
    for base in (circle, reversed_flipped):
        for r in range(len(base)):
            variants.add(base[r:] + base[:r])
    return tuple(sorted(variants))


#: label -> (index, sign of its first occurrence), for the labels met so far
_Firsts = dict[str, tuple[int, Sign]]


def _encode_circle(variant: Circle, mapping: _Firsts) -> tuple[tuple, _Firsts]:
    m = dict(mapping)
    enc = []
    for lab, s in variant:
        first = m.get(lab)
        if first is None:
            first = m[lab] = (len(m), s)
        enc.append((first[0], 0 if s == first[1] else 1))
    return tuple(enc), m


def search_base_canonical(circles: tuple[Circle, ...]) -> tuple:
    """Minimal encoding over circle order, rotations, reversals, relabelling.

    Empty circles encode as ``()``, below every other circle, so they lead
    every minimal encoding and only the other circles are searched over.
    """
    empty = tuple(() for c in circles if not c)
    circles = tuple(c for c in circles if c)
    variants = [_circle_variants(c) for c in circles]
    # identical circles, such as the two of (a+)(a+), encode alike and leave
    # equal remainders, so only the first of them left is encoded
    first = [circles.index(c) for c in circles]

    def rec(remaining: frozenset[int], mapping: _Firsts) -> tuple:
        if not remaining:
            return ()
        # only the ties of the least encoding so far are kept, so a level
        # holds a few label mappings, not one per remaining circle variant
        best_enc, ties = None, []
        for ci in remaining:
            if first[ci] != ci and first[ci] in remaining:
                continue
            for var in variants[ci]:
                enc, m = _encode_circle(var, mapping)
                if best_enc is None or enc < best_enc:
                    best_enc, ties = enc, []
                if enc == best_enc:
                    ties.append((ci, m))
        best = None
        for ci, m in ties:
            rest = rec(remaining - {ci}, m)
            if best is None or rest < best:
                best = rest
        return (best_enc,) + best

    return empty + rec(frozenset(range(len(circles))), {})


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


def counted_occurrences(circles) -> dict[str, tuple[tuple[int, int], ...]]:
    """The ``occurrences`` table of the circles, built as first written:
    every label's positions collected into a list, the labels sorted, and
    each count checked in that order, so a miscount names the least label
    that does not occur exactly twice."""
    occ: dict[str, list[tuple[int, int]]] = {}
    for ci, circle in enumerate(circles):
        for j, (label, _) in enumerate(circle):
            occ.setdefault(label, []).append((ci, j))
    table = {lab: tuple(occ[lab]) for lab in sorted(occ)}
    for lab, ps in table.items():
        if len(ps) != 2:
            raise ArpError(f"label {lab!r} occurs {len(ps)} times (exactly 2 required)")
    return table


def table_walk(g: ArrowPresentation, jumped) -> tuple[list[list[tuple[int, int]]], int]:
    """``arrow_core._walk`` as first written, reading the label table: the
    gaps as there, then each label's two edge arcs from the positions that
    ``g.occurrences`` gives its arrows, in sorted label order.  Every label
    in ``jumped`` is crossed."""
    ends: list[int] = []
    base = []
    n = 0
    for circle in g.circles:
        base.append(n)
        d = len(circle)
        if not d:
            ends += (n, n)
            n += 1
            continue
        for j in range(d):
            k = (j + 1) % d
            ends += (n + 2 * j + (circle[j][1] > 0), n + 2 * k + (circle[k][1] < 0))
        n += 2 * d
    first = len(ends) >> 1
    for lab, ((c1, p1), (c2, p2)) in g.occurrences.items():
        t1, t2 = base[c1] + 2 * p1, base[c2] + 2 * p2
        ends += (t1 + 1, t2, t2 + 1, t1) if lab in jumped else (t1, t1 + 1, t2, t2 + 1)
    mate = [0] * len(ends)
    first_end = [-1] * n
    for end, ep in enumerate(ends):
        other = first_end[ep]
        if other < 0:
            first_end[ep] = end
        else:
            mate[end], mate[other] = other, end
    cycles = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        cycle = [(start, 1)]
        end = mate[2 * start + 1]
        while end >> 1 != start:
            seen[end >> 1] = True
            cycle.append((end >> 1, 1 - 2 * (end & 1)))
            end = mate[end ^ 1]
        cycles.append(cycle)
    return cycles, first


def assert_walk_matches_table_walk(g: ArrowPresentation, rng) -> None:
    """``arrow_core._walk`` gives the cycles and first edge arc of
    :func:`table_walk` with no label jumped, with every label jumped (None,
    and the set of all labels) and with two subsets drawn by ``rng``."""
    from ribbonminor.arrow_core import _walk

    labels = g.labels
    assert _walk(g, None) == _walk(g, frozenset(labels)) == table_walk(g, labels), g
    assert _walk(g, frozenset()) == table_walk(g, ()), g
    for _ in range(2):
        a = frozenset(e for e in labels if rng.random() < 0.5)
        assert _walk(g, a) == table_walk(g, a), (g, a)


# The enumeration as first written: every raw (word, composition) candidate
# is canonicalised, the canonical texts are deduplicated, and each surviving
# text is re-parsed.  The library builds each level of classes from the one
# below by adding an edge and must produce the same classes in the same order.


def _words(n_edges: int):
    """All token sequences of length 2*n_edges: every edge index appears
    twice, indices first appear in increasing order, and each first
    occurrence has positive sign.  Both are normalisations the canonical
    form also makes, so every class's canonical form, read circle after
    circle, is one of these words; that makes the reference complete."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(word: list[tuple[int, int]], opened: int, open_set: frozenset[int]):
        if len(word) == 2 * n_edges:
            out.append(tuple(word))
            return
        if opened < n_edges:
            word.append((opened, 1))
            rec(word, opened + 1, open_set | {opened})
            word.pop()
        for e in sorted(open_set):
            for s in (1, -1):
                word.append((e, s))
                rec(word, opened, open_set - {e})
                word.pop()

    rec([], 0, frozenset())
    return out


def _compositions(n: int, max_parts: int):
    """Splits of range(n) into at most max_parts consecutive non-empty runs."""
    for k in range(1, min(n, max_parts) + 1):
        for cuts in combinations(range(1, n), k - 1):
            bounds = (0, *cuts, n)
            yield [range(bounds[i], bounds[i + 1]) for i in range(k)]


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
                if spec.connected_only and len(underlying_graph(g).components()) > 1:
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
# library's properness test for deletion, its vertex split, its face-split
# gate and its loops.


def _counted_arcs(seq, i: int, j: int, counted) -> tuple[int, int]:
    """Items of a cyclic sequence for which ``counted`` holds, strictly
    inside each of the two arcs between positions i and j; (0, all of them
    but position i) when i == j."""
    if i == j:
        return 0, sum(1 for k, x in enumerate(seq) if k != i and counted(x))
    i, j = sorted((i, j))
    n = len(seq)
    forward = sum(1 for k in range(i + 1, j) if counted(seq[k]))
    backward = sum(1 for k in list(range(j + 1, n)) + list(range(0, i)) if counted(seq[k]))
    return forward, backward


def _boundary_arc_edge_counts(b: BoundaryComponent, i: int, j: int) -> tuple[int, int]:
    """Edge line segments strictly inside each of the two arcs between
    positions i and j of a boundary walk; (0, total) when i == j.  Counted
    by segment kind, not read from positions."""
    return _counted_arcs(b.segments, i, j, lambda s: isinstance(s, EdgeLineSegment))


def _circle_items(g: ArrowPresentation, circle: int) -> list[tuple[str, int]]:
    """A circle as the cyclic sequence of its arrows and gaps: arrow j, then
    gap j, which follows it; an empty circle is its one gap."""
    d = len(g.circles[circle])
    return [item for j in range(d) for item in (("arrow", j), ("gap", j))] or [("gap", 0)]


def _is_arrow(item) -> bool:
    return item[0] == "arrow"


def _not_both_odd(counts: tuple[int, int]) -> bool:
    return not (counts[0] % 2 == 1 and counts[1] % 2 == 1)


def assert_walks_alternate(walks: Iterable[BoundaryComponent]) -> None:
    """Each walk has length 1 or an even length, and its vertex line
    segments are exactly at its even positions."""
    for b in walks:
        assert len(b) == 1 or len(b) % 2 == 0, b
        kinds = [isinstance(s, VertexLineSegment) for s in b.segments]
        assert kinds == [i % 2 == 0 for i in range(len(b))], b
        assert b.n_edge_segments() == kinds.count(False), b
        assert list(range(0, len(b), 2)) == [i for i, v in enumerate(kinds) if v], b


def assert_cuts_match_counted(g: ArrowPresentation) -> None:
    """Every distance of g, and the vertex-side gates, at every pair of
    positions, equal the ones read off arcs counted item by item: boundary
    walks at any two positions (edge positions and i == j included), gaps
    of each circle, and the two occurrences of each loop.  The face-split
    gate has its own counted reference, :func:`can_split_face_counted`."""
    for bi, b in enumerate(trace_boundaries(g)):
        for i in range(len(b)):
            for j in range(len(b)):
                want = 0 if i == j else min(_boundary_arc_edge_counts(b, i, j))
                assert boundary_distance(g, bi, i, j) == want, (g, bi, i, j)
    for ci in range(g.n_vertices):
        items = _circle_items(g, ci)
        for p in range(g.n_gaps(ci)):
            for q in range(g.n_gaps(ci)):
                counted = _counted_arcs(items, items.index(("gap", p)), items.index(("gap", q)), _is_arrow)
                assert vls_dual_distance(g, ci, p, q) == min(counted), (g, ci, p, q)
                assert can_split_vertex(g, ci, p, q) == _not_both_odd(counted), (g, ci, p, q)
    for e, ((c1, p1), (c2, p2)) in g.occurrences.items():
        if c1 != c2:
            assert is_proper_contraction(g, e), (g, e)
            continue
        items = _circle_items(g, c1)
        counted = _counted_arcs(items, items.index(("arrow", p1)), items.index(("arrow", p2)), _is_arrow)
        assert dual_distance(g, e) == min(counted), (g, e)
        want = not is_orientable_loop(g, e) or _not_both_odd(counted)
        assert is_proper_contraction(g, e) == want, (g, e)


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


def _fresh_label(g: ArrowPresentation) -> str:
    i = 0
    while f"_tmp{i}" in g.occurrences:
        i += 1
    return f"_tmp{i}"


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


def _insert_at_gap(circles: list[tuple], gap: VertexLineSegment, arrow) -> None:
    ci, j = gap
    c = circles[ci]
    if not c:
        circles[ci] = (arrow,)
    else:
        circles[ci] = c[: j + 1] + (arrow,) + c[j + 1 :]


def split_face_via_insertion(g: ArrowPresentation, b: int, p: int, q: int) -> ArrowPresentation:
    """Evenly split a face: p and q are positions of vertex line segments on
    boundary component b.  A fresh edge is placed on those two segments,
    directed consistently along the walk, and contracted.  Agrees with
    :func:`split_face` up to equivalence; kept as a cross-check.
    """
    if not can_split_face(g, b, p, q):
        raise ArpError("distance is odd")
    comp = trace_boundaries(g)[b]
    x = _fresh_label(g)
    circles = list(g.circles)
    if p == q:
        ci, j = comp.segments[p]
        s = comp.directions[p]
        c = circles[ci]
        # both arrows land in the same gap, adjacent and consistent
        circles[ci] = ((x, s), (x, s)) if not c else c[: j + 1] + ((x, s), (x, s)) + c[j + 1 :]
    else:
        gap_p, gap_q = comp.segments[p], comp.segments[q]
        s_p, s_q = comp.directions[p], comp.directions[q]
        # insert into the later gap first so the earlier index stays valid
        first, second = sorted(
            [(gap_p, s_p), (gap_q, s_q)], key=lambda t: (t[0].circle, t[0].gap), reverse=True
        )
        _insert_at_gap(circles, first[0], (x, first[1]))
        _insert_at_gap(circles, second[0], (x, second[1]))
    inserted = ArrowPresentation(circles)
    return contract_edge(inserted, x)


def can_split_face_counted(g: ArrowPresentation, b: int, p: int, q: int) -> bool:
    """The even face-split gate as first written, for vertex positions p and
    q of boundary component b: count the edge line segments on both arcs
    between them and reject two odd counts."""
    if p == q:
        return True
    k, m = _boundary_arc_edge_counts(trace_boundaries(g)[b], p, q)
    return not (k % 2 == 1 and m % 2 == 1)


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


# The minor search as first written, with start-dependent caps on the vertex
# count (vcap) and on isolated circles (isocap), and a flag choosing between
# a boolean and a witness.  The library's breadth-first search must agree
# with it on containment and witness lengths, and the reach pass on
# containment.
# The library keeps no successors between queries; this reference memoises
# every successor's representative in a table of its own, so the tests that
# compare the reach pass with it over thousands of queries stay fast.

_oracle_successors: dict[tuple[ArrowPresentation, MinorFamily], tuple] = {}


def _canonical_successors(g: ArrowPresentation, family: MinorFamily):
    """(move, canonical successor) pairs in applicable_moves order, memoised."""
    key = (g, family)
    got = _oracle_successors.get(key)
    if got is None:
        got = _oracle_successors[key] = tuple(
            (mv, canonical_presentation(mv.apply(g))) for mv in applicable_moves(g, family))
    return got


def capped_minor_search(g: ArrowPresentation, h: ArrowPresentation, family: MinorFamily, want_witness: bool):
    family = MinorFamily(family)
    # join-family moves never add a vertex, so the inputs bound every state
    n = max(g.n_vertices, h.n_vertices)
    if family is MinorFamily.BIPARTITE_JOIN and n > MAX_KEY_VERTICES:
        raise ArpError(f"the join family compares underlying graphs, which is supported "
                       f"for at most {MAX_KEY_VERTICES} vertices; got {n} vertices")
    target = _state_key(h, family)
    start = canonical_presentation(g)
    # Finiteness caps: vertex counts are bounded (splits add one vertex at a
    # time and surplus isolated vertices are useless), and no move ever adds
    # an edge.  Euler genus never increases along Eulerian-family moves, so
    # it prunes that family too.
    vcap = g.n_vertices + g.n_edges + h.n_vertices
    isocap = max(_isolated_count(start), h.n_vertices)
    emin = h.n_edges
    gmin = euler_genus(h) if family is MinorFamily.EULERIAN else None

    def pruned(s: ArrowPresentation) -> bool:
        if s.n_edges < emin or s.n_vertices > vcap or _isolated_count(s) > isocap:
            return True
        return gmin is not None and euler_genus(s) < gmin

    start_key = _state_key(start, family)
    if start_key == target:
        return [] if want_witness else True
    if pruned(start):
        return None if want_witness else False
    seen = {start_key}
    parents: dict = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        skey = _state_key(state, family)
        for mv, nxt in _canonical_successors(state, family):
            if pruned(nxt):
                continue
            nkey = _state_key(nxt, family)
            if nkey in seen:
                continue
            seen.add(nkey)
            parents[nkey] = (skey, mv)
            if nkey == target:
                if not want_witness:
                    return True
                moves = []
                k = nkey
                while k != start_key:
                    k, m = parents[k]
                    moves.append(m)
                return list(reversed(moves))
            queue.append(nxt)
    return None if want_witness else False


# Move generation as first written: every candidate split is put to the
# public, validating gate, and each even-face deletion dualises g again.
# The library lists the even splits in closed form (minor_search._even_pairs)
# and dualises once; it must give the same moves in the same order.


def _vertex_split_moves_by_gates(g: ArrowPresentation) -> list[MinorMove]:
    moves = []
    for ci in range(g.n_vertices):
        ngaps = g.n_gaps(ci)
        for p in range(ngaps):
            for q in range(p, ngaps):
                if can_split_vertex(g, ci, p, q):
                    moves.append(MinorMove("split-vertex", (ci, p, q)))
    return moves


def _face_split_moves_by_gates(g: ArrowPresentation) -> list[MinorMove]:
    moves = []
    for bi, b in enumerate(trace_boundaries(g)):
        vpos = range(0, len(b), 2)
        for i, p in enumerate(vpos):
            for q in vpos[i:]:
                if can_split_face(g, bi, p, q):
                    moves.append(MinorMove("split-face", (bi, p, q)))
    return moves


def applicable_moves_by_gates(g: ArrowPresentation, family: MinorFamily) -> tuple[MinorMove, ...]:
    family = MinorFamily(family)
    n_comp = len(underlying_graph(g).components())
    comp_dels = [MinorMove("delete-component", (k,)) for k in range(n_comp)]
    moves: list[MinorMove] = []
    if family is MinorFamily.EULERIAN:
        moves += comp_dels
        moves += [MinorMove("contract", (e,)) for e in g.labels if is_proper_contraction(g, e)]
        moves += _vertex_split_moves_by_gates(g)
    elif family is MinorFamily.CHECKERBOARD:
        moves += comp_dels
        moves += [MinorMove("contract", (e,)) for e in g.labels]
        moves += _vertex_split_moves_by_gates(g)
    elif family is MinorFamily.EVEN_FACE:
        moves += [MinorMove("delete", (e,)) for e in g.labels if is_proper_deletion(g, e)]
        moves += comp_dels
        moves += _face_split_moves_by_gates(g)
    elif family is MinorFamily.BIPARTITE:
        moves += [MinorMove("delete", (e,)) for e in g.labels]
        moves += comp_dels
        moves += _face_split_moves_by_gates(g)
    else:  # BIPARTITE_JOIN
        moves += [MinorMove("delete", (e,)) for e in g.labels]
        moves += [MinorMove("delete-vertex", (c,)) for c in range(g.n_vertices)]
        moves += [
            MinorMove("join", (c1, c2))
            for c1 in range(g.n_vertices)
            for c2 in range(c1 + 1, g.n_vertices)
            if is_permissible_join(g, c1, c2)
        ]
    return tuple(moves)


def assert_move_sequence(moves) -> tuple[MinorMove, ...]:
    """A move list keeps the contract of a read-only tuple: len, every index
    k and -k - 1, and iteration agree, an index past either end raises
    IndexError, and no item can be assigned.  Returns the moves as a tuple."""
    listed = tuple(moves)
    n = len(moves)
    assert isinstance(moves, Sequence) and not isinstance(moves, MutableSequence)
    assert len(listed) == n
    assert [moves[k] for k in range(n)] == list(listed)
    assert [moves[-k - 1] for k in range(n)] == list(reversed(listed))
    for k in (n, -n - 1):
        try:
            moves[k]
        except IndexError:
            continue
        raise AssertionError(f"index {k} of {n} moves raised no IndexError")
    return listed


def contract_via_partial_dual(g: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contraction as first written: two presentations, the partial dual at
    e and then its deletion.  The library reads the dual's circles from one
    walk and drops e before building one presentation."""
    return delete_edge(partial_dual(g, {e}), e)


def assert_face_splits_match_insertion(g):
    """Every legal face split of g is equivalent to the literal one, keeps
    the edges, and changes the circle count by its case: -1 when it merges
    two circles, +1 when the walk crosses both gaps of one circle the same
    way, else 0.  The new circles take the place of the first gap's circle,
    and every other circle keeps its text and its order."""
    for bi, b in enumerate(trace_boundaries(g)):
        vpos = range(0, len(b), 2)
        for i, p in enumerate(vpos):
            for q in vpos[i:]:
                if not can_split_face(g, bi, p, q):
                    continue
                h = split_face(g, bi, p, q)
                assert is_equivalent(h, split_face_via_insertion(g, bi, p, q)), (g, bi, p, q)
                (ci, _), (ck, _) = b.segments[p], b.segments[q]
                old = 1 + (ci != ck)  # the circles the split reads
                new = 2 if old == 1 and b.directions[p] == b.directions[q] else 1
                assert (h.n_edges, h.n_vertices) == (g.n_edges, g.n_vertices - old + new), (g, bi, p, q)
                at = ci - (ck < ci)
                kept = tuple(c for i, c in enumerate(g.circles) if i not in (ci, ck))
                assert h.circles[:at] + h.circles[at + new :] == kept, (g, bi, p, q)


def assert_moves_match_partial_dual_route(g):
    """contract_edge gives the text of the route that builds the partial
    dual and then deletes the edge, and every face split is equivalent to
    the route that inserts an edge and contracts it."""
    for e in g.labels:
        assert contract_edge(g, e).to_text() == contract_via_partial_dual(g, e).to_text(), (g, e)
    assert_face_splits_match_insertion(g)


# Certificates from the reach pass: _contains_cache records True for every
# state on the pass's stack when a successor reaches, so each recorded state
# has a kept successor that is recorded True or is a target.  Following the
# first such successor gives a witness, which is replayed through the routes
# above, each move checked against the gate-by-gate move list.


def reach_witness(g: ArrowPresentation, family: MinorFamily, targets) -> list[MinorMove]:
    """The move sequence _contains_cache certifies from g's canonical form to
    one of ``targets``, after the reach pass answered True for g: from each
    state, the first kept move whose successor is recorded True or is a
    target.  States are known by ``_state_key``, and a kept move is one that
    does not keep the edge count while taking the isolated-circle count
    further from the count the targets share."""
    family = MinorFamily(family)
    keys = frozenset(_state_key(t, family) for t in targets)
    (iso_t,) = {_isolated_count(t) for t in targets}
    recorded = minor_search._contains_cache
    state, moves = canonical_presentation(g), []
    while _state_key(state, family) not in keys:
        assert recorded.get((family, _state_key(state, family), keys)) is True, (g, moves)
        assert len(moves) < 100, (g, moves)
        gap = abs(_isolated_count(state) - iso_t)
        for mv in applicable_moves(state, family):
            nxt = canonical_presentation(mv.apply(state))
            if nxt.n_edges == state.n_edges and abs(_isolated_count(nxt) - iso_t) > gap:
                continue
            key = _state_key(nxt, family)
            if key in keys or recorded.get((family, key, keys)) is True:
                moves.append(mv)
                state = nxt
                break
        else:
            raise AssertionError(f"no recorded successor of {state} for {g}")
    return moves


def delete_component_via_networkx(g: ArrowPresentation, k: int) -> ArrowPresentation:
    """Delete the k-th connected component, components ordered by their
    smallest circle, found by networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n_vertices))
    graph.add_edges_from(_label_circles(g).values())
    drop = sorted(nx.connected_components(graph), key=min)[k]
    return ArrowPresentation(tuple(c for ci, c in enumerate(g.circles) if ci not in drop))


def _move_by_oracle_route(g: ArrowPresentation, mv: MinorMove) -> ArrowPresentation:
    if mv.kind == "contract":
        return contract_via_partial_dual(g, *mv.params)
    if mv.kind == "delete":
        (e,) = mv.params
        return ArrowPresentation(tuple(tuple(a for a in c if a[0] != e) for c in g.circles))
    if mv.kind == "delete-component":
        return delete_component_via_networkx(g, *mv.params)
    if mv.kind == "split-vertex":
        return split_vertex_via_insertion(g, *mv.params)
    if mv.kind == "split-face":
        return split_face_via_insertion(g, *mv.params)
    if mv.kind == "delete-vertex":
        (c,) = mv.params
        doomed = {lab for lab, ends in _label_circles(g).items() if c in ends}
        return ArrowPresentation(tuple(tuple(a for a in circ if a[0] not in doomed)
                                       for ci, circ in enumerate(g.circles) if ci != c))
    if mv.kind == "join":
        # the second circle's word, then the first's, as a last circle: a
        # rotation of the library's splice, so an equivalent presentation
        c1, c2 = mv.params
        rest = tuple(circ for ci, circ in enumerate(g.circles) if ci not in (c1, c2))
        return ArrowPresentation(rest + (g.circles[c2] + g.circles[c1],))
    raise AssertionError(f"no oracle route for {mv}")


def replay_by_oracle_routes(g: ArrowPresentation, moves, family: MinorFamily) -> ArrowPresentation:
    """Replay a witness from g's canonical form, each move checked against
    :func:`applicable_moves_by_gates` and applied by its oracle route, and
    each result canonicalised as :func:`replay_witness` does."""
    state = canonical_presentation(g)
    for mv in moves:
        assert mv in applicable_moves_by_gates(state, family), (state, mv)
        state = canonical_presentation(_move_by_oracle_route(state, mv))
    return state
