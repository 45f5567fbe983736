"""Independent oracles the tests check the library against.

These deliberately re-derive everything from the raw circle data along a
different code path: boundary structure via a networkx multigraph on arrow
endpoints, and equivalence via explicit enumeration of relabellings, edge
flips, rotations and reversals; canonical forms via the edge-flip mask
loop; the enumeration by canonicalising every candidate.
"""

from __future__ import annotations

from itertools import combinations, permutations

import networkx as nx

from ribbonminor import ArrowPresentation, canonical_presentation, canonicalize, underlying_graph
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


def nx_component_count(g) -> int:
    """Connected components of the ribbon graph, isolated circles included."""
    comp_graph = nx.Graph()
    comp_graph.add_nodes_from(range(g.n_vertices))
    occ = {}
    for ci, circle in enumerate(g.circles):
        for lab, _ in circle:
            occ.setdefault(lab, []).append(ci)
    for lab, (u, v) in occ.items():
        comp_graph.add_edge(u, v)
    return nx.number_connected_components(comp_graph) if g.n_vertices else 0


def nx_euler_genus(g) -> int:
    return 2 * nx_component_count(g) - g.n_vertices + g.n_edges - nx_face_count(g)


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
