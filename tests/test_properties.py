"""Property-based tests for the structural laws the library relies on."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ribbonminor import (
    ArpError,
    ArrowPresentation,
    EnumerationSpec,
    can_split_face,
    canonical_presentation,
    canonicalize,
    checkerboard_colouring,
    contract_edge,
    delete_edge,
    enumerate_presentations,
    euler_genus,
    format_arp,
    geometric_dual,
    is_bipartite,
    is_checkerboard_colourable,
    is_equivalent,
    is_eulerian,
    is_even_face,
    is_proper_deletion,
    parse_arp,
    partial_dual,
    trace_boundaries,
    underlying_graph,
)
from ribbonminor import arrow_core
from ribbonminor.arrow_core import EdgeLineSegment, _base_canonical
from ribbonminor.minor_search import MinorFamily, applicable_moves
from oracles import (
    _encode_circle,
    applicable_moves_by_gates,
    assert_cuts_match_counted,
    assert_move_sequence,
    assert_moves_match_partial_dual_route,
    assert_walk_matches_table_walk,
    assert_walks_alternate,
    can_split_face_counted,
    counted_occurrences,
    endpoint_partial_dual,
    endpoint_trace_boundaries,
    flip_loop_canonicalize,
    is_proper_deletion_direct,
    nx_components,
    nx_euler_genus,
    nx_is_bipartite,
    nx_is_checkerboard_colourable,
    search_base_canonical,
)


@st.composite
def presentations(draw, max_edges=3, max_circles=3, min_edges=0):
    n_edges = draw(st.integers(min_edges, max_edges))
    n_circles = draw(st.integers(1, max_circles))
    slots = []
    for i in range(n_edges):
        slots += [(f"e{i}", draw(st.sampled_from((1, -1)))) for _ in range(2)]
    order = draw(st.permutations(slots)) if slots else []
    cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=n_circles - 1)))
    circles = []
    prev = 0
    for c in cuts:
        circles.append(tuple(order[prev:c]))
        prev = c
    circles.append(tuple(order[prev:]))
    return ArrowPresentation(circles)


def _random_equivalence_move(g: ArrowPresentation, rng: random.Random) -> ArrowPresentation:
    circles = list(g.circles)
    kind = rng.choice(("permute", "rotate", "reverse", "relabel", "flip-edge"))
    if kind == "permute":
        rng.shuffle(circles)
    elif kind == "rotate" and circles:
        ci = rng.randrange(len(circles))
        c = circles[ci]
        if c:
            r = rng.randrange(len(c))
            circles[ci] = c[r:] + c[:r]
    elif kind == "reverse" and circles:
        ci = rng.randrange(len(circles))
        circles[ci] = tuple((lab, -s) for lab, s in reversed(circles[ci]))
    elif kind == "relabel" and g.labels:
        new = [f"x{i}" for i in range(len(g.labels))]
        rng.shuffle(new)
        mapping = dict(zip(g.labels, new))
        circles = [tuple((mapping[lab], s) for lab, s in c) for c in circles]
    elif kind == "flip-edge" and g.labels:
        e = rng.choice(g.labels)
        circles = [tuple((lab, -s if lab == e else s) for lab, s in c) for c in circles]
    return ArrowPresentation(circles)


def _assert_canonical_form_invariant(g: ArrowPresentation, seed: int) -> None:
    rng = random.Random(seed)
    h = g
    for _ in range(6):
        h = _random_equivalence_move(h, rng)
    assert canonicalize(h) == canonicalize(g)
    assert is_equivalent(g, h)
    # one representative instance per class, mapped to itself, whose text
    # canonicalize gives
    rep = canonical_presentation(g)
    assert canonical_presentation(h) is rep
    assert arrow_core._canon_cache[rep.circles] is rep
    assert canonicalize(h) == rep.to_text()


@settings(max_examples=60, deadline=None)
@given(presentations(max_edges=4), presentations(max_edges=4))
def test_is_equivalent_agrees_with_canonical_text(g, h):
    assert is_equivalent(g, h) == (canonicalize(g) == canonicalize(h))


@settings(max_examples=60, deadline=None)
@given(presentations(), st.integers(0, 2**32 - 1))
def test_canonical_form_invariant_under_equivalence_moves(g, seed):
    _assert_canonical_form_invariant(g, seed)


@settings(max_examples=25, deadline=None)
@given(presentations(max_edges=10, max_circles=4), st.integers(0, 2**32 - 1))
def test_canonical_form_invariant_under_equivalence_moves_up_to_10_edges(g, seed):
    _assert_canonical_form_invariant(g, seed)


@settings(max_examples=60, deadline=None)
@given(presentations(max_edges=5, max_circles=4))
def test_canonical_form_matches_flip_loop_oracle(g):
    assert canonicalize(g) == flip_loop_canonicalize(g)


def _own_encoding(circles):
    own, mapping = [], {}
    for circle in circles:
        enc, mapping = _encode_circle(circle, mapping)
        own.append(enc)
    return tuple(own)


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=5, max_circles=4))
def test_canonical_representative_is_its_own_minimal_encoding(g):
    rep = canonical_presentation(g)
    assert _base_canonical(rep.circles) == _own_encoding(rep.circles)


@st.composite
def repeated_components(draw):
    """Disconnected presentations: one connected class of at most two edges
    two or three times, maybe one more class, and up to two isolated
    circles, under fresh labels and in a drawn circle order.  Four
    components at most, since the recursive search is factorial in the
    number of identical ones."""
    classes = st.sampled_from(enumerate_presentations(EnumerationSpec(2)))
    pieces = [draw(classes)] * draw(st.integers(2, 3)) + draw(st.lists(classes, max_size=1))
    circles = [()] * draw(st.integers(0, 2))
    for i, piece in enumerate(pieces):
        circles += [tuple((f"p{i}{lab}", s) for lab, s in c) for c in piece.circles]
    return ArrowPresentation(draw(st.permutations(circles)))


@settings(max_examples=60, deadline=None)
@given(repeated_components(), st.integers(0, 2**32 - 1))
def test_minimal_encoding_matches_search_on_repeated_components(g, seed):
    rng = random.Random(seed)
    h = g
    for _ in range(6):
        h = _random_equivalence_move(h, rng)
    assert _base_canonical(h.circles) == search_base_canonical(h.circles)
    assert canonicalize(h) == canonicalize(g)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_text_round_trips(g):
    assert parse_arp(format_arp(g)) == g
    assert parse_arp(g.to_text()) == g
    assert canonicalize(parse_arp(canonicalize(g))) == canonicalize(g)


@settings(max_examples=60, deadline=None)
@given(presentations(max_edges=12, max_circles=4))
def test_occurrence_table_matches_a_recount(g):
    # with 11 or more edges, string order (e10 < e2) differs from edge order
    positions = {}
    for ci, c in enumerate(g.circles):
        for j, (lab, _) in enumerate(c):
            positions.setdefault(lab, []).append((ci, j))
    assert list(g.occurrences.items()) == [(lab, tuple(positions[lab])) for lab in sorted(positions)]
    assert g.labels == tuple(sorted(positions))
    assert g.n_edges == sum(len(c) for c in g.circles) // 2


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_boundary_structure_laws(g):
    comps = trace_boundaries(g)
    per_label = {}
    for b in comps:
        for seg in b.segments:
            if isinstance(seg, EdgeLineSegment):
                per_label[seg.label] = per_label.get(seg.label, 0) + 1
    assert sum(per_label.values()) == 2 * g.n_edges
    assert all(v == 2 for v in per_label.values())
    assert euler_genus(g) >= 0


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_duality_laws(g):
    star = geometric_dual(g)
    assert is_equivalent(geometric_dual(star), g)
    assert star.n_vertices == len(trace_boundaries(g))
    assert is_bipartite(g) == is_checkerboard_colourable(star)
    assert is_eulerian(g) == is_even_face(star)


@settings(max_examples=60, deadline=None)
@given(presentations(), st.integers(0, 2**32 - 1))
def test_partial_dual_involution_on_random_subset(g, seed):
    rng = random.Random(seed)
    subset = frozenset(e for e in g.labels if rng.random() < 0.5)
    pd = partial_dual(g, subset)
    assert is_equivalent(partial_dual(pd, subset), g)
    assert pd.n_edges == g.n_edges


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_label_invariant_preserved_by_moves(g):
    for e in g.labels:
        for result in (delete_edge(g, e), contract_edge(g, e)):
            counts = {}
            for c in result.circles:
                for lab, _ in c:
                    counts[lab] = counts.get(lab, 0) + 1
            assert all(v == 2 for v in counts.values())


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_proper_deletion_dual_equals_direct(g):
    for e in g.labels:
        assert is_proper_deletion(g, e) == is_proper_deletion_direct(g, e)


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=12, max_circles=6), st.integers(0, 2**32 - 1))
def test_boundary_walk_matches_endpoint_walk_oracles_up_to_12_edges(g, seed):
    assert trace_boundaries.__wrapped__(g) == endpoint_trace_boundaries(g)
    rng = random.Random(seed)
    subset = frozenset(e for e in g.labels if rng.random() < 0.5)
    assert partial_dual(g, subset).circles == endpoint_partial_dual(g, subset).circles
    assert geometric_dual(g).circles == endpoint_partial_dual(g, g.labels).circles


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=32, max_circles=6), st.integers(0, 2**32 - 1))
def test_walk_matches_table_walk_oracle_up_to_32_edges(g, seed):
    assert_walk_matches_table_walk(g, random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=32, max_circles=6),
       st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=3))
def test_occurrences_match_counting_reference_up_to_32_edges(g, edits):
    # the table, key order included, and then circles with arrows dropped
    # or repeated: both builds raise the reference's miscount text, if any
    ref = counted_occurrences(g.circles)
    assert list(g.occurrences.items()) == list(ref.items())
    circles = [list(c) for c in g.circles]
    for k, repeat in edits:
        c = circles[k % len(circles)]
        if not c:
            continue
        if repeat:
            c.insert(k % len(c), c[k % len(c)])
        else:
            del c[k % len(c)]
    circles = tuple(map(tuple, circles))
    try:
        ref = counted_occurrences(circles)
    except ArpError as err:
        for build in (ArrowPresentation, ArrowPresentation._of):
            with pytest.raises(ArpError) as built:
                build(circles)
            assert str(built.value) == str(err)
    else:
        assert list(ArrowPresentation._of(circles).occurrences.items()) == list(ref.items())


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=8, max_circles=5))
def test_two_colourings_match_networkx(g):
    assert is_bipartite(g) == nx_is_bipartite(g)
    assert is_checkerboard_colourable(g) == nx_is_checkerboard_colourable(g)


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=8, max_circles=5), st.integers(0, 2))
def test_genus_kernel_matches_networkx(g, n_isolated):
    # isolated circles each count as a component and a face
    g = ArrowPresentation(g.circles + ((),) * n_isolated)
    assert arrow_core._genus(g) == euler_genus(g) == nx_euler_genus(g)


@settings(max_examples=100, deadline=None)
@given(st.one_of(presentations(max_edges=8, max_circles=6), repeated_components()))
def test_traversal_matches_networkx(g):
    # the components of the underlying graph, isolated circles included,
    # and the face 2-colouring: colour 0 on the least face of each
    # component of the face-constraint graph, opposite colours across
    # every edge
    assert underlying_graph(g).components() == nx_components(g)
    colour = checkerboard_colouring(g)
    if colour is None:
        return
    boundaries = trace_boundaries(g)
    face = {seg: bi for bi, b in enumerate(boundaries) for seg in b.segments}
    sides = [(face[EdgeLineSegment(lab, 1)], face[EdgeLineSegment(lab, 2)]) for lab in g.labels]
    graph = nx.MultiGraph(sides)
    graph.add_nodes_from(range(len(boundaries)))
    assert sorted(colour) == list(range(len(boundaries)))
    assert all(colour[min(comp)] == 0 for comp in nx.connected_components(graph))
    assert all(colour[u] != colour[w] for u, w in sides)


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=12, max_circles=6))
def test_face_split_gate_matches_counted_arcs_up_to_12_edges(g):
    for bi, b in enumerate(trace_boundaries(g)):
        vpos = range(0, len(b), 2)
        for p in vpos:
            for q in vpos:
                assert can_split_face(g, bi, p, q) == can_split_face_counted(g, bi, p, q)


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=12, max_circles=6))
def test_positional_reading_matches_counted_arcs_up_to_12_edges(g):
    assert_walks_alternate(trace_boundaries(g))
    assert_cuts_match_counted(g)


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=12, max_circles=6))
def test_move_generation_matches_gate_by_gate_reference_up_to_12_edges(g):
    for fam in MinorFamily:
        assert assert_move_sequence(applicable_moves(g, fam)) == applicable_moves_by_gates(g, fam), fam


@settings(max_examples=50, deadline=None)
@given(st.one_of(presentations(max_edges=32, max_circles=6),
                 presentations(max_edges=32, max_circles=1, min_edges=32)))
def test_move_lists_are_read_only_sequences_up_to_32_edges(g):
    # the second strategy puts 32 edges on one circle of 64 arrows, the
    # longest circle and walks the split counts and the bisection see
    for fam in MinorFamily:
        assert_move_sequence(applicable_moves(g, fam))


@settings(max_examples=50, deadline=None)
@given(presentations(max_edges=12, max_circles=6))
def test_one_pass_moves_match_partial_dual_route_up_to_12_edges(g):
    assert_moves_match_partial_dual_route(g)


# label characters, signs, parentheses, comment marks, spaces and line
# breaks, with whole tokens mixed in so that a fair share of texts parse
_ARP_PIECES = st.sampled_from([*"abAZ09_+-()# \t\r\n", "a+", "a-", "b+", "b-", "()"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_ARP_PIECES, max_size=24).map("".join))
def test_parse_arp_rejects_or_round_trips(text):
    try:
        g = parse_arp(text)
    except ArpError:
        return
    assert parse_arp(format_arp(g)) == g
    assert parse_arp(g.to_text()) == g
