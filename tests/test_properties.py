"""Property-based tests for the structural laws the library relies on."""

import random

from hypothesis import given, settings, strategies as st

from ribbonminor import (
    ArrowPresentation,
    canonical_presentation,
    canonicalize,
    contract_edge,
    delete_edge,
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
)
from ribbonminor.arrow_core import EdgeLineSegment, _base_canonical, _encode_circle, _is_canonical
from oracles import (
    endpoint_partial_dual,
    endpoint_trace_boundaries,
    flip_loop_canonicalize,
    is_proper_deletion_direct,
    nx_is_bipartite,
    nx_is_checkerboard_colourable,
)


@st.composite
def presentations(draw, max_edges=3, max_circles=3):
    n_edges = draw(st.integers(0, max_edges))
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


@settings(max_examples=200, deadline=None)
@given(presentations(max_edges=5, max_circles=4))
def test_bounded_canonical_test_matches_unbounded_search(g):
    # the bounded search stops below the bound, prunes above it and recurses
    # on ties; it must pass exactly the presentations that are their own minimum
    assert _is_canonical(g.circles) == (_base_canonical(g.circles) == _own_encoding(g.circles))


@settings(max_examples=100, deadline=None)
@given(presentations(max_edges=5, max_circles=4))
def test_bounded_canonical_test_passes_canonical_representatives(g):
    rep = canonical_presentation(g)
    assert _is_canonical(rep.circles)
    assert _base_canonical(rep.circles) == _own_encoding(rep.circles)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_text_round_trips(g):
    assert parse_arp(format_arp(g)) == g
    assert parse_arp(g.to_text()) == g
    assert canonicalize(parse_arp(canonicalize(g))) == canonicalize(g)


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
@given(presentations(max_edges=8, max_circles=5))
def test_two_colourings_match_networkx(g):
    assert is_bipartite(g) == nx_is_bipartite(g)
    assert is_checkerboard_colourable(g) == nx_is_checkerboard_colourable(g)
