from itertools import combinations

import pytest

from ribbonminor import (
    ArpError,
    ArrowPresentation,
    euler_genus,
    geometric_dual,
    is_bipartite,
    is_checkerboard_colourable,
    is_equivalent,
    is_eulerian,
    is_even_face,
    parse_arp,
    partial_dual,
    trace_boundaries,
)
from oracles import endpoint_partial_dual

P = parse_arp


def _subsets(labels):
    for r in range(len(labels) + 1):
        yield from (frozenset(c) for c in combinations(labels, r))


def test_partial_dual_matches_endpoint_walk_oracle_on_raw_words(raw3):
    # same circles in the same order, rotation and signs, for every edge
    # subset; isolated circles, placed first and between, must come out last
    for circles in raw3:
        for g in (
            ArrowPresentation(circles),
            ArrowPresentation([()] + circles),
            ArrowPresentation([()] + circles[:1] + [()] + circles[1:]),
        ):
            for a in _subsets(g.labels):
                assert partial_dual(g, a).circles == endpoint_partial_dual(g, a).circles, (g, a)


def test_partial_dual_examples():
    assert is_equivalent(partial_dual(P("(e+ e+)"), {"e"}), P("(e+)(e+)"))
    assert is_equivalent(partial_dual(P("(e+ e-)"), {"e"}), P("(e+ e-)"))
    g = P("(a+ b+)(a+)(b+)")
    assert partial_dual(g, set()) is g


def test_partial_dual_unknown_label():
    with pytest.raises(ArpError, match="not present"):
        partial_dual(P("(e+ e+)"), {"z"})


def test_partial_dual_rejects_a_bare_string():
    # a string would be read as its characters: "e1" as the labels e and 1,
    # "ef" as e and f
    for text, labels in (("(e1+ f+ e1+ f+)", "e1"), ("(e+ f+ e+ f+)", "ef")):
        with pytest.raises(ArpError) as err:
            partial_dual(P(text), labels)
        assert str(err.value) == f"edge labels must be given as a collection, not the string {labels!r}"
    assert is_equivalent(partial_dual(P("(e1+ f+ e1+ f+)"), ["e1"]), partial_dual(P("(a+ b+ a+ b+)"), ["a"]))


def test_partial_dual_rejects_labels_that_are_not_strings():
    g = P("(a+ a+)")
    for edges in ([["a"]], None, 5):
        with pytest.raises(ArpError) as err:
            partial_dual(g, edges)
        assert str(err.value) == f"edge labels must be a collection of strings, got {edges!r}"
    # a non-string is never a label; it is named before any missing string,
    # so labels that do not compare still give one message
    for edges in ([1, "b"], [1, "a"], {1, "1"}):
        with pytest.raises(ArpError) as err:
            partial_dual(g, edges)
        assert str(err.value) == "label 1 not present"
    with pytest.raises(ArpError) as err:
        partial_dual(g, ["z", "b", "a"])
    assert str(err.value) == "label 'b' not present"


def test_geometric_dual_examples():
    assert is_equivalent(geometric_dual(P("(e+ e+)")), P("(e+)(e+)"))
    assert is_equivalent(geometric_dual(P("(e+)(e+)")), P("(e+ e+)"))
    empty = P("()")
    assert geometric_dual(empty) == empty


def test_involution_and_order_independence(sweep3):
    for g in sweep3:
        labels = g.labels
        for a in _subsets(labels):
            assert is_equivalent(partial_dual(partial_dual(g, a), a), g), (g, a)
        for e, f in combinations(labels, 2):
            both = partial_dual(g, {e, f})
            seq_ef = partial_dual(partial_dual(g, {e}), {f})
            seq_fe = partial_dual(partial_dual(g, {f}), {e})
            assert is_equivalent(both, seq_ef) and is_equivalent(both, seq_fe), (g, e, f)


def test_count_exchange(sweep3):
    for g in sweep3:
        star = geometric_dual(g)
        assert star.n_vertices == len(trace_boundaries(g))
        assert len(trace_boundaries(star)) == g.n_vertices
        assert star.n_edges == g.n_edges
        assert euler_genus(star) == euler_genus(g)


def test_predicate_duality(sweep3):
    for g in sweep3:
        star = geometric_dual(g)
        assert is_bipartite(g) == is_checkerboard_colourable(star), g
        assert is_eulerian(g) == is_even_face(star), g


def test_partial_dual_symmetric_difference_algebra(sweep2):
    for g in sweep2:
        subsets = list(_subsets(g.labels))
        for a in subsets:
            for b in subsets:
                lhs = partial_dual(partial_dual(g, a), b)
                assert is_equivalent(lhs, partial_dual(g, a ^ b)), (g, a, b)


@pytest.mark.xfail(
    strict=True,
    reason="Euler genus is preserved by full geometric duality but not by "
    "partial duality ((b+ c+ b+ c+) dualised at one edge drops from genus 2 "
    "to 0); recorded as a defect of the stated invariant.",
)
def test_partial_dual_genus_preservation_as_stated(sweep3):
    for g in sweep3:
        for a in _subsets(g.labels):
            assert euler_genus(partial_dual(g, a)) == euler_genus(g), (g, a)
