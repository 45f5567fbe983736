import sys

import pytest

from ribbonminor import (
    ArpError,
    MinorFamily,
    applicable_moves,
    bipartite_by_even_face_minors,
    bipartite_by_excluded_minors,
    bipartite_by_join_minors,
    bipartite_plane_by_excluded_minors,
    cc_by_excluded_eulerian_minors,
    cc_by_excluded_minors,
    cc_plane_by_excluded_minors,
    contains_minor,
    euler_genus,
    is_equivalent,
    minor_witness,
    parse_arp,
    plane_bipartite_by_excluded_minors,
    plane_cc_by_excluded_minors,
    replay_witness,
    target_catalog,
    underlying_graph,
)
from ribbonminor import ArrowPresentation, duality, minor_search
from ribbonminor.verify import EnumerationSpec, enumerate_presentations
from oracles import applicable_moves_by_gates, capped_minor_search

P = parse_arp


# -- applicable moves -----------------------------------------------------------


def test_applicable_moves_cc_on_single_edge():
    moves = applicable_moves(P("(a+)(a+)"), MinorFamily.CHECKERBOARD)
    kinds = sorted(str(m) for m in moves)
    assert kinds == ["contract a", "delete-component 0", "split-vertex 0 0 0", "split-vertex 1 0 0"]


def test_applicable_moves_join_on_single_edge():
    moves = applicable_moves(P("(a+)(a+)"), MinorFamily.BIPARTITE_JOIN)
    kinds = sorted(str(m) for m in moves)
    assert kinds == ["delete a", "delete-vertex 0", "delete-vertex 1"]


def test_applicable_moves_eulerian_excludes_improper_contractions():
    moves = applicable_moves(P("(a+ b+ a+ b+)"), MinorFamily.EULERIAN)
    assert not any(m.kind == "contract" for m in moves)
    assert any(m.kind == "delete-component" for m in moves)


def test_applicable_moves_deterministic(sweep2):
    for g in sweep2:
        for fam in MinorFamily:
            first = applicable_moves(g, fam)
            assert first == applicable_moves(g, fam)
            assert len(set(first)) == len(first)


def _with_isolated_circles(g: ArrowPresentation):
    """g with 0, 1 or 2 isolated circles put first, last, or (with two)
    one each side."""
    c = g.circles
    return {ArrowPresentation(x) for x in (
        c, ((),) + c, c + ((),), ((), ()) + c, c + ((), ()), ((),) + c + ((),))}


def test_applicable_moves_match_gate_by_gate_reference(sweep3):
    for g in sweep3:
        for h in _with_isolated_circles(g):
            for fam in MinorFamily:
                assert applicable_moves(h, fam) == applicable_moves_by_gates(h, fam), (h, fam)


def test_even_face_moves_dualise_at_most_once(sweep3, monkeypatch):
    # every binding of geometric_dual in the package counts, so a properness
    # test that dualises g once per label is caught too
    calls = []
    orig = duality.geometric_dual

    def counting(g):
        calls.append(g)
        return orig(g)

    for name, module in list(sys.modules.items()):
        if name == "ribbonminor" or name.startswith("ribbonminor."):
            for key, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, key, counting)
    big = P("(a+ b+ c+ d+ a- b- c- d-)(e+ f+ e+ f+)(g+ g+ h+)(h+)()")
    applicable_moves(big, MinorFamily.EVEN_FACE)
    assert len(calls) == 1, "the deletions of big need its dual exactly once"
    for g in (*sweep3, P("()"), ArrowPresentation()):
        calls.clear()
        applicable_moves(g, MinorFamily.EVEN_FACE)
        assert len(calls) <= 1, (g, len(calls))


# -- containment -------------------------------------------------------------------


def test_contains_minor_examples():
    cat = target_catalog()
    assert contains_minor(P("(a+ b+ a+ b+)"), cat["single_edge"], MinorFamily.CHECKERBOARD)
    g = P("(a+ b+)(a+)(b+)")
    for fam in MinorFamily:
        assert contains_minor(g, g, fam)
    assert not contains_minor(cat["orientable_loop"], cat["nonorientable_loop"], MinorFamily.CHECKERBOARD)


def test_contains_minor_join_family_uses_abstract_graphs():
    # any twisted variant of the loop is the same abstract graph
    triangle = P("(a+ c+)(a+ b+)(b+ c+)")
    assert contains_minor(triangle, P("(e+ e-)"), MinorFamily.BIPARTITE_JOIN)
    assert contains_minor(triangle, P("(e+ e+)"), MinorFamily.BIPARTITE_JOIN)


def test_contains_minor_with_isolated_start():
    # a start owning more isolated vertices than the target must still reduce
    g = P("(e+ e+)()()()")
    assert contains_minor(g, P("(e+ e+)"), MinorFamily.CHECKERBOARD)


def _same_state(g, h, family):
    if family is MinorFamily.BIPARTITE_JOIN:
        return underlying_graph(g).canonical_key() == underlying_graph(h).canonical_key()
    return is_equivalent(g, h)


# witness length per family, in MinorFamily order, or None where g does not
# contain h; each case turns on the isolated-circle pruning rule
_ISOLATED_CASES = [
    ("(e+ e+)", "(e+ e+)()", (1, 1, 1, 1, None)),
    ("()", "()()", (1, 1, 1, 1, None)),
    ("()", "", (1, 1, 1, 1, 1)),
    ("", "()", (None, None, None, None, None)),
    ("(a+)(a+)", "()()()", (3, 2, 3, 2, None)),
    ("(e+ e+)()()()", "(e+ e+)", (3, 3, 3, 3, 3)),
]


@pytest.mark.parametrize("g, h, lengths", _ISOLATED_CASES)
def test_isolated_circles_and_empty_graph(g, h, lengths):
    g, h = P(g), P(h)
    for fam, want in zip(MinorFamily, lengths):
        w = minor_witness(g, h, fam)
        assert (None if w is None else len(w)) == want, fam
        assert contains_minor(g, h, fam) == (want is not None), fam
        if w is not None:
            assert _same_state(replay_witness(g, w), h, fam), fam


def _assert_matches_capped_search(pairs):
    """Containment and witness lengths equal those of the capped reference
    search in every family, and every witness replays to its target."""
    for g, h in pairs:
        for fam in MinorFamily:
            want = capped_minor_search(g, h, fam, want_witness=True)
            got = minor_witness(g, h, fam)
            assert (got is None) == (want is None), (g, h, fam)
            assert contains_minor(g, h, fam) == (want is not None), (g, h, fam)
            if got is not None:
                assert len(got) == len(want), (g, h, fam)
                assert _same_state(replay_witness(g, got), h, fam), (g, h, fam, got)


def test_search_matches_capped_reference_on_catalog_targets(sweep3):
    targets = list(target_catalog().values())
    _assert_matches_capped_search([(g, h) for g in sweep3 for h in targets])


def test_search_matches_capped_reference_on_small_pairs():
    small = enumerate_presentations(EnumerationSpec(2, 3, False))
    _assert_matches_capped_search([(g, h) for g in small for h in small])


def test_failed_search_is_remembered_per_state(monkeypatch):
    # an orientable ribbon graph has no non-orientable minor
    g, h = P("(a+ b+ a+ b+)(c+ c+)"), target_catalog()["nonorientable_loop"]
    fam = MinorFamily.CHECKERBOARD
    assert not contains_minor(g, h, fam)
    reached = P("(a+ b+ a+ b+)")  # g with the component of c deleted
    assert minor_search._contains_cache[minor_search._memo_key(reached, h, fam)] is False

    def no_search(*args):
        raise AssertionError("a state the failed search reached was searched again")

    monkeypatch.setattr(minor_search, "_search", no_search)
    assert not contains_minor(reached, h, fam)


def test_start_below_target_is_not_expanded():
    # fewer edges than the target, so no move of any family can reach it;
    # five edges, so no other test expands g
    g, h = P("(a+ b+ c+ d+ e+ a+ b+ c+ d+ e+)"), P("(a+ b+ c+ d+ e+ f+ a+ b+ c+ d+ e+ f+)")
    for fam in MinorFamily:
        assert minor_witness(g, h, fam) is None
        assert (minor_search.canonical_presentation(g), fam) not in minor_search._successor_cache


def test_witness_replay(sweep2):
    cat = target_catalog()
    targets = [cat["single_edge"], cat["nonorientable_loop"]]
    checked = 0
    for g in sweep2:
        for h in targets:
            w = minor_witness(g, h, MinorFamily.EULERIAN)
            assert (w is not None) == contains_minor(g, h, MinorFamily.EULERIAN)
            if w is not None:
                assert is_equivalent(replay_witness(g, w), h), (g, h, w)
                checked += 1
    assert checked > 0


def test_witness_with_face_splits_replays():
    # boundary-walk positions in a witness refer to the canonical form of
    # the previous state; the triangle reduces to a loop by two face splits
    triangle = P("(a+ c+)(a+ b+)(b+ c+)")
    loop = target_catalog()["orientable_loop"]
    w = minor_witness(triangle, loop, MinorFamily.BIPARTITE)
    assert w is not None
    assert any(mv.kind == "split-face" for mv in w)
    assert is_equivalent(replay_witness(triangle, w), loop)


def test_witness_monotone_edge_count():
    g = P("(a+ b+ c+)(a+ c+ b+)")
    w = minor_witness(g, target_catalog()["single_edge"], MinorFamily.CHECKERBOARD)
    assert w is not None
    state = replay_witness(g, [])
    edges = [state.n_edges]
    for mv in w:
        state = replay_witness(state, [mv])
        edges.append(state.n_edges)
    assert all(a >= b for a, b in zip(edges, edges[1:]))


def test_cc_family_genus_monotone_empirically():
    # observed at desk scale for the checkerboard family (not a stated law,
    # unlike the eulerian-family version)
    from ribbonminor import verify_lemma
    from ribbonminor.verify import EnumerationSpec

    report = verify_lemma("genus-cc", EnumerationSpec(3, 4, True))
    assert report.passed, report.counterexamples()


def test_containment_duality_transport(sweep3):
    from ribbonminor import geometric_dual

    for g in sweep3:
        star = geometric_dual(g)
        for h in sweep3:
            lhs = contains_minor(g, h, MinorFamily.CHECKERBOARD)
            rhs = contains_minor(star, geometric_dual(h), MinorFamily.BIPARTITE)
            assert lhs == rhs, (g, h)


# -- excluded-minor predicates -------------------------------------------------------


def test_cc_predicates_examples():
    cat = target_catalog()
    assert not cc_by_excluded_minors(cat["single_edge"])
    assert not cc_by_excluded_eulerian_minors(cat["single_edge"])
    assert cc_by_excluded_minors(P("(e+ e+)"))
    assert cc_by_excluded_eulerian_minors(P("(e+ e+)"))
    b3e = P("(a+ b+ a+ b+)")
    assert not cc_by_excluded_minors(b3e)
    assert not cc_by_excluded_eulerian_minors(b3e)


def test_bipartite_predicates_examples():
    single = P("(a+)(a+)")
    assert bipartite_by_excluded_minors(single)
    assert bipartite_by_join_minors(single)
    assert bipartite_by_even_face_minors(single)
    loop = P("(e+ e+)")
    assert not bipartite_by_excluded_minors(loop)
    assert not bipartite_by_join_minors(loop)
    assert not bipartite_by_even_face_minors(loop)
    triangle = P("(a+ c+)(a+ b+)(b+ c+)")
    assert not bipartite_by_excluded_minors(triangle)
    assert not bipartite_by_join_minors(triangle)
    assert not bipartite_by_even_face_minors(triangle)


def test_plane_predicates_examples():
    cat = target_catalog()
    assert not plane_cc_by_excluded_minors(cat["triple_interleaved_loops"])
    assert not plane_cc_by_excluded_minors(cat["twisted_interleaved_loops"], "eulerian")
    assert plane_cc_by_excluded_minors(P("(e+ e+)"))
    assert plane_bipartite_by_excluded_minors(P("(a+)(a+)"))
    with pytest.raises(ArpError):
        plane_cc_by_excluded_minors(P("(e+ e+)"), "join")


@pytest.mark.parametrize(
    "predicate, allowed",
    [
        (plane_cc_by_excluded_minors, "'cc' or 'eulerian'"),
        (plane_bipartite_by_excluded_minors, "'bipartite' or 'even-face'"),
        (cc_plane_by_excluded_minors, "'cc' or 'eulerian'"),
        (bipartite_plane_by_excluded_minors, "'bipartite' or 'even-face'"),
    ],
)
def test_family_taking_predicates_name_allowed_families(predicate, allowed):
    for family in ("join", "bipartite" if "cc" in allowed else "cc"):
        with pytest.raises(ArpError, match=f"^family must be {allowed}$"):
            predicate(P("(e+ e+)"), family)


def test_combined_predicates_match_conjunction_spot():
    from ribbonminor import is_bipartite, is_checkerboard_colourable, is_plane

    for text in ("(e+ e+)", "(e+ e-)", "(a+ b+ a+ b+)", "(a+ a+ b+ b+)", "(a+)(a+)"):
        g = P(text)
        want_cc = is_checkerboard_colourable(g) and is_plane(g)
        assert cc_plane_by_excluded_minors(g, "cc") == want_cc, g
        assert cc_plane_by_excluded_minors(g, "eulerian") == want_cc, g
        want_bip = is_bipartite(g) and is_plane(g)
        assert bipartite_plane_by_excluded_minors(g, "bipartite") == want_bip, g
        assert bipartite_plane_by_excluded_minors(g, "even-face") == want_bip, g


# -- target catalog ---------------------------------------------------------------


def test_target_catalog_pinned_values():
    cat = target_catalog()
    assert cat["orientable_loop"].to_text() == "(e+ e+)"
    assert cat["nonorientable_loop"].to_text() == "(e+ e-)"
    assert cat["single_edge"].to_text() == "(e+)(e+)"
    assert euler_genus(cat["triple_interleaved_loops"]) == 2
    assert euler_genus(cat["twisted_interleaved_loops"]) == 1
    assert cat["triple_interleaved_loops_dual"].n_vertices == 2


def test_catalog_validation_rejects_wrong_catalog():
    from ribbonminor.minor_search import _validate_catalog

    bad = dict(target_catalog())
    bad["twisted_interleaved_loops"] = P("(a+ b+ a+ b+)")  # wrong: not cc, genus 2
    with pytest.raises(RuntimeError, match="catalog invariant"):
        _validate_catalog(bad)


def test_family_parse_aliases():
    assert MinorFamily.parse("checkerboard") is MinorFamily.CHECKERBOARD
    assert MinorFamily.parse("bipartite-join") is MinorFamily.BIPARTITE_JOIN
    with pytest.raises(ArpError):
        MinorFamily.parse("nonsense")
