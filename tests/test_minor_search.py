import hashlib
import os
import sys

import pytest

from ribbonminor import (
    ArpError,
    MinorFamily,
    MinorMove,
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
    trace_boundaries,
    underlying_graph,
)
from ribbonminor import ArrowPresentation, duality, minor_search
from ribbonminor.verify import EnumerationSpec, enumerate_presentations
from oracles import (
    applicable_moves_by_gates,
    assert_move_sequence,
    capped_minor_search,
    nx_same_underlying_graph,
    reach_witness,
    replay_by_oracle_routes,
)

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
            first = tuple(applicable_moves(g, fam))
            assert first == tuple(applicable_moves(g, fam))
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
                assert assert_move_sequence(applicable_moves(h, fam)) == applicable_moves_by_gates(h, fam), (h, fam)
    # the disconnected classes pin where component deletions fall among
    # the other moves when two or more components carry edges
    disconnected = enumerate_presentations(EnumerationSpec(3, 4, False))
    carrying = [sum(any(g.circles[c] for c in comp) for comp in underlying_graph(g).components())
                for g in disconnected]
    assert (len(disconnected), sum(k > 1 for k in carrying)) == (349, 95)
    for g in disconnected:
        for fam in MinorFamily:
            assert assert_move_sequence(applicable_moves(g, fam)) == applicable_moves_by_gates(g, fam), (g, fam)


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


def test_even_pairs_list_what_the_cut_rule_accepts():
    # every gap pair of a circle with m arrows, and every pair of vertex
    # line segments of a walk with m edge line segments (length 2m, or 1);
    # and the closed forms that count them and find the j-th
    from ribbonminor.minor_ops import _cut, _not_both_odd

    for m in range(65):
        pairs = [(a, b) for a in range(max(m, 1)) for b in range(a, max(m, 1))]
        listed = list(minor_search._even_pairs(m))
        assert listed == [(a, b) for a, b in pairs if _not_both_odd(_cut(2 * m, 2 * a, 2 * b))], m
        assert listed == [(a, b) for a, b in pairs if _not_both_odd(_cut(2 * m or 1, 2 * a, 2 * b))], m
        assert minor_search._even_count(m) == len(listed), m
        assert [minor_search._even_pair(m, j) for j in range(len(listed))] == listed, m


def _move_list_pins():
    with open(os.path.join(os.path.dirname(__file__), "moves_e4.sha256"), encoding="ascii") as fh:
        pairs = [line.split() for line in fh]
    return {name.removeprefix("moves-").removesuffix(".out"): digest for digest, name in pairs}


def test_move_lists_match_four_edge_pins():
    # every move of every family on the 591 classes of at most 4 edges, as
    # text, recorded when the lists were tuples built in full
    classes = enumerate_presentations(EnumerationSpec(4))
    assert len(classes) == 591
    pins = _move_list_pins()
    assert list(pins) == [fam.value for fam in MinorFamily]
    for fam in MinorFamily:
        text = "\n".join(f"{g.to_text()}: " + "; ".join(map(str, assert_move_sequence(applicable_moves(g, fam))))
                         for g in classes)
        assert hashlib.sha256(text.encode()).hexdigest() == pins[fam.value], fam


def test_move_lists_build_splits_only_where_read(monkeypatch):
    # 32 interleaved loops on one circle of 64 arrows: 1,056 vertex splits
    # in the Eulerian and cc lists, face splits over its walks in the others
    built = []

    def counting(kind, params):
        if kind.startswith("split"):
            built.append(params)
        return MinorMove(kind, params)

    monkeypatch.setattr(minor_search, "MinorMove", counting)
    labels = [f"e{i}+" for i in range(32)]
    bouquet = P("(" + " ".join(labels + labels) + ")")
    for fam in MinorFamily:
        built.clear()
        moves = applicable_moves(bouquet, fam)
        assert len(moves) > 0 and built == [], fam
        next(iter(moves))
        assert len(built) <= 1, fam
        built.clear()
        assert moves[-1] == moves[len(moves) - 1], fam
        assert len(built) == (0 if fam is MinorFamily.BIPARTITE_JOIN else 2), fam
    built.clear()
    splits =[mv for mv in applicable_moves(bouquet, MinorFamily.EULERIAN) if mv.kind == "split-vertex"]
    assert len(splits) == len(built) == 1056


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


def test_join_witness_keys_each_state_once(monkeypatch):
    # a join-family state key is a brute-force graph key, so the search
    # keys a state once, when it is reached, and not again when it is
    # expanded: each expanded state is keyed at most as often as it was
    # reached (the start once, before the search begins, and every other
    # state each time a successor stream yields it)
    from collections import Counter

    from ribbonminor.arrow_core import UnderlyingGraph

    fam = MinorFamily.BIPARTITE_JOIN
    g, h = P("(a+ e+)(a+ b+)(b+ c+)(c+ d+)(d+ e+)"), P("(e+ e-)")
    keyed, reached, expanded = Counter(), Counter(), []
    key, successors = UnderlyingGraph.canonical_key, minor_search._successors

    def recording(s, f, below, strays):
        expanded.append(s)
        for mv, nxt in successors(s, f, below, strays):
            reached.update([underlying_graph(nxt)])
            yield mv, nxt

    monkeypatch.setattr(UnderlyingGraph, "canonical_key", lambda ug: keyed.update([ug]) or key(ug))
    monkeypatch.setattr(minor_search, "_successors", recording)
    moves = minor_witness(g, h, fam)
    assert _same_state(replay_witness(g, moves), h, fam)
    reached.update([underlying_graph(expanded[0])])
    assert len(expanded) > 3
    for s in expanded:
        assert keyed[underlying_graph(s)] <= reached[underlying_graph(s)], s


def test_pruned_successors_are_never_canonicalised(monkeypatch):
    # both searches give canonical_presentation only a move result that
    # keeps at least as many edges as some target and, when it keeps its
    # parent's edge count, does not take the isolated-circle count further
    # from the targets'
    from ribbonminor.minor_ops import MinorMove

    iso = minor_search._isolated_count
    monkeypatch.setattr(minor_search, "_contains_cache", {})
    parents, given = {}, []
    apply, canon = MinorMove.apply, minor_search.canonical_presentation

    def recording_apply(mv, g):
        out = apply(mv, g)
        parents[id(out)] = (out, g)
        return out

    monkeypatch.setattr(MinorMove, "apply", recording_apply)
    monkeypatch.setattr(minor_search, "canonical_presentation", lambda g: given.append(g) or canon(g))
    cat = target_catalog()
    cases = [
        (P("(a+ b+ c+ d+ a+ b+ c+ d+)"), [cat["triple_interleaved_loops"]], MinorFamily.CHECKERBOARD),
        (P("(a+ b+)(a+ c+)(b+ d+)(c+ d+)"),
         [cat["single_edge"], cat["twisted_interleaved_loops"], cat["triple_interleaved_loops"]],
         MinorFamily.EULERIAN),
    ]
    for g, targets, fam in cases:
        parents.clear()
        given.clear()
        if len(targets) == 1:
            assert minor_witness(g, targets[0], fam) is not None
        else:
            assert not minor_search._reaches_any(g, fam, targets)
        emin, (iso_t,) = min(t.n_edges for t in targets), {iso(t) for t in targets}

        def pruned(parent, out):
            return out.n_edges < emin or (out.n_edges == parent.n_edges
                                          and abs(iso(out) - iso_t) > abs(iso(parent) - iso_t))

        dropped = [out for out, parent in parents.values() if pruned(parent, out)]
        assert any(out.n_edges < emin for out in dropped)
        assert any(out.n_edges >= emin for out in dropped)
        for x in given:
            out, parent = parents.get(id(x), (None, None))
            if out is x:
                assert not pruned(parent, x), (parent, x)


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


def test_state_key_is_the_representative(sweep2):
    # outside the join family a search state is known by its class's one
    # representative instance, whichever member of the class it is given
    for fam in (MinorFamily.EULERIAN, MinorFamily.EVEN_FACE, MinorFamily.CHECKERBOARD, MinorFamily.BIPARTITE):
        for g in sweep2:
            member = ArrowPresentation(g.circles[::-1])
            rep = minor_search.canonical_presentation(g)
            assert minor_search._state_key(member, fam) is rep, (g, fam)
            assert minor_search._state_key(rep, fam) is rep


def test_failed_search_is_remembered_per_state(monkeypatch):
    # an orientable ribbon graph has no non-orientable minor
    g, h = P("(a+ b+ a+ b+)(c+ c+)"), target_catalog()["nonorientable_loop"]
    fam = MinorFamily.CHECKERBOARD
    assert not contains_minor(g, h, fam)
    reached = P("(a+ b+ a+ b+)")  # g with the component of c deleted
    key = (fam, minor_search._state_key(reached, fam), frozenset([minor_search._state_key(h, fam)]))
    assert minor_search._contains_cache[key] is False

    def no_moves(*args):
        raise AssertionError("a state the failed pass settled was expanded again")

    monkeypatch.setattr(minor_search, "applicable_moves", no_moves)
    assert not contains_minor(reached, h, fam)


def test_start_below_target_is_not_expanded(monkeypatch):
    # fewer edges than the target, so no move of any family can reach it,
    # and the search lists no move of g
    def no_moves(*args):
        raise AssertionError("a start below the target was expanded")

    monkeypatch.setattr(minor_search, "applicable_moves", no_moves)
    g, h = P("(a+ b+ c+ d+ e+ a+ b+ c+ d+ e+)"), P("(a+ b+ c+ d+ e+ f+ a+ b+ c+ d+ e+ f+)")
    for fam in MinorFamily:
        assert minor_witness(g, h, fam) is None


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


def test_catalog_is_read_only():
    # every caller shares the cached catalog, so no caller may change it
    loop = P("(e+ e+)")
    assert cc_by_excluded_minors(loop)
    with pytest.raises(TypeError):
        target_catalog()["nonorientable_loop"] = loop
    with pytest.raises(TypeError):
        del target_catalog()["single_edge"]
    assert target_catalog()["nonorientable_loop"].to_text() == "(e+ e-)"
    assert cc_by_excluded_minors(loop)
    assert not cc_by_excluded_minors(P("(e+ e-)"))


def test_catalog_validation_rejects_wrong_catalog():
    from ribbonminor.minor_search import _validate_catalog

    # each target must lie in its row's domain and outside its class; each
    # case names one reason the error must give (the first also has the
    # wrong genus)
    wrong = [
        ("twisted_interleaved_loops", "(a+ b+ a+ b+)", "twisted_interleaved_loops outside the domain of plane cc"),
        ("double_interleaved_loops", "(a+)(a+)", "double_interleaved_loops in bipartite"),
        ("triple_interleaved_loops_dual", "(a+)(a+)", "triple_interleaved_loops_dual in plane bipartite"),
        ("twisted_interleaved_loops_dual", "(a+ a+)(b+)(b+)",
         "twisted_interleaved_loops_dual outside the domain of plane bipartite"),
    ]
    _validate_catalog(dict(target_catalog()))
    for name, text, reason in wrong:
        with pytest.raises(RuntimeError, match="^target catalog invariant violated: ") as err:
            _validate_catalog({**target_catalog(), name: P(text)})
        assert reason in str(err.value).split(": ", 1)[1].split("; "), name


def test_family_parse_aliases():
    assert MinorFamily.parse("checkerboard") is MinorFamily.CHECKERBOARD
    assert MinorFamily.parse("bipartite-join") is MinorFamily.BIPARTITE_JOIN
    with pytest.raises(ArpError):
        MinorFamily.parse("nonsense")


_FAMILY_NAMES = {
    MinorFamily.EULERIAN: ("eulerian", "Eulerian"),
    MinorFamily.EVEN_FACE: ("even-face", "evenface", "EvenFace"),
    MinorFamily.CHECKERBOARD: ("cc", "checkerboard", "CC"),
    MinorFamily.BIPARTITE: ("bipartite", "BIPARTITE"),
    MinorFamily.BIPARTITE_JOIN: ("join", "bipartite-join", "Bipartite-Join"),
}


def test_every_family_name_is_accepted_everywhere():
    g, h = P("(a+ b+ a- b+)(c+ c+)"), P("(e+ e-)")
    for fam, names in _FAMILY_NAMES.items():
        for name in names:
            assert MinorFamily(name) is MinorFamily.parse(name) is fam, name
            assert tuple(applicable_moves(g, name)) == tuple(applicable_moves(g, fam)), name
            assert contains_minor(g, h, name) == contains_minor(g, h, fam), name
            assert minor_witness(g, h, name) == minor_witness(g, h, fam), name


@pytest.mark.parametrize("call", [
    lambda name: MinorFamily(name),
    lambda name: applicable_moves(P("(e+ e+)"), name),
    lambda name: contains_minor(P("(e+ e+)"), P("(e+ e+)"), name),
    lambda name: minor_witness(P("(e+ e+)"), P("(e+ e+)"), name),
])
def test_unknown_family_is_an_arp_error(call):
    for name in ("nonsense", "even_face", "", 3):
        with pytest.raises(ArpError, match="^unknown minor family "):
            call(name)


# -- reach pass -------------------------------------------------------------------


def _lists_passed(run):
    """The (family, targets) pairs the reach pass is given while run() runs."""
    seen = []
    orig = minor_search._reaches_any

    def recording(g, family, targets):
        seen.append((family, tuple(targets)))
        return orig(g, family, targets)

    minor_search._reaches_any = recording
    try:
        run()
    finally:
        minor_search._reaches_any = orig
    return seen


@pytest.fixture(scope="module")
def reach_lists():
    """Every (family, target list) pair the excluded-minor checks of verify
    pass to the reach pass, recorded by running them at two edges."""
    from ribbonminor.verify import CHECKS, verify_theorem

    seen = _lists_passed(lambda: [verify_theorem(c, EnumerationSpec(2)) for c in CHECKS])
    return sorted(set(seen), key=lambda pair: (pair[0].value, [t.to_text() for t in pair[1]]))


def test_reach_lists_cover_every_ribbon_check(reach_lists):
    # T1-T5 and C1-C4 one list each; T6 and T7 one list in two families each
    assert len(reach_lists) == 13
    assert {fam for fam, _ in reach_lists} == set(MinorFamily)


# sha256 of the witness lines below, recorded before the split generators
# listed their pairs in closed form: move order decides which shortest
# witness the breadth-first search returns, so any change to it shows here
_WITNESS_PIN = "5b829160a2d2c66fbe2e85cf385627feed89877483b3abac89bda9c9d2d00e4b"


def test_shortest_witnesses_are_pinned(sweep3, reach_lists):
    # each connected class of at most 3 edges against every target its
    # family's lists name: 1,540 queries, 510 of them with a witness of at
    # least one move, 44 of those with a face split and 44 a vertex split
    cat = {t.to_text(): t for t in target_catalog().values()}
    lines, kinds = [], []
    for fam in MinorFamily:
        for t in sorted({t.to_text() for f, ts in reach_lists if f is fam for t in ts}):
            for g in sweep3:
                w = minor_witness(g, cat[t], fam)
                kinds.append({mv.kind for mv in w} if w else None)
                text = "none" if w is None else "; ".join(map(str, w))
                lines.append(f"{fam.value} {t} {g.to_text()}: {text}")
    assert len(lines) == 1540
    found = [k for k in kinds if k]
    assert (len(found), sum("split-face" in k for k in found), sum("split-vertex" in k for k in found)) == (510, 44, 44)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _WITNESS_PIN


def _assert_reach_pass_matches_search(starts, lists):
    """The reach pass answers what the capped reference search does, which
    memoises successors of its own across queries;
    test_search_matches_capped_reference_on_catalog_targets ties that
    reference to minor_witness."""
    for fam, targets in lists:
        for g in starts:
            want = any(capped_minor_search(g, t, fam, want_witness=False) for t in targets)
            assert minor_search._reaches_any(g, fam, targets) == want, (g, fam, targets)


@pytest.mark.parametrize("connected_only", [True, False])
def test_reach_pass_matches_search(reach_lists, connected_only):
    starts = enumerate_presentations(EnumerationSpec(3, 4, connected_only))
    assert len(starts) == (77 if connected_only else 349)
    _assert_reach_pass_matches_search((*starts, *target_catalog().values()), reach_lists)


def test_reach_pass_matches_search_on_isolated_targets():
    # single targets of 0-2 edges with one or two isolated circles, where
    # the pass keeps the moves that bring the isolated-circle count towards
    # the target's; a sweep over every such class of at most 2 edges agrees
    # too, but takes about 25 s
    targets = [P(t) for t in ("()()", "()(a+)(a+)", "()()(a+ a-)", "()(a+ b+ a- b-)", "()()(a+ a+ b+ b+)")]
    starts = enumerate_presentations(EnumerationSpec(3, 4, False))
    _assert_reach_pass_matches_search(starts, [(fam, [t]) for fam in MinorFamily for t in targets])


@pytest.mark.parametrize("check_id", ["T1", "T2", "T3", "T4", "T5"])
def test_reach_pass_witnesses_replay_through_oracle_routes(sweep3, check_id):
    from ribbonminor.verify import CHECKS

    [(fam, targets)] = _lists_passed(lambda: CHECKS[check_id][2](P("(e+ e+)")))
    same = nx_same_underlying_graph if fam is MinorFamily.BIPARTITE_JOIN else is_equivalent
    non_members = [g for g in sweep3 if minor_search._reaches_any(g, fam, targets)]
    assert len(non_members) > 40
    for g in non_members:
        moves = reach_witness(g, fam, targets)
        end = replay_by_oracle_routes(g, moves, fam)
        assert any(same(end, t) for t in targets), (g, moves)


def test_kept_moves_lower_the_termination_measure(sweep3):
    # the order the _reaches_any docstring proves, for targets with I_t = 0,
    # 1 or 2 isolated circles and D = |I - I_t|: (E, D, -V) for the
    # vertex-splitting families, (E, D, -F) for the face-splitting ones and
    # (E, D, V) for the join family
    from ribbonminor.minor_search import _isolated_count

    def measure(s, fam, iso_t):
        if fam in (MinorFamily.EULERIAN, MinorFamily.CHECKERBOARD):
            last = -s.n_vertices
        elif fam is MinorFamily.BIPARTITE_JOIN:
            last = s.n_vertices
        else:
            last = -len(trace_boundaries(s))
        return s.n_edges, abs(_isolated_count(s) - iso_t), last

    for g in sweep3:
        for h in _with_isolated_circles(g):
            for fam in MinorFamily:
                for mv in applicable_moves(h, fam):
                    nxt = mv.apply(h)
                    for iso_t in (0, 1, 2):
                        before, after = measure(h, fam, iso_t), measure(nxt, fam, iso_t)
                        if nxt.n_edges == h.n_edges and after[1] > before[1]:
                            continue
                        assert after < before, (h, fam, mv, iso_t)


class _MoveTo:
    """A fake move to a fixed presentation."""

    def __init__(self, to):
        self.to = to

    def apply(self, g):
        return self.to

    def __str__(self):
        return f"move-to {self.to}"


@pytest.mark.parametrize("cycle", [
    ["(a+ b+ c+ a+ b+ c+)"],
    ["(a+ b+ c+ a+ b+ c+)", "(a+ b+ c+)(a+ b+ c+)"],
])
def test_reach_pass_raises_on_a_cycle(monkeypatch, cycle):
    fam, targets = MinorFamily.CHECKERBOARD, [P("(a+ b+ c+ a- b- c-)")]
    states = [minor_search.canonical_presentation(P(text)) for text in cycle]
    nxt = {s: states[(i + 1) % len(states)] for i, s in enumerate(states)}
    monkeypatch.setattr(minor_search, "applicable_moves", lambda g, family: (_MoveTo(nxt[g]),))
    # a fresh cache: no answer another test recorded settles these states
    monkeypatch.setattr(minor_search, "_contains_cache", {})
    with pytest.raises(RuntimeError, match="met .* again"):
        minor_search._reaches_any(states[0], fam, targets)
    assert minor_search._contains_cache == {}


@pytest.mark.parametrize("targets", [["(e+ e+)", "()(e+ e-)"], ["()(e+ e+)", "()()"], []])
def test_reach_pass_needs_one_isolated_count(targets):
    # the pruning rule is proved for one target count of isolated circles
    with pytest.raises(RuntimeError, match="share one isolated-circle count"):
        minor_search._reaches_any(P("(a+ a+)(b+ b-)"), MinorFamily.CHECKERBOARD, [P(t) for t in targets])


def test_reach_pass_on_a_long_path_needs_no_recursion():
    # 400 circles in a path, 399 edges: the pass contracts its way down to
    # the single edge on a stack 398 states deep
    n = 400
    path = P("(e0+)" + "".join(f"(e{i}+ e{i + 1}+)" for i in range(n - 2)) + f"(e{n - 2}+)")
    assert not cc_by_excluded_eulerian_minors(path)
