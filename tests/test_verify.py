import hashlib
import json
import os
import subprocess
import sys

import pytest

import ribbonminor
from ribbonminor import (
    ArpError,
    ArrowPresentation,
    EnumerationSpec,
    MinorFamily,
    applicable_moves,
    canonicalize,
    enumerate_presentations,
    geometric_dual,
    is_bipartite,
    is_checkerboard_colourable,
    parse_arp,
    verify_lemma,
    verify_theorem,
)
import ribbonminor.verify as verify_module
from ribbonminor import arrow_core
from ribbonminor.arrow_core import _automorphisms, _base_canonical
from ribbonminor.verify import (
    CHECKS,
    LEMMAS,
    _augmentations,
    _labelled,
    _move_check,
    _raises_genus,
    _same_classes,
    _transport_check,
)
from oracles import augmentations, brute_equivalent, dedup_enumerate

P = parse_arp


# -- enumeration -------------------------------------------------------------------


def test_enumerate_one_edge_exactly_three_classes():
    got = enumerate_presentations(EnumerationSpec(1, 2, True))
    texts = [g.to_text() for g in got]
    assert texts == ["(a+ a+)", "(a+ a-)", "(a+)(a+)"]


def test_enumerate_zero_edges():
    got = enumerate_presentations(EnumerationSpec(0, 1, True))
    assert [g.to_text() for g in got] == ["()"]


def test_enumerate_disconnected_includes_isolated_vertices():
    got = enumerate_presentations(EnumerationSpec(1, 3, False))
    texts = {g.to_text() for g in got}
    assert "()(a+ a+)" in texts
    assert "()()" in texts


def test_enumerate_two_edge_bouquets_match_brute_force():
    # independent generation: all sign/interleaving patterns of two loops on
    # one circle, deduplicated by the brute-force equivalence oracle
    raw = []
    for pattern in (("a", "a", "b", "b"), ("a", "b", "a", "b")):
        for smask in range(16):
            signs = [1 if smask >> i & 1 else -1 for i in range(4)]
            raw.append(ArrowPresentation([tuple(zip(pattern, signs))]))
    reps = []
    for g in raw:
        if not any(brute_equivalent(g, h) for h in reps):
            reps.append(g)
    enumerated = [
        g for g in enumerate_presentations(EnumerationSpec(2, 1, True)) if g.n_edges == 2
    ]
    assert len(enumerated) == len(reps)
    for g in enumerated:
        assert any(brute_equivalent(g, h) for h in reps)


def test_enumeration_is_deduplicated(sweep3):
    forms = [canonicalize(g) for g in sweep3]
    assert len(forms) == len(set(forms))
    assert forms == sorted(forms)


_ORACLE_SPECS = [
    (e, c, connected) for e in range(4) for c in range(1, 5) for connected in (True, False)
] + [(4, 2, True)]


@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=lambda s: "e%d-c%d-%s" % s)
def test_enumeration_matches_dedup_oracle(spec):
    got = [g.to_text() for g in enumerate_presentations(EnumerationSpec(*spec))]
    assert got == [g.to_text() for g in dedup_enumerate(EnumerationSpec(*spec))]


def test_enumeration_class_counts():
    # at most 4 circles, and the default bound of max_edges + 1 circles
    counts = [len(enumerate_presentations(EnumerationSpec(e, 4, True))) for e in range(5)]
    assert counts == [1, 3, 14, 77, 588]
    counts = [len(enumerate_presentations(EnumerationSpec(e))) for e in range(5)]
    assert counts == [1, 3, 14, 77, 591]


@pytest.mark.parametrize(
    "spec, n_classes, digest",
    [
        ((3, 4, True), 77, "95d35d6fd88971cf71783aad83d8653b2a55f26d6352328df244d8ee7a334730"),
        ((3, 4, False), 349, "b3e0b379ac6f5c6b302ed20d49812dbd25bb0eeb14f5800a7053141681856131"),
        ((4, 2, True), 446, "c1f4a7b6d4dc8c5f531421425eaf0ad01464b492f7d14173ca39b96d8484e4a2"),
        ((4, 4, True), 588, "2982d3c95b9f77414ddb03c1884e2c32450b07311294c207b22897eed27ed39e"),
        ((4, 5, True), 591, "7b72d729f6344004a5512d2f8c8d5ad1dd22b8bcd5468171b11e8c72c219b313"),
        ((4, 5, False), 3406, "a73a4d594702ebdd442e8f2366a33af175f1894edaae2a2b156e471b3beaa669"),
    ],
    ids=lambda v: "e%d-c%d-%s" % v if isinstance(v, tuple) else None,
)
def test_enumeration_pinned_class_lists(spec, n_classes, digest):
    texts = [g.to_text() for g in enumerate_presentations(EnumerationSpec(*spec))]
    assert len(texts) == n_classes
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def _rooted_at_new_edge(circles):
    """The least completion over the four roots at the arrows of ``_``
    (each read either way): the encoding of the presentation rooted at its
    new edge, equal for two augmentations of one parent exactly when an
    equivalence of the two sends one new edge to the other."""
    where = arrow_core._where(circles)
    rev = list(map(arrow_core._reversed, circles))
    least = None
    for ci, j, _ in where["_"]:
        for c, start in ((circles[ci], j), (rev[ci], len(rev[ci]) - 1 - j)):
            rows = arrow_core._complete(circles, rev, where, ci, c[start:] + c[:start], None)
            least = rows if least is None else min(least, rows)
    return tuple(map(tuple, least))


def _sign_turning(maps) -> bool:
    """Whether some map sends a pair of gaps onto itself while reading one
    of their circles reversed and the other not, so that it changes the
    pair's sign."""
    return any({perm[i], perm[j]} == {i, j} and flip[i] != flip[j]
               for perm, flip in maps for i in range(len(perm)) for j in range(i))


def test_orbit_pruned_augmentations_keep_one_per_orbit():
    # against every augmentation (the oracle): the same classes, and one
    # kept candidate for each orbit of the parent's automorphisms, which
    # is one for each encoding rooted at the new edge.  The parents are the
    # classes of at most 3 edges and the 4-edge classes with a map that
    # turns a pair's sign, which none of those has.
    parents = list(enumerate_presentations(EnumerationSpec(3)))
    turning = [g for g in enumerate_presentations(EnumerationSpec(4))
               if g.n_edges == 4 and _sign_turning(_automorphisms(g.circles))]
    assert turning and not any(_sign_turning(_automorphisms(g.circles)) for g in parents)
    for g in parents + turning:
        kept = list(_augmentations(g.circles, _automorphisms(g.circles)))
        every = list(augmentations(g.circles))
        assert set(map(_base_canonical, kept)) == set(map(_base_canonical, every)), g
        rooted = [_rooted_at_new_edge(c) for c in kept]
        assert len(set(rooted)) == len(rooted), g
        assert set(rooted) == set(map(_rooted_at_new_edge, every)), g
    # with no maps, as for the lone empty circle (the first level's
    # parent), every augmentation is kept, in the oracle's order
    assert _automorphisms(((),)) == []
    for g in enumerate_presentations(EnumerationSpec(2, 4, False)):
        assert list(_augmentations(g.circles, ())) == list(augmentations(g.circles))


@pytest.mark.parametrize("spec, calls", [
    ((3, 4), 144), ((4, 2), 1317), ((4, 5), 1695), ((3, 4, False), 144), ((4, 5, False), 1695),
])
def test_enumeration_canonicalises_one_candidate_per_orbit(monkeypatch, spec, calls):
    # the minimal encodings the enumeration computes on candidates; with
    # every augmentation kept they were 291, 2,547 and 3,315.  The
    # disconnected classes are assembled from the connected ones'
    # encodings, so they take no more (augmented with no maps from k empty
    # circles, they took 2,110 and 30,546)
    counted = []

    def base_canonical(circles):
        counted.append(circles)
        return _base_canonical(circles)

    monkeypatch.setattr(verify_module, "_base_canonical", base_canonical)
    enumerate_presentations.__wrapped__(EnumerationSpec(*spec))
    assert len(counted) == calls


_MEMO_GROWTH = """
import json
from ribbonminor import arrow_core, EnumerationSpec, enumerate_presentations
sizes = lambda: (len(arrow_core._canon_cache), arrow_core.underlying_graph.cache_info().currsize)
before = sizes()
classes = enumerate_presentations.__wrapped__(EnumerationSpec(3, 4))
after = sizes()
print(json.dumps([len(classes), after[0] - before[0], after[1] - before[1]]))
"""


def _run_fresh(source):
    """The JSON that ``source`` prints, run in a fresh interpreter, so that
    no earlier test has filled the memo tables."""
    src = os.path.dirname(os.path.dirname(ribbonminor.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, check=True,
        timeout=300,
    )
    return json.loads(out.stdout)


def test_enumeration_memo_growth_is_per_class():
    n_classes, canon_growth, graph_growth = _run_fresh(_MEMO_GROWTH)
    assert n_classes == 77
    assert canon_growth <= 2 * n_classes
    assert graph_growth <= 2 * n_classes


def test_enumeration_spec_default_circle_bound():
    # a connected class of E edges has at most E + 1 circles
    assert EnumerationSpec(4) == EnumerationSpec(4, 5)
    assert EnumerationSpec() == EnumerationSpec(3, 4, True)
    assert EnumerationSpec(0).max_circles == 1
    assert EnumerationSpec(4, 4).max_circles == 4
    for e in range(4):
        default = enumerate_presentations(EnumerationSpec(e))
        assert default == enumerate_presentations(EnumerationSpec(e, e + 2))


def test_enumeration_spec_validation():
    with pytest.raises(ArpError):
        EnumerationSpec(5, 4, True)
    with pytest.raises(ArpError):
        EnumerationSpec(2, 0, True)


@pytest.mark.parametrize("args, field", [
    ((3, 2.5), "max_circles"),
    ((2.5,), "max_edges"),
    (("3",), "max_edges"),
    ((True,), "max_edges"),
    ((3, False), "max_circles"),
    ((3, "4"), "max_circles"),
    ((None,), "max_edges"),
])
def test_enumeration_spec_bounds_must_be_integers(args, field):
    with pytest.raises(ArpError, match=f"^{field} must be an integer"):
        EnumerationSpec(*args)


@pytest.mark.parametrize("connected_only", [[0], 1, None])
def test_enumeration_spec_connected_only_must_be_a_bool(connected_only):
    # an int is rejected too, as the bounds reject a bool
    with pytest.raises(ArpError, match="^connected_only must be True or False"):
        EnumerationSpec(2, None, connected_only)


# -- theorem checks ----------------------------------------------------------------


def test_verify_theorem_t1_at_one_edge():
    report = verify_theorem("T1", EnumerationSpec(1, 2, True))
    assert report.passed
    assert len(report.rows) == 3
    cc = {r.subject for r in report.rows if "predicate=true" in r.detail}
    non_cc = {r.subject for r in report.rows if "predicate=false" in r.detail}
    assert cc == {"(a+ a+)"}
    assert non_cc == {"(a+ a-)", "(a+)(a+)"}


def test_verify_theorem_t2_small():
    report = verify_theorem("T2", EnumerationSpec(2, 4, True))
    assert report.passed
    assert report.counterexamples() == ()


def test_verify_theorem_t5_small():
    assert verify_theorem("T5", EnumerationSpec(2, 4, True)).passed


def test_verify_theorem_unknown_id():
    for check_id in ("T9", ["T1"], {}):
        with pytest.raises(ArpError, match="unknown check id"):
            verify_theorem(check_id)


def test_verify_theorem_restricts_domain():
    report = verify_theorem("T6", EnumerationSpec(2, 4, True))
    sweep = enumerate_presentations(EnumerationSpec(2, 4, True))
    assert len(report.rows) == sum(1 for g in sweep if is_checkerboard_colourable(g))


@pytest.mark.parametrize("check_id, name, families", [
    ("T6", "plane_cc_by_excluded_minors", ("cc", "eulerian")),
    ("T7", "plane_bipartite_by_excluded_minors", ("bipartite", "even-face")),
])
@pytest.mark.parametrize("wrong", [0, 1])
def test_two_family_checks_fail_a_row_when_either_family_disagrees(monkeypatch, check_id, name, families, wrong):
    # one family made to give the wrong answer at the one entry point that
    # the public predicate and the check both call: every row fails, the
    # non-plane ones too, where the other family already finds a minor
    from ribbonminor import minor_search, verify

    right = minor_search._excludes

    def flipped(g, cls, family):
        return right(g, cls, family) != (MinorFamily(family) is MinorFamily(families[wrong]))

    for module in (minor_search, verify):
        monkeypatch.setattr(module, "_excludes", flipped)
    loop = P("(e+ e+)")
    public = getattr(minor_search, name)
    assert public(loop, families[wrong]) != public(loop, families[1 - wrong])
    report = verify_theorem(check_id, EnumerationSpec(3))
    details = {r.detail for r in report.rows}
    assert details == {"predicate=true excluded_minor=none", "predicate=false excluded_minor=none"}
    assert report.n_failures == len(report.rows)


def test_class_membership_acts_one_component_at_a_time():
    # each disconnected class of at most 3 edges, isolated circles counted
    # as components: the class predicates and every excluded-minor
    # predicate of CHECKS hold of g exactly when they hold of each of its
    # components, and the Euler genus adds up over them
    from ribbonminor import euler_genus, is_plane, underlying_graph

    predicates = [is_checkerboard_colourable, is_bipartite, is_plane,
                  *(excluded for _, _, excluded in CHECKS.values())]
    checked = 0
    for g in enumerate_presentations(EnumerationSpec(3, 4, False)):
        comps = underlying_graph(g).components()
        if len(comps) < 2:
            continue
        parts = [ArrowPresentation(tuple(g.circles[i] for i in sorted(c))) for c in comps]
        assert euler_genus(g) == sum(map(euler_genus, parts)), g
        for pred in predicates:
            assert pred(g) == all(map(pred, parts)), (g, pred)
        checked += 1
    assert checked == 271


# -- lemma checks ------------------------------------------------------------------


def test_verify_lemma_cc_closure_small():
    report = verify_lemma("cc-closure", EnumerationSpec(2, 4, True))
    assert report.passed
    assert all("violations=0" in r.detail for r in report.rows)


def test_verify_lemma_genus_small():
    assert verify_lemma("genus-contract-delete", EnumerationSpec(2, 4, True)).passed
    assert verify_lemma("genus-eulerian", EnumerationSpec(2, 4, True)).passed
    assert verify_lemma("genus-cc", EnumerationSpec(2, 4, True)).passed


def test_verify_lemma_dual_transport_small():
    assert verify_lemma("dual-transport-eulerian", EnumerationSpec(2, 4, True)).passed
    assert verify_lemma("dual-transport-cc", EnumerationSpec(2, 4, True)).passed


def test_laws_no_lemma_id_checks():
    # over the 591 classes of at most 4 edges: every join-family move keeps
    # a bipartite class bipartite, and no even-face or bipartite move raises
    # the Euler genus
    for g in enumerate_presentations(EnumerationSpec(4)):
        if is_bipartite(g):
            moves = applicable_moves(g, MinorFamily.BIPARTITE_JOIN)
            assert _move_check(g, moves, lambda _, h: not is_bipartite(h))[1] == 0, g
        for fam in (MinorFamily.EVEN_FACE, MinorFamily.BIPARTITE):
            assert _move_check(g, applicable_moves(g, fam), _raises_genus)[1] == 0, (g, fam)


def test_move_check_applies_each_distinct_move_once():
    # cc-closure lists the Eulerian moves again after the cc ones
    g = P("(a+ b+ a+ b-)(c+ c-)")
    moves = (*applicable_moves(g, MinorFamily.CHECKERBOARD), *applicable_moves(g, MinorFamily.EULERIAN))
    results = []
    assert _move_check(g, moves, lambda _, h: results.append(h) or True) == (len(moves), len(moves))
    assert len(results) == len(set(moves)) < len(moves)


_LEMMA_MEMO_GROWTH = """
import json
from ribbonminor import LEMMAS, EnumerationSpec, arrow_core, enumerate_presentations, verify_lemma
tables = (arrow_core.trace_boundaries, arrow_core.underlying_graph, arrow_core.euler_genus)
sizes = lambda: [len(arrow_core._canon_cache), *(t.cache_info().currsize for t in tables)]
n_classes = len(enumerate_presentations(EnumerationSpec(3)))
before = sizes()
for lemma_id in LEMMAS:
    verify_lemma(lemma_id, EnumerationSpec(3))
print(json.dumps([n_classes, *(a - b for a, b in zip(sizes(), before))]))
"""


def test_lemma_checks_add_no_memo_entries_per_move_result():
    # the 7 lemma ids read their move results through uncached kernels:
    # after enumeration they add no canonical entry, and to each lru table
    # at most the class representative and its geometric dual
    n_classes, canon_growth, *lru_growth = _run_fresh(_LEMMA_MEMO_GROWTH)
    assert n_classes == 77
    assert canon_growth == 0
    assert all(growth <= 2 * n_classes for growth in lru_growth), lru_growth


_DUAL_PAIRS = [(MinorFamily.EULERIAN, MinorFamily.EVEN_FACE), (MinorFamily.CHECKERBOARD, MinorFamily.BIPARTITE)]


@pytest.mark.parametrize("connected_only", [True, False])
def test_transport_check_matches_canonical_sets(connected_only):
    for g in enumerate_presentations(EnumerationSpec(3, connected_only=connected_only)):
        star = geometric_dual(g)
        for family, dual_family in _DUAL_PAIRS:
            direct = {canonicalize(geometric_dual(mv.apply(g))) for mv in applicable_moves(g, family)}
            transported = {canonicalize(mv.apply(star)) for mv in applicable_moves(star, dual_family)}
            assert _transport_check(g, family, dual_family) == (1, int(direct != transported)), g


def test_transport_comparison_falls_back_to_classes():
    # flipping edge a's arrows keeps the class but not the labelled form,
    # so only the minimal encodings can tell these sides apart or not
    g, flipped, other = P("(a+ b+)(a+ b+)"), P("(a- b+)(a- b+)"), P("(a+ b+)(a+ b-)")
    assert _labelled(g.circles) != _labelled(flipped.circles)
    assert _same_classes([g.circles, other.circles], [other.circles, flipped.circles])
    assert not _same_classes([g.circles], [other.circles])


def test_verify_lemma_unknown_id():
    for lemma_id in ("no-such-lemma", ["T1"], {}):
        with pytest.raises(ArpError, match="unknown lemma id"):
            verify_lemma(lemma_id)


# -- reports ------------------------------------------------------------------------


def test_report_determinism():
    a = verify_theorem("T2", EnumerationSpec(1, 2, True)).to_text()
    b = verify_theorem("T2", EnumerationSpec(1, 2, True)).to_text()
    assert a == b
    assert a.endswith("-> PASS\n")
    lines = a.strip().splitlines()
    assert lines[-1].startswith("# T2: checked=3 failures=0")
    for line in lines[:-1]:
        assert line.split("\t")[0] == "T2"


def _pins(filename):
    """The report digests recorded in tests/<filename>, by check id."""
    with open(os.path.join(os.path.dirname(__file__), filename), encoding="ascii") as fh:
        pairs = [line.split() for line in fh]
    return {name.removeprefix("verify-").removesuffix(".out"): digest for digest, name in pairs}


def test_four_edge_pins_name_every_check():
    pins = _pins("verify_e4.sha256")
    assert list(pins) == [*CHECKS, *LEMMAS]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in pins.values())


def test_disconnected_three_edge_pins_name_every_check():
    pins = _pins("verify_e3_disconnected.sha256")
    assert list(pins) == [*CHECKS, *LEMMAS]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in pins.values())


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_reach_pass_reports_match_four_edge_pins(check_id):
    # the reports of all eleven theorem ids, in process; CI compares all
    # eighteen, each from a cold CLI run
    text = verify_theorem(check_id, EnumerationSpec(4)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == _pins("verify_e4.sha256")[check_id]


@pytest.mark.parametrize("lemma_id", list(LEMMAS))
def test_lemma_reports_match_four_edge_pins(lemma_id):
    # the seven lemma reports over the 591 connected classes of at most 4
    # edges, in process; CI compares them from cold CLI runs as well
    text = verify_lemma(lemma_id, EnumerationSpec(4)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == _pins("verify_e4.sha256")[lemma_id]


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_theorem_reports_match_disconnected_three_edge_pins(check_id):
    # the 349 classes of at most 3 edges, connected or not, so search states
    # carry isolated circles; CI compares the same reports from cold CLI runs
    text = verify_theorem(check_id, EnumerationSpec(3, connected_only=False)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == _pins("verify_e3_disconnected.sha256")[check_id]


@pytest.mark.parametrize("lemma_id", list(LEMMAS))
def test_lemma_reports_match_disconnected_three_edge_pins(lemma_id):
    # on disconnected classes the lemmas read components: the component
    # count of the Euler genus, and the component deletions
    text = verify_lemma(lemma_id, EnumerationSpec(3, connected_only=False)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == _pins("verify_e3_disconnected.sha256")[lemma_id]
