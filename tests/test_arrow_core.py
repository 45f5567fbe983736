import copy
import os
import pickle
import subprocess
import sys

import pytest

import ribbonminor
from ribbonminor import (
    ArpError,
    ArrowPresentation,
    EnumerationSpec,
    VertexLineSegment,
    canonical_presentation,
    canonicalize,
    enumerate_presentations,
    euler_genus,
    format_arp,
    is_equivalent,
    parse_arp,
    trace_boundaries,
    underlying_graph,
)
from ribbonminor import arrow_core
from ribbonminor.arrow_core import _base_canonical
from ribbonminor.verify import _augmentations
from oracles import (
    _compositions,
    _words,
    assert_walk_matches_table_walk,
    assert_walks_alternate,
    brute_equivalent,
    counted_occurrences,
    endpoint_trace_boundaries,
    flip_loop_canonicalize,
    nx_boundary_partition,
    nx_euler_genus,
    search_base_canonical,
)

P = parse_arp


# -- parsing and formatting -------------------------------------------------


def test_parse_line_form():
    g = P("a+ b-\na+ b+\n")
    assert g.circles == ((("a", 1), ("b", -1)), (("a", 1), ("b", 1)))


def test_parse_one_line_form_and_empty_circles():
    g = P("(a+ a-)()")
    assert g.n_vertices == 2
    assert g.circles[1] == ()


def test_parse_comments_and_blank_lines():
    g = P("# a comment\n\ne+ e+\n")
    assert g.to_text() == "(e+ e+)"


def test_parse_rejects_bad_token():
    with pytest.raises(ArpError, match="line 2"):
        P("a+ a+\nb*\n")


def test_parse_rejects_wrong_label_count():
    with pytest.raises(ArpError, match="occurs 1 times"):
        P("a+\n")
    with pytest.raises(ArpError, match="occurs 3 times"):
        P("a+ a+ a-\n")


def test_constructor_reports_first_bad_arrow_label_before_sign():
    A = ArrowPresentation
    with pytest.raises(ArpError, match=r"^bad edge label 'x!'$"):
        A([[("a", 1)], [("x!", 0), ("b", 2)]])
    with pytest.raises(ArpError, match=r"^bad sign 0 for label 'a'$"):
        A([[("a", 0), ("x!", 1)]])
    # within one arrow the label is checked before the sign
    with pytest.raises(ArpError, match=r"^bad edge label 'x!'$"):
        A([[("x!", 0)]])
    # every arrow is checked before any label count
    with pytest.raises(ArpError, match=r"^bad sign 5 for label 'b'$"):
        A([[("a", 1)], [("b", 5)]])


def test_constructor_reports_least_label_with_wrong_count():
    with pytest.raises(ArpError, match=r"^label 'b' occurs 3 times \(exactly 2 required\)$"):
        ArrowPresentation([[("z", 1)], [("b", 1), ("b", 1), ("b", -1)], [("c", 1), ("c", 1)]])


def _assert_table_matches_counted(g):
    ref = counted_occurrences(g.circles)
    assert list(g.occurrences.items()) == list(ref.items())
    assert list(ArrowPresentation._of(g.circles).occurrences.items()) == list(ref.items())


def test_occurrences_match_counting_reference():
    from ribbonminor import MinorFamily, applicable_moves, geometric_dual

    for g in enumerate_presentations(EnumerationSpec(4)):
        _assert_table_matches_counted(g)
    # every class of at most 3 edges, connected or not
    for g in enumerate_presentations(EnumerationSpec(3, 5, False)):
        _assert_table_matches_counted(geometric_dual(g))
        for fam in MinorFamily:
            for mv in applicable_moves(g, fam):
                h = mv.apply(g)
                _assert_table_matches_counted(h)
                _assert_table_matches_counted(geometric_dual(h))


def test_walk_matches_table_walk_oracle():
    # the walk pairs each label's arrows itself; on the 591 connected
    # classes of at most 4 edges it gives the cycles of the walk that reads
    # the label table, for no label, every label and seeded random subsets
    import random

    rng = random.Random(2008_13327)
    classes = enumerate_presentations(EnumerationSpec(4))
    assert len(classes) == 591
    for g in classes:
        assert_walk_matches_table_walk(g, rng)


def test_presentations_hold_no_table_until_read():
    # construction keeps circles, hash and sorted labels only; walks,
    # duals, move results, graphs and canonical forms build no table, and
    # the first read builds a read-only view that later reads return
    from ribbonminor import MinorMove, checkerboard_colouring, geometric_dual, is_bipartite, partial_dual

    g = P("(a+ b- c+)(a- c-)(b+)()")
    made = [g, ArrowPresentation(g.circles), ArrowPresentation._of(g.circles), partial_dual(g, {"a"}),
            geometric_dual(g), MinorMove("contract", ("a",)).apply(g), MinorMove("delete", ("b",)).apply(g)]
    for h in made:
        trace_boundaries.__wrapped__(h)
        euler_genus.__wrapped__(h)
        underlying_graph.__wrapped__(h)
        checkerboard_colouring(h)
        is_bipartite(h)
        canonical_presentation(h)
        assert h.labels == tuple(sorted({lab for c in h.circles for lab, _ in c}))
        assert h.n_edges == len(h.labels) and hash(h) == hash(h.circles)
        assert not hasattr(h, "_occurrences"), h
    occ = g.occurrences
    assert g.occurrences is occ and dict(occ) == counted_occurrences(g.circles)
    with pytest.raises(TypeError):
        occ["a"] = ((0, 0), (1, 0))


@pytest.mark.parametrize(
    "circles, message",
    [
        ([[("a", 1)]], "label 'a' occurs 1 times (exactly 2 required)"),
        ([[("a", 1), ("a", 1), ("a", -1)]], "label 'a' occurs 3 times (exactly 2 required)"),
        ([[("a", 1), ("a", 1)], [("a", -1), ("a", 1)]], "label 'a' occurs 4 times (exactly 2 required)"),
        # the third sighting comes on a later circle, after the label was paired
        ([[("a", 1), ("b", 1), ("a", 1)], [("b", -1)], [("a", -1)]],
         "label 'a' occurs 3 times (exactly 2 required)"),
        # two bad labels: the lesser is named, whichever is met first
        ([[("z", 1), ("b", 1)], [("b", 1), ("b", 1)]], "label 'b' occurs 3 times (exactly 2 required)"),
        ([[("c", 1), ("c", 1), ("c", 1), ("c", 1)], [("d", 1)]], "label 'c' occurs 4 times (exactly 2 required)"),
        ([[("y", 1), ("x", 1), ("x", 1), ("x", 1), ("x", 1)]], "label 'x' occurs 4 times (exactly 2 required)"),
    ],
)
def test_miscount_text_matches_counting_reference(circles, message):
    with pytest.raises(ArpError) as ref:
        counted_occurrences(circles)
    with pytest.raises(ArpError) as built:
        ArrowPresentation(circles)
    with pytest.raises(ArpError) as unchecked:
        ArrowPresentation._of(tuple(map(tuple, circles)))
    assert str(ref.value) == str(built.value) == str(unchecked.value) == message


@pytest.mark.parametrize(
    "arrow, message",
    [
        ((["a"], 1), r"^bad edge label \['a'\]$"),
        ((1, 1), r"^bad edge label 1$"),
        ((None, 1), r"^bad edge label None$"),
        (("a", [1]), r"^bad sign \[1\] for label 'a'$"),
        # arrows that are not (label, sign) pairs
        ("a", r"^bad arrow 'a': not a \(label, sign\) pair$"),
        (("a", 1, 2), r"^bad arrow \('a', 1, 2\): not a \(label, sign\) pair$"),
        (None, r"^bad arrow None: not a \(label, sign\) pair$"),
        # signs are the integers 1 and -1, not values equal to them
        (("a", True), r"^bad sign True for label 'a'$"),
        (("a", 1.0), r"^bad sign 1\.0 for label 'a'$"),
        (("a", -1.0), r"^bad sign -1\.0 for label 'a'$"),
    ],
)
def test_constructor_rejects_non_string_or_unhashable_input(arrow, message):
    with pytest.raises(ArpError, match=message):
        ArrowPresentation([[arrow, arrow]])


@pytest.mark.parametrize(
    "circles, message",
    [
        ("ab", r"^bad arrow 'a': not a \(label, sign\) pair$"),
        ([[("a", 1)], [("a", 1), ("b",)]], r"^bad arrow \('b',\): not a \(label, sign\) pair$"),
        ([None], r"^bad circle None: not an iterable of \(label, sign\) pairs$"),
        ([[("a", 1), ("a", 1)], 5], r"^bad circle 5: not an iterable of \(label, sign\) pairs$"),
        (5, r"^bad circle list 5: not an iterable of circles$"),
        ([iter([("a", 1), 3])], r"^bad circle <list_iterator .*>: not an iterable of \(label, sign\) pairs$"),
    ],
)
def test_constructor_rejects_what_is_not_circles_of_arrows(circles, message):
    # circles and circle lists that cannot be iterated, and a bad arrow met
    # after good ones or on a circle read only once
    with pytest.raises(ArpError, match=message):
        ArrowPresentation(circles)


@pytest.mark.parametrize("text, name", [(b"(a+ a-)", "bytes"), (None, "NoneType")])
def test_parse_rejects_text_that_is_not_a_str(text, name):
    with pytest.raises(ArpError, match=f"^presentation text must be a str, not {name}$"):
        parse_arp(text)


def test_parse_rejects_stray_text():
    with pytest.raises(ArpError, match="stray"):
        P("(a+ a-) junk")


def test_format_round_trip():
    g = P("(a+ b-)(a-)(b+)")
    assert parse_arp(format_arp(g)) == g
    assert format_arp(P("()")) == "()\n"
    assert format_arp(ArrowPresentation()) == ""


def test_empty_presentation():
    g = ArrowPresentation()
    assert g.to_text() == ""
    assert parse_arp("") == g
    assert euler_genus(g) == 0
    assert trace_boundaries(g) == ()


def _run_with_hash_seed(seed, source, stdin=""):
    """What ``source`` prints, run in a fresh interpreter under the string
    hash seed ``seed``."""
    src = os.path.dirname(os.path.dirname(ribbonminor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", source], input=stdin, env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_pickled_presentation_hashes_as_loaded_in_another_process():
    # a string's hash differs between processes, so a presentation pickled
    # in one must hash, in another, as the same presentation built there
    text = "(a+ b- c+)(a- c-)(b+)()"
    dumped = _run_with_hash_seed(1, "import pickle, sys; from ribbonminor import parse_arp; "
                                    f"sys.stdout.write(pickle.dumps(parse_arp({text!r})).hex())")
    loaded = _run_with_hash_seed(2, "import pickle, sys; from ribbonminor import parse_arp; "
                                    "g = pickle.loads(bytes.fromhex(sys.stdin.read())); "
                                    f"h = parse_arp({text!r}); "
                                    "print(g == h, hash(g) == hash(h), h in {g}, g.occurrences == h.occurrences)",
                                 stdin=dumped)
    assert loaded.split() == ["True"] * 4


def test_copies_are_equal_values():
    g = P("(a+ b- c+)(a- c-)(b+)()")
    for h in (copy.deepcopy(g), copy.copy(g), pickle.loads(pickle.dumps(g))):
        assert h == g and hash(h) == hash(g) and h.occurrences == g.occurrences


# -- boundary tracing --------------------------------------------------------


def test_trace_orientable_loop():
    # two components, each with exactly one edge line segment of e
    comps = trace_boundaries(P("(e+ e+)"))
    assert len(comps) == 2
    assert [b.n_edge_segments() for b in comps] == [1, 1]


def test_trace_nonorientable_loop():
    comps = trace_boundaries(P("(e+ e-)"))
    assert len(comps) == 1
    assert comps[0].n_edge_segments() == 2


def test_trace_isolated_vertex():
    comps = trace_boundaries(P("()"))
    assert len(comps) == 1
    assert comps[0].segments == (VertexLineSegment(0, 0),)
    assert comps[0].n_edge_segments() == 0


def test_trace_agrees_with_nx_oracle(sweep3):
    for g in sweep3:
        ours = frozenset(
            frozenset(
                ("v", s.circle, s.gap) if isinstance(s, VertexLineSegment) else ("e", s.label, s.side)
                for s in b.segments
            )
            for b in trace_boundaries(g)
        )
        assert ours == nx_boundary_partition(g), g


def test_trace_segment_counts_and_alternation(sweep3):
    for g in sweep3:
        comps = trace_boundaries(g)
        total_edge_segs = sum(b.n_edge_segments() for b in comps)
        assert total_edge_segs == 2 * g.n_edges
        for b in comps:
            segs = b.segments
            if len(segs) == 1:
                assert isinstance(segs[0], VertexLineSegment)
                continue
            for i, s in enumerate(segs):
                nxt = segs[(i + 1) % len(segs)]
                assert isinstance(s, VertexLineSegment) != isinstance(nxt, VertexLineSegment)


# -- genus and underlying graph ----------------------------------------------


@pytest.mark.parametrize(
    "text,genus",
    [("(e+ e+)", 0), ("(e+ e-)", 1), ("()", 0), ("(a+ b+ a+ b+)", 2), ("(a+ b+ c+ a+ b+ c+)", 2)],
)
def test_euler_genus_examples(text, genus):
    assert euler_genus(P(text)) == genus


def test_euler_genus_agrees_with_oracle(sweep3):
    # the uncached kernel and the cache over it
    for g in sweep3:
        assert arrow_core._genus(g) == euler_genus(g) == nx_euler_genus(g), g


def test_genus_nonnegative_up_to_4_edges_exhaustive():
    # raw generation, no dedup needed for a pointwise invariant
    for e in range(5):
        if e == 0:
            assert euler_genus(ArrowPresentation([()])) >= 0
            continue
        for word in _words(e):
            for parts in _compositions(2 * e, 4):
                g = ArrowPresentation(
                    [tuple((f"e{word[i][0]}", word[i][1]) for i in part) for part in parts]
                )
                assert euler_genus(g) >= 0, g
            # the raw presentations are not classes: keep them out of the
            # shared caches, which would otherwise hold all 107,520 of them
            for cached in (euler_genus, trace_boundaries, underlying_graph):
                cached.cache_clear()


def _with_isolated_circles(circles):
    """The presentation of the circles, and of the circles with one or two
    isolated circles inserted at every place."""
    n = len(circles)
    yield ArrowPresentation(circles)
    for i in range(n + 1):
        yield ArrowPresentation(circles[:i] + [()] + circles[i:])
        for j in range(i, n + 1):
            yield ArrowPresentation(circles[:i] + [()] + circles[i:j] + [()] + circles[j:])


def test_trace_boundaries_matches_endpoint_walk_oracle_on_raw_words(raw3):
    # same components in the same order, with the same segments and
    # directions, each with its vertex line segments at its even positions
    # (the invariant every positional reading of a walk relies on); called
    # uncached so the sweep does not fill the cache
    for circles in raw3:
        for g in _with_isolated_circles(circles):
            walks = trace_boundaries.__wrapped__(g)
            assert walks == endpoint_trace_boundaries(g), g
            assert_walks_alternate(walks)


def test_degree_and_underlying_graph():
    g = P("(e+ e+)")
    assert g.degree(0) == 2
    assert underlying_graph(g).edges == (("e", 0, 0),)

    g = P("(a+)(a+)")
    assert g.degree(0) == g.degree(1) == 1
    assert underlying_graph(g).edges == (("a", 0, 1),)

    g = P("(a+ b+ a+ b+)")
    assert g.degree(0) == 4
    assert underlying_graph(g).edges == (("a", 0, 0), ("b", 0, 0))
    with pytest.raises(ArpError):
        g.degree(5)


def test_canonical_key_vertex_limit_names_the_join_family():
    # the one check of the join family's vertex limit, with the text the
    # minor command reports
    path9 = P("\n".join(["e0+"] + [f"e{i}+ e{i + 1}+" for i in range(7)] + ["e7+"]))
    with pytest.raises(ArpError) as err:
        underlying_graph(path9).canonical_key()
    assert str(err.value) == ("the join family compares underlying graphs, which is supported "
                              "for at most 8 vertices; got 9 vertices")


def test_components_count_isolated_circles():
    g = P("(a+ a+)()")
    assert len(underlying_graph(g).components()) == 2


# -- canonical form and equivalence -------------------------------------------


def test_equivalence_examples():
    assert is_equivalent(P("(e+ e+)"), P("(f+ f+)"))
    assert is_equivalent(P("(e+ e-)"), P("(e- e+)"))
    assert not is_equivalent(P("(e+ e+)"), P("(e+ e-)"))


def test_canonicalize_idempotent(sweep2):
    for g in sweep2:
        c = canonicalize(g)
        assert canonicalize(parse_arp(c)) == c
        assert canonical_presentation(g).to_text() == c


@pytest.mark.parametrize("text", ["(a+ b+ c+)(a+ b+ c-)", "(a+)(a+ b+ b+ c+)(c+)"])
def test_canonicalize_keeps_form_with_tied_first_circles(text):
    # canonical, although one of the tied first-circle branches encodes
    # above the minimum at the next level
    assert canonicalize(P(text)) == text


@pytest.mark.parametrize("text", ["(a+ a+ b+)(b+)", "(a+ b+ a- b+)", "(a+ b+ b+ a-)", "(a+)(a+)()"])
def test_canonicalize_changes_non_minimal_order(text):
    assert canonicalize(P(text)) != text


def test_canonicalize_matches_flip_loop_oracle_on_raw_words(raw3):
    # Every raw word of at most 3 edges split into at most 4 circles, and
    # 1-4 isolated circles: the flip-invariant encoding must give the
    # flip-loop canonical strings byte for byte, and so must the class
    # representative it builds.
    inputs = [ArrowPresentation([()] * k) for k in range(1, 5)]
    inputs += [ArrowPresentation(circles) for circles in raw3]
    classes = set()
    for g in inputs:
        c = canonicalize(g)
        assert c == flip_loop_canonicalize(g), g
        classes.add(c)
    for c in classes:
        rep = canonical_presentation(P(c))
        assert rep.to_text() == c
        assert flip_loop_canonicalize(rep) == c


def test_one_canonical_table(raw3, sweep2):
    # every member of a class gets the same representative instance, which
    # the table maps to itself; canonicalize is that instance's text, and
    # is_equivalent compares the same classes as the text does
    inputs = [ArrowPresentation(circles) for circles in raw3] + list(sweep2)
    reps = {}
    for g in inputs:
        rep = canonical_presentation(g)
        assert reps.setdefault(rep.to_text(), rep) is rep, g
        assert arrow_core._canon_cache[rep.circles] is rep
        assert arrow_core._canon_cache[g.circles] is rep
        assert canonicalize(g) == rep.to_text()
    answers = set()
    for g, h in zip(inputs, inputs[1:] + inputs[:1]):
        same = is_equivalent(g, h)
        assert same == (canonicalize(g) == canonicalize(h)), (g, h)
        answers.add(same)
    assert answers == {True, False}


def test_is_equivalent_matches_brute_oracle(sweep2):
    for g in sweep2:
        for h in sweep2:
            assert is_equivalent(g, h) == brute_equivalent(g, h), (g, h)


def test_equivalence_brute_oracle_on_spot_pairs():
    # rotation + reversal + relabeling + arrow-pair flip, each on its own
    assert brute_equivalent(P("(a+ b+ a+ b+)"), P("(a+ b- a+ b-)"))
    assert is_equivalent(P("(a+ b+ a+ b+)"), P("(a+ b- a+ b-)"))
    assert not is_equivalent(P("(a+ b+ a+ b+)"), P("(a+ b+ a+ b-)"))


def test_single_circle_reversal_preserves_everything(sweep2):
    from ribbonminor import is_bipartite, is_checkerboard_colourable, is_eulerian, is_even_face, is_plane

    for g in sweep2:
        for ci in range(g.n_vertices):
            rev = tuple((lab, -s) for lab, s in reversed(g.circles[ci]))
            h = ArrowPresentation(g.circles[:ci] + (rev,) + g.circles[ci + 1 :])
            assert len(trace_boundaries(h)) == len(trace_boundaries(g))
            assert euler_genus(h) == euler_genus(g)
            for pred in (is_eulerian, is_even_face, is_checkerboard_colourable, is_bipartite, is_plane):
                assert pred(h) == pred(g), (g, ci, pred.__name__)
            assert is_equivalent(g, h)


def test_canonicalize_memory_on_long_path():
    # the canonical form holds two completions at a time, the least so far
    # and the one being read, never one per circle variant: a 100-circle
    # path stays small
    import tracemalloc

    n = 100
    text = "\n".join(["m0+"] + [f"m{i}+ m{i + 1}+" for i in range(n - 2)] + [f"m{n - 2}+"])
    g = parse_arp(text)
    tracemalloc.start()
    try:
        canon = canonicalize(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert canon.count("(") == n


@pytest.mark.parametrize("connected_only", [True, False])
def test_base_canonical_matches_search_on_augmentation_candidates(connected_only):
    # every candidate the enumeration deduplicates on, up to 4 edges: the
    # rooted construction gives the encoding of the recursive search
    for g in enumerate_presentations(EnumerationSpec(3, connected_only=connected_only)):
        for circles in _augmentations(g.circles):
            assert _base_canonical(circles) == search_base_canonical(circles), circles


def _random_circles(seed: int) -> tuple:
    # 8-32 edges with random signs, shuffled and cut into 2-10 non-empty circles
    import random

    rng = random.Random(seed)
    n_edges, n_circles = rng.randint(8, 32), rng.randint(2, 10)
    arrows = [(f"e{i}", rng.choice((1, -1))) for i in range(n_edges) for _ in range(2)]
    rng.shuffle(arrows)
    cuts = [0, *sorted(rng.sample(range(1, len(arrows)), n_circles - 1)), len(arrows)]
    return tuple(tuple(arrows[a:b]) for a, b in zip(cuts, cuts[1:]))


_LARGE_INPUTS = {
    # every variant of a cycle (m_i+ m_i+1+) ties, so every one is completed
    **{f"cycle-{n}": tuple(((f"m{i}", 1), (f"m{(i + 1) % n}", 1)) for i in range(n)) for n in (6, 7, 12, 30)},
    # a path, inner circles first: an end circle reads [0], a proper prefix
    # of the inner rows met before it, so it is below them
    **{f"path-{n}": P("\n".join([*(f"m{i}+ m{i + 1}+" for i in range(n - 2)), "m0+", f"m{n - 2}+"])).circles
       for n in (6, 30)},
    "bouquet-20": (tuple((f"x{i}", 1) for i in range(20)) * 2,),
    **{f"random-{seed}": _random_circles(seed) for seed in range(20)},
}


@pytest.mark.parametrize("circles", _LARGE_INPUTS.values(), ids=_LARGE_INPUTS.keys())
def test_base_canonical_matches_search_on_large_inputs(circles):
    assert _base_canonical(circles) == search_base_canonical(circles)


@pytest.mark.parametrize("piece", ["(x+ x+)", "(x+)(x+)"])
def test_canonicalize_many_identical_components(piece):
    # 12 identical components tie in every order; each is encoded once
    import time

    g = P("".join(piece.replace("x", f"x{i}") for i in range(12)))
    start = time.perf_counter()
    text = canonicalize(g)
    assert time.perf_counter() - start < 2.0
    assert text == "".join(piece.replace("x", c) for c in "abcdefghijkl")


def test_canonicalize_mixed_identical_components():
    text = "(x0+ x0+)(x1+ x1-)(x2+ x2+)(x3+ x3-)(x4+ x4+)(x5+ x5-)(q+)(q+)(r+ s+)(r+ s-)"
    assert canonicalize(P(text)) == "(a+)(a+)(b+ b+)(c+ c+)(d+ d+)(e+ e-)(f+ f-)(g+ g-)(h+ i+)(h+ i-)"
