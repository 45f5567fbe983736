import pytest

from ribbonminor import (
    ArpError,
    ArrowPresentation,
    VertexLineSegment,
    canonical_presentation,
    canonicalize,
    euler_genus,
    format_arp,
    is_equivalent,
    parse_arp,
    trace_boundaries,
    underlying_graph,
)
from ribbonminor.arrow_core import _is_canonical
from oracles import (
    brute_equivalent,
    endpoint_trace_boundaries,
    flip_loop_canonicalize,
    nx_boundary_partition,
    nx_euler_genus,
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
    for g in sweep3:
        assert euler_genus(g) == nx_euler_genus(g), g


def test_genus_nonnegative_up_to_4_edges_exhaustive():
    # raw generation, no dedup needed for a pointwise invariant
    from ribbonminor.verify import _compositions, _words

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
    # directions; called uncached so the sweep does not fill the cache
    for circles in raw3:
        for g in _with_isolated_circles(circles):
            assert trace_boundaries.__wrapped__(g) == endpoint_trace_boundaries(g), g


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
def test_bounded_canonical_test_keeps_tied_branch_that_is_above(text):
    # canonical, but one tied first-circle branch has nothing within the bound
    # at the next level: that branch is above the bound, not below it
    assert canonicalize(P(text)) == text
    assert _is_canonical(P(text).circles)


@pytest.mark.parametrize("text", ["(a+ a+ b+)(b+)", "(a+ b+ a- b+)", "(a+ b+ b+ a-)", "(a+)(a+)()"])
def test_bounded_canonical_test_rejects_non_minimal_order(text):
    assert canonicalize(P(text)) != text
    assert not _is_canonical(P(text).circles)


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
