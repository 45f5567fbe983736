import pytest

from ribbonminor import (
    ArpError,
    ArrowPresentation,
    EdgeLineSegment,
    checkerboard_colouring,
    is_bipartite,
    is_checkerboard_colourable,
    is_eulerian,
    is_even_face,
    is_plane,
    parse_arp,
    trace_boundaries,
)
from oracles import is_trivial_loop, nx_is_bipartite, nx_is_checkerboard_colourable

P = parse_arp


def test_is_eulerian_examples():
    assert is_eulerian(P("(e+ e+)"))
    assert not is_eulerian(P("(a+)(a+)"))
    assert is_eulerian(P("(a+ b+ a+ b+)"))


def test_is_even_face_examples():
    assert is_even_face(P("(e+ e-)"))
    assert not is_even_face(P("(e+ e+)"))
    assert is_even_face(P("()"))


def test_is_checkerboard_colourable_examples():
    assert is_checkerboard_colourable(P("(e+ e+)"))
    assert not is_checkerboard_colourable(P("(e+)(e+)"))
    assert not is_checkerboard_colourable(P("(e+ e-)"))
    assert is_checkerboard_colourable(P("(a+ b+ c+ a+ b+ c+)"))


def test_is_bipartite_examples():
    assert not is_bipartite(P("(e+ e+)"))
    assert is_bipartite(P("(a+)(a+)"))
    assert is_bipartite(P("()()"))
    # odd cycle on three vertices
    assert not is_bipartite(P("(a+ c+)(a+ b+)(b+ c+)"))


def test_is_plane_examples():
    assert is_plane(P("(e+ e+)"))
    assert not is_plane(P("(a+ b+ a+ b+)"))
    assert not is_plane(P("(a+ b+ c+ a+ b+ c+)"))


def test_cc_implies_eulerian(sweep3):
    for g in sweep3:
        if is_checkerboard_colourable(g):
            assert is_eulerian(g), g


def test_colouring_witness_is_valid(sweep3):
    for g in sweep3:
        colouring = checkerboard_colouring(g)
        if colouring is None:
            assert not is_checkerboard_colourable(g)
            continue
        where = {}
        for bi, b in enumerate(trace_boundaries(g)):
            for seg in b.segments:
                if isinstance(seg, EdgeLineSegment):
                    where[(seg.label, seg.side)] = bi
        for lab in g.labels:
            assert colouring[where[(lab, 1)]] != colouring[where[(lab, 2)]], (g, lab)


def test_bipartite_and_cc_match_networkx(sweep3):
    for g in sweep3:
        assert is_bipartite(g) == nx_is_bipartite(g), g
        assert is_checkerboard_colourable(g) == nx_is_checkerboard_colourable(g), g


def test_is_trivial_loop_examples():
    assert not is_trivial_loop(P("(a+ b+ a+ b+)"), "a")
    assert is_trivial_loop(P("(a+ a+ b+ b+)"), "a")
    assert is_trivial_loop(P("(a+ a+)"), "a")


def test_is_trivial_loop_errors():
    with pytest.raises(ArpError, match="bouquet"):
        is_trivial_loop(P("(a+)(a+)"), "a")
    with pytest.raises(ArpError, match="not present"):
        is_trivial_loop(P("(a+ a+)"), "z")


def test_cc_bouquet_has_no_trivial_twisted_loop(sweep3):
    # property candidate: in a checkerboard colourable bouquet, no
    # non-orientable loop is trivial
    from ribbonminor import is_orientable_loop

    for g in sweep3:
        if g.n_vertices != 1 or not is_checkerboard_colourable(g):
            continue
        for e in g.labels:
            if not is_orientable_loop(g, e):
                assert not is_trivial_loop(g, e), (g, e)


def test_empty_presentation_predicates():
    g = ArrowPresentation()
    assert is_eulerian(g) and is_even_face(g) and is_checkerboard_colourable(g)
    assert is_bipartite(g) and is_plane(g)
