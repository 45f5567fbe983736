import pytest

from ribbonminor import (
    ArpError,
    EdgeLineSegment,
    MinorMove,
    boundary_distance,
    can_split_face,
    can_split_vertex,
    contract_edge,
    delete_component,
    delete_edge,
    delete_vertex,
    dual_distance,
    geometric_dual,
    is_bipartite,
    is_equivalent,
    is_orientable_loop,
    is_permissible_join,
    is_proper_contraction,
    is_proper_deletion,
    join_vertices,
    parse_arp,
    split_face,
    split_vertex,
    trace_boundaries,
    vls_dual_distance,
)
from ribbonminor.minor_search import MinorFamily, applicable_moves
from oracles import is_proper_deletion_direct, split_vertex_via_insertion

P = parse_arp


# -- deletion / contraction ---------------------------------------------------


def test_delete_edge_examples():
    assert delete_edge(P("(a+ b+ a+ b+)"), "b").to_text() == "(a+ a+)"
    assert delete_edge(P("(a+)(a+)"), "a").to_text() == "()()"
    assert delete_edge(P("(a+ b+ c+ a+ b+ c+)"), "a").to_text() == "(b+ c+ b+ c+)"
    with pytest.raises(ArpError):
        delete_edge(P("(a+ a+)"), "z")


def test_contract_edge_examples():
    assert is_equivalent(contract_edge(P("(a+)(a+)"), "a"), P("()"))
    assert is_equivalent(contract_edge(P("(e+ e+)"), "e"), P("()()"))
    assert is_equivalent(contract_edge(P("(e+ e-)"), "e"), P("()"))


def test_contract_vertex_edge_counts(sweep3):
    for g in sweep3:
        for e in g.labels:
            res = contract_edge(g, e)
            assert res.n_edges == g.n_edges - 1
            (c1, p1), (c2, p2) = g.occurrences[e]
            if c1 != c2:
                assert res.n_vertices == g.n_vertices - 1
            elif g.sign_of(c1, p1) == g.sign_of(c2, p2):
                assert res.n_vertices == g.n_vertices + 1
            else:
                assert res.n_vertices == g.n_vertices


def test_delete_component_examples():
    g = P("()(e+ e+)")
    assert delete_component(g, 0).to_text() == "(e+ e+)"
    g = P("(a+ a+)(b+ b-)")
    assert delete_component(g, 1).to_text() == "(a+ a+)"
    assert delete_component(P("(e+ e+)"), 0).to_text() == ""
    with pytest.raises(ArpError):
        delete_component(P("(e+ e+)"), 1)


def test_delete_vertex_examples():
    assert delete_vertex(P("(a+)(a+)"), 0).to_text() == "()"
    assert delete_vertex(P("(e+ e+)"), 0).to_text() == ""
    assert delete_vertex(P("(a+ b+)(a+)(b+)"), 0).to_text() == "()()"


# -- distances -----------------------------------------------------------------


def test_dual_distance_examples():
    assert dual_distance(P("(a+ a+)"), "a") == 0
    assert dual_distance(P("(a+ b+ a+ b+)"), "a") == 1
    assert dual_distance(P("(a+ b+ c+ a+)(b+)(c+)"), "a") == 0
    with pytest.raises(ArpError, match="not a loop"):
        dual_distance(P("(a+)(a+)"), "a")


def test_vls_dual_distance_examples():
    assert vls_dual_distance(P("(a+ a+)"), 0, 0, 1) == 1
    assert vls_dual_distance(P("(a+ a+)"), 0, 1, 1) == 0
    assert vls_dual_distance(P("(a+ b+ a+ b+)"), 0, 0, 2) == 2
    with pytest.raises(ArpError, match="invalid position"):
        vls_dual_distance(P("(a+ a+)"), 0, 0, 2)


def test_boundary_distance_examples():
    g = P("(e+ e-)")
    b = trace_boundaries(g)[0]
    s1, s2 = EdgeLineSegment("e", 1), EdgeLineSegment("e", 2)
    assert boundary_distance(g, 0, s1, s2) == 0
    assert boundary_distance(g, b, s1, s1) == 0
    g2 = P("(a+ b+ a+ b-)")
    b2 = trace_boundaries(g2)[0]
    i, j = b2.segments.index(EdgeLineSegment("a", 1)), b2.segments.index(EdgeLineSegment("a", 2))
    k = boundary_distance(g2, 0, i, j)
    # oracle: count edge segments strictly between along both arcs of the walk
    n = len(b2.segments)
    fwd = sum(
        1 for t in range(1, (j - i) % n) if isinstance(b2.segments[(i + t) % n], EdgeLineSegment)
    )
    bwd = sum(
        1 for t in range(1, (i - j) % n) if isinstance(b2.segments[(j + t) % n], EdgeLineSegment)
    )
    assert k == min(fwd, bwd)
    with pytest.raises(ArpError, match="not on this boundary"):
        boundary_distance(P("(e+ e+)"), 0, EdgeLineSegment("e", 2), EdgeLineSegment("e", 1))


# -- properness ------------------------------------------------------------------


def test_is_proper_contraction_examples():
    assert not is_proper_contraction(P("(a+ b+ a+ b+)"), "a")
    assert is_proper_contraction(P("(a+)(a+)"), "a")
    assert is_proper_contraction(P("(e+ e-)"), "e")
    assert is_orientable_loop(P("(e+ e+)"), "e")
    assert not is_orientable_loop(P("(e+ e-)"), "e")
    assert not is_orientable_loop(P("(e+)(e+)"), "e")


def test_is_proper_deletion_examples():
    assert is_proper_deletion(P("(e+ e+)"), "e")
    assert is_proper_deletion(P("(e+ e-)"), "e")
    g = P("(a+ b+ a+ b+)")
    assert is_proper_deletion(g, "a") == is_proper_contraction(geometric_dual(g), "a")


def test_proper_deletion_direct_agrees(sweep3):
    for g in sweep3:
        for e in g.labels:
            assert is_proper_deletion(g, e) == is_proper_deletion_direct(g, e), (g, e)


# -- splits ------------------------------------------------------------------------


def test_split_vertex_examples():
    with pytest.raises(ArpError, match="dual distance is odd"):
        split_vertex(P("(a+ a+)"), 0, 0, 1)
    assert is_equivalent(split_vertex(P("(a+ b+ a+ b+)"), 0, 0, 2), P("(a+ b+)(a+ b+)"))
    g = P("(a+ b+ a+ b+)")
    assert is_equivalent(split_vertex(g, 0, 1, 1), P("(a+ b+ a+ b+)()"))


def test_split_vertex_on_isolated_circle():
    assert split_vertex(P("()"), 0, 0, 0).to_text() == "()()"


def test_split_vertex_insertion_agreement(sweep2):
    for g in sweep2:
        for ci in range(g.n_vertices):
            ngaps = g.n_gaps(ci)
            for p in range(ngaps):
                for q in range(p, ngaps):
                    if not can_split_vertex(g, ci, p, q):
                        with pytest.raises(ArpError):
                            split_vertex(g, ci, p, q)
                        continue
                    direct = split_vertex(g, ci, p, q)
                    literal = split_vertex_via_insertion(g, ci, p, q)
                    assert is_equivalent(direct, literal), (g, ci, p, q)
                    assert direct.n_edges == g.n_edges
                    assert direct.n_vertices == g.n_vertices + 1


def test_split_face_matches_dual_vertex_split(sweep2):
    from ribbonminor import canonicalize

    for g in sweep2:
        star = geometric_dual(g)
        face_results = {
            canonicalize(mv.apply(g))
            for mv in applicable_moves(g, MinorFamily.BIPARTITE)
            if mv.kind == "split-face"
        }
        transported = {
            canonicalize(geometric_dual(mv.apply(star)))
            for mv in applicable_moves(star, MinorFamily.CHECKERBOARD)
            if mv.kind == "split-vertex"
        }
        assert face_results == transported, g


def test_split_face_p_equals_q_always_valid(sweep2):
    for g in sweep2:
        for bi, b in enumerate(trace_boundaries(g)):
            for p in b.vertex_positions():
                res = split_face(g, bi, p, p)
                assert res.n_edges == g.n_edges
                assert res.n_vertices == g.n_vertices + 1


def test_split_face_preserves_bipartite(sweep2):
    for g in sweep2:
        if not is_bipartite(g):
            continue
        for mv in applicable_moves(g, MinorFamily.BIPARTITE):
            if mv.kind == "split-face":
                assert is_bipartite(mv.apply(g)), (g, mv)


def test_split_face_errors():
    g = P("(a+ b+ a+ b-)")
    b = trace_boundaries(g)[0]
    vpos = b.vertex_positions()
    odd_pairs = [
        (p, q)
        for i, p in enumerate(vpos)
        for q in vpos[i + 1 :]
        if not can_split_face(g, 0, p, q)
    ]
    assert odd_pairs, "expected at least one odd pair on this boundary"
    with pytest.raises(ArpError, match="distance is odd"):
        split_face(g, 0, *odd_pairs[0])
    with pytest.raises(ArpError, match="unknown boundary"):
        split_face(g, 9, 0, 0)
    edge_pos = next(i for i, s in enumerate(b.segments) if isinstance(s, EdgeLineSegment))
    with pytest.raises(ArpError, match="not a vertex line segment"):
        split_face(g, 0, edge_pos, edge_pos)


def test_move_duality_transport_three_edges(sweep3):
    # every checkerboard-family move on g has a bipartite-family counterpart
    # on the dual with the same effect, and dually for eulerian/even-face
    from ribbonminor import verify_lemma
    from ribbonminor.verify import EnumerationSpec

    spec = EnumerationSpec(3, 4, True)
    assert verify_lemma("dual-transport-cc", spec).passed
    assert verify_lemma("dual-transport-eulerian", spec).passed


# -- joins -----------------------------------------------------------------------


def test_join_vertices_examples():
    g = P("(a+)(b+)(a+ b+)")
    joined = join_vertices(g, 0, 1)
    assert joined.to_text() == "(a+ b+)(a+ b+)"
    assert is_permissible_join(g, 0, 1)

    g2 = P("(a+)(a+)")
    assert not is_permissible_join(g2, 0, 1)
    assert join_vertices(g2, 0, 1).to_text() == "(a+ a+)"

    g3 = P("()()")
    assert join_vertices(g3, 0, 1).to_text() == "()"
    assert not is_permissible_join(g3, 0, 1)

    with pytest.raises(ArpError):
        join_vertices(g, 1, 1)


def test_join_loop_does_not_witness_permissibility():
    # the only common neighbour candidate of circles 0 and 1 is circle 0
    # itself (via its loop), which must not count
    g = P("(x+ x+ a+)(a+ b+)(b+)")
    assert not is_permissible_join(g, 0, 1)
    g2 = P("(a+ c+)(a+ b+)(b+ c+)")
    assert is_permissible_join(g2, 0, 1)


# -- move records -------------------------------------------------------------------


def test_minor_move_parse_format_round_trip():
    for text in (
        "contract e",
        "delete ab",
        "delete-component 0",
        "delete-vertex 2",
        "split-vertex 1 0 3",
        "split-face 0 2 2",
        "join 0 1",
    ):
        assert str(MinorMove.parse(text)) == text
    with pytest.raises(ArpError):
        MinorMove.parse("frobnicate 1")
    with pytest.raises(ArpError):
        MinorMove.parse("split-vertex 1 x 3")


def test_minor_move_apply_dispatch():
    g = P("(a+ b+ a+ b+)")
    assert MinorMove("delete", ("a",)).apply(g).to_text() == "(b+ b+)"
    assert MinorMove("split-vertex", (0, 0, 2)).apply(g) == split_vertex(g, 0, 0, 2)
