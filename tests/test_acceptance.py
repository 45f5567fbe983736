"""Acceptance suite: the excluded-minor characterisations and supporting
laws, checked exhaustively over all connected presentations with at most
three edges, one pass/fail line printed per criterion.

Criterion 5d checks what partial duality does to the vertex, face and genus
counts, by the count law of Chmutov (JCTB 2009).  The upstream wording, "Euler
genus is invariant under every partial dual", is a known spec defect: it holds
for full geometric duals only.  The strict xfail
``test_partial_dual_genus_preservation_as_stated`` in ``test_duality.py``
records it; see also the README's "Known deviations" section.
"""

from itertools import combinations

from ribbonminor import (
    ArrowPresentation,
    EnumerationSpec,
    canonicalize,
    enumerate_presentations,
    euler_genus,
    geometric_dual,
    is_bipartite,
    is_checkerboard_colourable,
    is_equivalent,
    is_eulerian,
    is_even_face,
    is_plane,
    is_proper_deletion,
    partial_dual,
    split_vertex,
    target_catalog,
    trace_boundaries,
    verify_lemma,
    verify_theorem,
)
from ribbonminor.minor_ops import can_split_vertex
from oracles import (
    is_proper_deletion_direct,
    nx_component_count,
    nx_face_count,
    split_vertex_via_insertion,
)

SPEC3 = EnumerationSpec(max_edges=3, max_circles=4, connected_only=True)


def _report(criterion: str, description: str, failures) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion} ({description}): {verdict}")
    assert not failures, f"criterion {criterion}: {len(failures)} failures, first: {failures[0]}"


def _run_check(criterion, check_id):
    report = verify_theorem(check_id, SPEC3)
    _report(criterion, f"{check_id} over {len(report.rows)} classes", list(report.counterexamples()))


def test_criterion_1_cc_minor_characterisation():
    _run_check("1", "T2")


def test_criterion_2_cc_eulerian_minor_characterisation():
    _run_check("2", "T1")


def test_criterion_3_bipartite_characterisations():
    _run_check("3a", "T3")
    _run_check("3b", "T4")
    _run_check("3c", "T5")


def test_criterion_4_plane_characterisations():
    _run_check("4a", "T6")
    _run_check("4b", "T7")
    _run_check("4c", "C1")
    _run_check("4d", "C2")
    _run_check("4e", "C3")
    _run_check("4f", "C4")


def test_criterion_5a_bipartite_cc_duality():
    failures = []
    for g in enumerate_presentations(SPEC3):
        if is_bipartite(g) != is_checkerboard_colourable(geometric_dual(g)):
            failures.append(canonicalize(g))
    _report("5a", "bipartite(g) iff cc(dual)", failures)


def test_criterion_5b_eulerian_even_face_duality():
    failures = []
    for g in enumerate_presentations(SPEC3):
        if is_eulerian(g) != is_even_face(geometric_dual(g)):
            failures.append(canonicalize(g))
    _report("5b", "eulerian(g) iff even-face(dual)", failures)


def test_criterion_5c_double_dual_identity():
    failures = []
    for g in enumerate_presentations(SPEC3):
        if not is_equivalent(geometric_dual(geometric_dual(g)), g):
            failures.append(canonicalize(g))
    _report("5c", "double dual equivalent to g", failures)


def _spanning_subgraph(g, keep):
    """g|keep: every circle of g, with only the arrows whose label is in keep."""
    return ArrowPresentation([(lab, s) for lab, s in c if lab in keep] for c in g.circles)


def test_criterion_5d_genus_under_partial_duals_as_stated():
    # The upstream clause "euler_genus(g^A) == euler_genus(g) for every A" is
    # false for proper subsets: (b+ c+ b+ c+) has genus 2, its partial dual at
    # {b} is (a+ b+)(a+ b+) of genus 0.  Checked instead is the law it stands
    # for (Chmutov, JCTB 2009; Gross-Mansour-Tucker, EJC 2020): v(g^A) =
    # f(g|A), f(g^A) = f(g|A^c), e and k kept, hence euler_genus(g^A) =
    # 2k + e - f(g|A) - f(g|A^c), which is euler_genus(g) when A = E(g).  The
    # spanning-subgraph faces are counted by the networkx oracle, not by
    # trace_boundaries.
    failures = []
    full_dual_failures = []
    for g in enumerate_presentations(SPEC3):
        labels = g.labels
        k, e = nx_component_count(g), g.n_edges
        for r in range(len(labels) + 1):
            for a in combinations(labels, r):
                d = partial_dual(g, a)
                f_a = nx_face_count(_spanning_subgraph(g, set(a)))
                f_ac = nx_face_count(_spanning_subgraph(g, set(labels) - set(a)))
                counts = (
                    d.n_vertices,
                    len(trace_boundaries(d)),
                    d.n_edges,
                    nx_component_count(d),
                    euler_genus(d),
                )
                if counts != (f_a, f_ac, e, k, 2 * k + e - f_a - f_ac):
                    failures.append((canonicalize(g), a, counts))
                if len(a) == len(labels) and euler_genus(d) != euler_genus(g):
                    full_dual_failures.append((canonicalize(g), a))
    assert not full_dual_failures, "genus must be preserved by full geometric duality"
    _report("5d", "partial-dual vertex/face/genus counts", failures)


def test_criterion_6_closure_and_monotonicity():
    for sub, lemma in (
        ("6a", "cc-closure"),
        ("6b", "bipartite-closure"),
        ("6c", "genus-eulerian"),
        ("6d", "genus-contract-delete"),
    ):
        report = verify_lemma(lemma, SPEC3)
        _report(sub, f"{lemma} over {len(report.rows)} classes", list(report.counterexamples()))


def test_criterion_7_target_catalog_pin_down():
    failures = []
    try:
        cat = target_catalog()
    except RuntimeError as exc:  # pragma: no cover - catalog must load
        failures.append(str(exc))
        cat = None
    if cat is not None:
        expectations = [
            ("single_edge cc", not is_checkerboard_colourable(cat["single_edge"])),
            ("nonorientable_loop cc", not is_checkerboard_colourable(cat["nonorientable_loop"])),
            ("double_interleaved cc", not is_checkerboard_colourable(cat["double_interleaved_loops"])),
            ("orientable_loop bipartite", not is_bipartite(cat["orientable_loop"])),
            ("nonorientable_loop bipartite", not is_bipartite(cat["nonorientable_loop"])),
            ("triple cc", is_checkerboard_colourable(cat["triple_interleaved_loops"])),
            ("triple plane", not is_plane(cat["triple_interleaved_loops"])),
            ("twisted cc", is_checkerboard_colourable(cat["twisted_interleaved_loops"])),
            ("twisted plane", not is_plane(cat["twisted_interleaved_loops"])),
            ("triple genus", euler_genus(cat["triple_interleaved_loops"]) == 2),
            ("twisted genus", euler_genus(cat["twisted_interleaved_loops"]) == 1),
        ]
        failures += [name for name, ok in expectations if not ok]
    _report("7", "target catalog invariants at startup", failures)


def test_criterion_8_kernel_oracle_agreement():
    split_failures = []
    deletion_failures = []
    for g in enumerate_presentations(SPEC3):
        for ci in range(g.n_vertices):
            ngaps = g.n_gaps(ci)
            for p in range(ngaps):
                for q in range(p, ngaps):
                    if not can_split_vertex(g, ci, p, q):
                        continue
                    if not is_equivalent(
                        split_vertex(g, ci, p, q), split_vertex_via_insertion(g, ci, p, q)
                    ):
                        split_failures.append((canonicalize(g), ci, p, q))
        for e in g.labels:
            if is_proper_deletion(g, e) != is_proper_deletion_direct(g, e):
                deletion_failures.append((canonicalize(g), e))
    _report("8a", "split-vertex two forms agree", split_failures)
    _report("8b", "proper deletion dual vs direct agree", deletion_failures)
