"""Atomic moves of the five minor systems, with their distance measures and
properness tests.

Vertex line segments are addressed as gap indices: gap j of a circle is the
arc following the arrow at position j; an empty circle has the single
notional gap 0.  Distances follow the usual conventions: the dual distance
of two segments on one vertex boundary counts the arrows strictly between
them (minimum over the two ways round), and the distance of two segments on
one boundary component counts the edge line segments strictly between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .arrow_core import (
    ArpError,
    ArrowPresentation,
    BoundaryComponent,
    EdgeLineSegment,
    Segment,
    VertexLineSegment,
    trace_boundaries,
    underlying_graph,
)
from .duality import geometric_dual, partial_dual

__all__ = [
    "MinorMove",
    "boundary_distance",
    "can_split_face",
    "can_split_vertex",
    "contract_edge",
    "delete_component",
    "delete_edge",
    "delete_vertex",
    "dual_distance",
    "is_orientable_loop",
    "is_permissible_join",
    "is_proper_contraction",
    "is_proper_deletion",
    "join_vertices",
    "split_face",
    "split_vertex",
    "vls_dual_distance",
]


def _check_label(g: ArrowPresentation, e: str) -> None:
    if e not in g.occurrences:
        raise ArpError(f"label {e!r} not present")


# ---------------------------------------------------------------------------
# deletion / contraction
# ---------------------------------------------------------------------------


def delete_edge(g: ArrowPresentation, e: str) -> ArrowPresentation:
    """Remove both arrows of e; circles are otherwise untouched."""
    _check_label(g, e)
    return ArrowPresentation(
        tuple(tuple(a for a in c if a[0] != e) for c in g.circles)
    )


def contract_edge(g: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract e: dualise with respect to e, then delete it.

    A non-loop merges two circles; an orientable loop splits its circle in
    two; a non-orientable loop leaves one circle.

    >>> contract_edge(ArrowPresentation.from_text("(e+ e+)"), "e").to_text()
    '()()'
    """
    _check_label(g, e)
    return delete_edge(partial_dual(g, (e,)), e)


def delete_component(g: ArrowPresentation, comp: int) -> ArrowPresentation:
    """Remove a connected component (given by index, components ordered by
    smallest circle id) together with all its circles and edges."""
    comps = underlying_graph(g).components()
    if not isinstance(comp, int) or not 0 <= comp < len(comps):
        raise ArpError(f"unknown component {comp!r}")
    drop = comps[comp]
    return ArrowPresentation(
        tuple(c for ci, c in enumerate(g.circles) if ci not in drop)
    )


def delete_vertex(g: ArrowPresentation, circle: int) -> ArrowPresentation:
    """Remove a circle and every edge with an occurrence on it."""
    g._check_circle(circle)
    doomed = {lab for lab, _ in g.circles[circle]}
    return ArrowPresentation(
        tuple(
            tuple(a for a in c if a[0] not in doomed)
            for ci, c in enumerate(g.circles)
            if ci != circle
        )
    )


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def dual_distance(g: ArrowPresentation, e: str) -> int:
    """For a loop e, the fewer arrows strictly between its two occurrences.

    >>> dual_distance(ArrowPresentation.from_text("(a+ b+ a+ b+)"), "a")
    1
    """
    _check_label(g, e)
    (c1, p1), (c2, p2) = g.occurrences[e]
    if c1 != c2:
        raise ArpError(f"label {e!r} is not a loop")
    d = g.degree(c1)
    between = p2 - p1 - 1
    return min(between, d - between - 2)


def vls_dual_distance(g: ArrowPresentation, circle: int, p: int, q: int) -> int:
    """Fewest arrows strictly between gaps p and q of a circle, either way."""
    ngaps = g.n_gaps(circle)
    for pos in (p, q):
        if not isinstance(pos, int) or not 0 <= pos < ngaps:
            raise ArpError(f"invalid position {pos!r} (circle has {ngaps} gaps)")
    if p == q:
        return 0
    d = g.degree(circle)
    i, j = sorted((p, q))
    return min(j - i, d - (j - i))


def _resolve_position(b: BoundaryComponent, s: Union[Segment, int]) -> int:
    if isinstance(s, int):
        if not 0 <= s < len(b.segments):
            raise ArpError(f"invalid boundary position {s!r}")
        return s
    return b.position_of(s)


def _boundary_arc_edge_counts(b: BoundaryComponent, i: int, j: int) -> tuple[int, int]:
    """Edge line segments strictly inside each of the two arcs between
    positions i and j of a boundary walk; (0, total) when i == j."""
    if i == j:
        return 0, b.n_edge_segments() - isinstance(b.segments[i], EdgeLineSegment)
    i, j = sorted((i, j))
    n = len(b.segments)
    forward = sum(1 for k in range(i + 1, j) if isinstance(b.segments[k], EdgeLineSegment))
    backward = sum(
        1
        for k in list(range(j + 1, n)) + list(range(0, i))
        if isinstance(b.segments[k], EdgeLineSegment)
    )
    return forward, backward


def boundary_distance(
    g: ArrowPresentation, b: Union[BoundaryComponent, int], s: Union[Segment, int], t: Union[Segment, int]
) -> int:
    """Fewest edge line segments strictly between s and t along the boundary
    component b, either way round.  s and t may be segments or positions."""
    if isinstance(b, int):
        boundaries = trace_boundaries(g)
        if not 0 <= b < len(boundaries):
            raise ArpError(f"unknown boundary component {b!r}")
        b = boundaries[b]
    i = _resolve_position(b, s)
    j = _resolve_position(b, t)
    if i == j:
        return 0
    return min(_boundary_arc_edge_counts(b, i, j))


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------


def is_orientable_loop(g: ArrowPresentation, e: str) -> bool:
    """Both occurrences on one circle with directions consistent along it."""
    _check_label(g, e)
    (c1, p1), (c2, p2) = g.occurrences[e]
    return c1 == c2 and g.sign_of(c1, p1) == g.sign_of(c2, p2)


def _loop_arc_sizes(g: ArrowPresentation, e: str) -> tuple[int, int]:
    (c1, p1), (_, p2) = g.occurrences[e]
    d = g.degree(c1)
    between = p2 - p1 - 1
    return between, d - between - 2


def is_proper_contraction(g: ArrowPresentation, e: str) -> bool:
    """Contraction is proper unless e is an orientable loop whose dual
    distance is odd, i.e. whose occurrences cut the remaining arrows of the
    vertex into two groups of odd size.

    On an even-degree vertex the two groups share their parity, so the test
    is simply that the dual distance is odd; requiring both groups odd
    extends it coherently to odd-degree vertices.
    """
    _check_label(g, e)
    if not is_orientable_loop(g, e):
        return True
    k, m = _loop_arc_sizes(g, e)
    return not (k % 2 == 1 and m % 2 == 1)


def is_proper_deletion(g: ArrowPresentation, e: str) -> bool:
    """Deletion is proper exactly when contracting the corresponding edge of
    the geometric dual is proper."""
    _check_label(g, e)
    return is_proper_contraction(geometric_dual(g), e)


# ---------------------------------------------------------------------------
# evenly splitting a vertex / a face
# ---------------------------------------------------------------------------


def _fresh_label(g: ArrowPresentation) -> str:
    used = set(g.labels)
    i = 0
    while f"_tmp{i}" in used:
        i += 1
    return f"_tmp{i}"


def can_split_vertex(g: ArrowPresentation, circle: int, p: int, q: int) -> bool:
    """Whether gaps p and q admit an even vertex split: the two groups of
    arrows they separate must not both be odd.  On an even-degree vertex the
    groups share their parity, so this is exactly evenness of the dual
    distance."""
    vls_dual_distance(g, circle, p, q)  # validates the positions
    if p == q:
        return True
    d = g.degree(circle)
    i, j = sorted((p, q))
    k = j - i
    return not (k % 2 == 1 and (d - k) % 2 == 1)


def split_vertex(g: ArrowPresentation, circle: int, p: int, q: int) -> ArrowPresentation:
    """Evenly split a vertex at gaps p and q.

    Cuts the circle at the two gaps; each arc closes into its own circle.
    With p == q one arc is empty and closes into an isolated vertex.

    >>> split_vertex(ArrowPresentation.from_text("(a+ b+ a+ b+)"), 0, 0, 2).to_text()
    '(b+ a+)(b+ a+)'
    """
    if not can_split_vertex(g, circle, p, q):
        raise ArpError("dual distance is odd")
    c = g.circles[circle]
    p, q = sorted((p, q))
    if p == q:
        arc_a, arc_b = c[p + 1 :] + c[: p + 1], ()
    else:
        arc_a, arc_b = c[p + 1 : q + 1], c[q + 1 :] + c[: p + 1]
    return ArrowPresentation(
        g.circles[:circle] + (arc_a, arc_b) + g.circles[circle + 1 :]
    )


def _insert_at_gap(circles: list[tuple], gap: VertexLineSegment, arrow) -> None:
    ci, j = gap
    c = circles[ci]
    if not c:
        circles[ci] = (arrow,)
    else:
        circles[ci] = c[: j + 1] + (arrow,) + c[j + 1 :]


def can_split_face(g: ArrowPresentation, b: int, p: int, q: int) -> bool:
    """Whether positions p and q on boundary component b admit an even face
    split: both must be vertex line segments, and the two arcs between them
    must not both carry an odd number of edge line segments (on an even
    boundary component this is exactly evenness of the distance)."""
    boundaries = trace_boundaries(g)
    if not isinstance(b, int) or not 0 <= b < len(boundaries):
        raise ArpError(f"unknown boundary component {b!r}")
    comp = boundaries[b]
    for pos in (p, q):
        if not isinstance(pos, int) or not 0 <= pos < len(comp.segments):
            raise ArpError(f"invalid boundary position {pos!r}")
        if not isinstance(comp.segments[pos], VertexLineSegment):
            raise ArpError(f"position {pos} is not a vertex line segment")
    if p == q:
        return True
    k, m = _boundary_arc_edge_counts(comp, p, q)
    return not (k % 2 == 1 and m % 2 == 1)


def split_face(g: ArrowPresentation, b: int, p: int, q: int) -> ArrowPresentation:
    """Evenly split a face: p and q are positions of vertex line segments on
    boundary component b.  A fresh edge is placed on those two segments,
    directed consistently along the walk, and contracted.
    """
    if not can_split_face(g, b, p, q):
        raise ArpError("distance is odd")
    comp = trace_boundaries(g)[b]
    x = _fresh_label(g)
    circles = list(g.circles)
    if p == q:
        ci, j = comp.segments[p]
        s = comp.directions[p]
        c = circles[ci]
        # both arrows land in the same gap, adjacent and consistent
        circles[ci] = ((x, s), (x, s)) if not c else c[: j + 1] + ((x, s), (x, s)) + c[j + 1 :]
    else:
        gap_p, gap_q = comp.segments[p], comp.segments[q]
        s_p, s_q = comp.directions[p], comp.directions[q]
        # insert into the later gap first so the earlier index stays valid
        first, second = sorted(
            [(gap_p, s_p), (gap_q, s_q)], key=lambda t: (t[0].circle, t[0].gap), reverse=True
        )
        _insert_at_gap(circles, first[0], (x, first[1]))
        _insert_at_gap(circles, second[0], (x, second[1]))
    inserted = ArrowPresentation(circles)
    return contract_edge(inserted, x)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def join_vertices(g: ArrowPresentation, c1: int, c2: int) -> ArrowPresentation:
    """Merge two vertex discs by splicing their circles at position 0.

    The splice position is immaterial for everything built on the underlying
    abstract graph, so a single canonical choice is used.
    """
    g._check_circle(c1)
    g._check_circle(c2)
    if c1 == c2:
        raise ArpError("cannot join a circle with itself")
    i, j = sorted((c1, c2))
    merged = g.circles[c1] + g.circles[c2]
    circles = list(g.circles)
    circles[i] = merged
    del circles[j]
    return ArrowPresentation(circles)


def is_permissible_join(g: ArrowPresentation, c1: int, c2: int) -> bool:
    """True when some third, distinct vertex neighbours both c1 and c2."""
    g._check_circle(c1)
    g._check_circle(c2)
    if c1 == c2:
        raise ArpError("cannot join a circle with itself")
    ug = underlying_graph(g)
    common = ug.neighbors(c1) & ug.neighbors(c2)
    return bool(common - {c1, c2})


# ---------------------------------------------------------------------------
# move records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinorMove:
    """One atomic move, replayable against a concrete presentation.

    Kinds and parameters: ``contract``/``delete`` (edge label),
    ``delete-component`` (component index), ``delete-vertex`` (circle),
    ``split-vertex`` (circle, gap, gap), ``split-face`` (boundary, position,
    position), ``join`` (circle, circle).
    """

    kind: str
    params: tuple

    _APPLY = {
        "contract": contract_edge,
        "delete": delete_edge,
        "delete-component": delete_component,
        "delete-vertex": delete_vertex,
        "split-vertex": split_vertex,
        "split-face": split_face,
        "join": join_vertices,
    }

    def apply(self, g: ArrowPresentation) -> ArrowPresentation:
        try:
            fn = self._APPLY[self.kind]
        except KeyError:
            raise ArpError(f"unknown move kind {self.kind!r}") from None
        return fn(g, *self.params)

    def __str__(self) -> str:
        return " ".join([self.kind, *map(str, self.params)])

    @classmethod
    def parse(cls, line: str) -> "MinorMove":
        parts = line.split()
        if not parts:
            raise ArpError("empty move line")
        kind, args = parts[0], parts[1:]
        if kind in ("contract", "delete"):
            if len(args) != 1:
                raise ArpError(f"move {kind!r} takes one edge label")
            return cls(kind, (args[0],))
        arity = {"delete-component": 1, "delete-vertex": 1, "split-vertex": 3, "split-face": 3, "join": 2}
        if kind not in arity:
            raise ArpError(f"unknown move kind {kind!r}")
        if len(args) != arity[kind]:
            raise ArpError(f"move {kind!r} takes {arity[kind]} integer parameters")
        try:
            return cls(kind, tuple(int(a) for a in args))
        except ValueError:
            raise ArpError(f"move {kind!r} takes integer parameters") from None
