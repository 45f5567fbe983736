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

from typing import NamedTuple, Union

from .arrow_core import (
    ArpError,
    ArrowPresentation,
    BoundaryComponent,
    Circle,
    Segment,
    _lookup,
    _reversed,
    trace_boundaries,
    underlying_graph,
)
from .duality import _dual_words, geometric_dual

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
    # a label is a string; any other value, unhashable ones included, is
    # not one of g's
    if not isinstance(e, str) or e not in g.labels:
        raise ArpError(f"label {e!r} not present")


# ---------------------------------------------------------------------------
# deletion / contraction
# ---------------------------------------------------------------------------


def delete_edge(g: ArrowPresentation, e: str) -> ArrowPresentation:
    """Remove both arrows of e; circles are otherwise untouched."""
    _check_label(g, e)
    return ArrowPresentation._of(tuple(a for a in c if a[0] != e) for c in g.circles)


def contract_edge(g: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract e: dualise with respect to e, then delete it.

    A non-loop merges two circles; an orientable loop splits its circle in
    two; a non-orientable loop leaves one circle.  The circles of g^{e} are
    read from one boundary walk and e is dropped from them before one
    presentation is built.

    >>> contract_edge(ArrowPresentation.from_text("(e+ e+)"), "e").to_text()
    '()()'
    """
    _check_label(g, e)
    return ArrowPresentation._of(tuple(a for a in w if a[0] != e) for w in _dual_words(g, (e,)))


def delete_component(g: ArrowPresentation, comp: int) -> ArrowPresentation:
    """Remove a connected component (given by index, components ordered by
    smallest circle id) together with all its circles and edges."""
    comps = underlying_graph(g).components()
    if type(comp) is not int or not 0 <= comp < len(comps):
        raise ArpError(f"unknown component {comp!r}")
    drop = comps[comp]
    return ArrowPresentation._of(c for ci, c in enumerate(g.circles) if ci not in drop)


def delete_vertex(g: ArrowPresentation, circle: int) -> ArrowPresentation:
    """Remove a circle and every edge with an occurrence on it."""
    g._check_circle(circle)
    doomed = {lab for lab, _ in g.circles[circle]}
    return ArrowPresentation._of(
        tuple(a for a in c if a[0] not in doomed) for ci, c in enumerate(g.circles) if ci != circle
    )


# ---------------------------------------------------------------------------
# distances and the cut rule
# ---------------------------------------------------------------------------
#
# Every distance and every evenness gate below cuts a cyclic sequence of
# length n at two positions i and j and reads how many counted items lie
# strictly inside each of the two arcs.  In every such sequence the counted
# items sit at the odd positions:
# - a boundary walk: vertex line segments at even positions, edge line
#   segments at odd ones (see BoundaryComponent);
# - a circle with d arrows, read as its gaps and arrows alternately: gap j
#   at position 2j and the arrow after it at 2j + 1 (n = 2d), so arrow j
#   sits at 2j - 1 mod 2d.  Shifting every position by the same even
#   amount changes no count, so the two arrows of a loop at p1 < p2 may be
#   read at 2 * p1 + 1 and 2 * p2 + 1.
# A distance is the smaller count; a move is proper, or a split even,
# unless both counts are odd.


def _cut(n: int, i: int, j: int) -> tuple[int, int]:
    """Odd positions strictly inside each of the two arcs between positions
    i and j of a cyclic sequence of length n (even, or 1); (0, all the odd
    positions other than i) when i == j."""
    if i == j:
        return 0, n // 2 - i % 2
    i, j = sorted((i, j))
    inside = j // 2 - (i + 1) // 2
    return inside, n // 2 - inside - i % 2 - j % 2


def _not_both_odd(counts: tuple[int, int]) -> bool:
    return not (counts[0] % 2 == 1 and counts[1] % 2 == 1)


def _loop_cut(g: ArrowPresentation, e: str) -> tuple[int, int]:
    (c, p1), (_, p2) = g.occurrences[e]
    return _cut(2 * g.degree(c), 2 * p1 + 1, 2 * p2 + 1)


def dual_distance(g: ArrowPresentation, e: str) -> int:
    """For a loop e, the fewer arrows strictly between its two occurrences.

    >>> dual_distance(ArrowPresentation.from_text("(a+ b+ a+ b+)"), "a")
    1
    """
    _check_label(g, e)
    (c1, _), (c2, _) = g.occurrences[e]
    if c1 != c2:
        raise ArpError(f"label {e!r} is not a loop")
    return min(_loop_cut(g, e))


def _gap_cut(g: ArrowPresentation, circle: int, p: int, q: int) -> tuple[int, int]:
    ngaps = g.n_gaps(circle)
    for pos in (p, q):
        if type(pos) is not int or not 0 <= pos < ngaps:
            raise ArpError(f"invalid position {pos!r} (circle has {ngaps} gaps)")
    return _cut(2 * g.degree(circle), 2 * p, 2 * q)


def vls_dual_distance(g: ArrowPresentation, circle: int, p: int, q: int) -> int:
    """Fewest arrows strictly between gaps p and q of a circle, either way."""
    return min(_gap_cut(g, circle, p, q))


def _boundary(g: ArrowPresentation, b: int) -> BoundaryComponent:
    """Boundary component b of g, for a valid walk index b."""
    boundaries = trace_boundaries(g)
    if type(b) is not int or not 0 <= b < len(boundaries):
        raise ArpError(f"unknown boundary component {b!r}")
    return boundaries[b]


def _position(walk: BoundaryComponent, s: int) -> int:
    """s, for a valid integer position on the walk."""
    if type(s) is not int or not 0 <= s < len(walk.segments):
        raise ArpError(f"invalid boundary position {s!r}")
    return s


def boundary_distance(
    g: ArrowPresentation, b: Union[BoundaryComponent, int], s: Union[Segment, int], t: Union[Segment, int]
) -> int:
    """Fewest edge line segments strictly between s and t along the boundary
    component b, either way round.  b may be a walk or a walk index, and s
    and t segments or positions."""
    if not isinstance(b, BoundaryComponent):
        b = _boundary(g, b)
    return min(_cut(len(b), *(_position(b, x) if isinstance(x, int) else b.position_of(x) for x in (s, t))))


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------


def is_orientable_loop(g: ArrowPresentation, e: str) -> bool:
    """Both occurrences on one circle with directions consistent along it."""
    _check_label(g, e)
    (c1, p1), (c2, p2) = g.occurrences[e]
    return c1 == c2 and g.sign_of(c1, p1) == g.sign_of(c2, p2)


def is_proper_contraction(g: ArrowPresentation, e: str) -> bool:
    """Contraction is proper unless e is an orientable loop whose dual
    distance is odd, i.e. whose occurrences cut the remaining arrows of the
    vertex into two groups of odd size.

    On an even-degree vertex the two groups share their parity, so the test
    is simply that the dual distance is odd; requiring both groups odd
    extends it coherently to odd-degree vertices.
    """
    # is_orientable_loop checks the label
    return not is_orientable_loop(g, e) or _not_both_odd(_loop_cut(g, e))


def is_proper_deletion(g: ArrowPresentation, e: str) -> bool:
    """Deletion is proper exactly when contracting the corresponding edge of
    the geometric dual is proper."""
    # the dual has g's labels, so the contraction test checks the label
    return is_proper_contraction(geometric_dual(g), e)


# ---------------------------------------------------------------------------
# evenly splitting a vertex / a face
# ---------------------------------------------------------------------------


def _cut_circle(c: Circle, j: int, k: int) -> tuple[Circle, Circle]:
    """The two arcs of circle c between gaps j and k, each read along c; with
    j == k, c read from gap j and an empty arc."""
    j, k = sorted((j, k))
    if j == k:
        return c[j + 1 :] + c[: j + 1], ()
    return c[j + 1 : k + 1], c[k + 1 :] + c[: j + 1]


def can_split_vertex(g: ArrowPresentation, circle: int, p: int, q: int) -> bool:
    """Whether gaps p and q admit an even vertex split: the two groups of
    arrows they separate must not both be odd.  On an even-degree vertex the
    groups share their parity, so this is exactly evenness of the dual
    distance."""
    return _not_both_odd(_gap_cut(g, circle, p, q))


def split_vertex(g: ArrowPresentation, circle: int, p: int, q: int) -> ArrowPresentation:
    """Evenly split a vertex at gaps p and q.

    Cuts the circle at the two gaps; each arc closes into its own circle.
    With p == q one arc is empty and closes into an isolated vertex.

    >>> split_vertex(ArrowPresentation.from_text("(a+ b+ a+ b+)"), 0, 0, 2).to_text()
    '(b+ a+)(b+ a+)'
    """
    if not can_split_vertex(g, circle, p, q):
        raise ArpError("dual distance is odd")
    return ArrowPresentation._of(
        g.circles[:circle] + _cut_circle(g.circles[circle], p, q) + g.circles[circle + 1 :]
    )


def can_split_face(g: ArrowPresentation, b: int, p: int, q: int) -> bool:
    """Whether positions p and q on boundary component b admit an even face
    split: both must be vertex line segments, and the two arcs between them
    must not both carry an odd number of edge line segments (on an even
    boundary component this is exactly evenness of the distance)."""
    walk = _boundary(g, b)
    for pos in (p, q):
        if _position(walk, pos) % 2:
            raise ArpError(f"position {pos} is not a vertex line segment")
    return _not_both_odd(_cut(len(walk), p, q))


def split_face(g: ArrowPresentation, b: int, p: int, q: int) -> ArrowPresentation:
    """Evenly split a face: p and q are positions of vertex line segments on
    boundary component b.

    The split places a new edge x on the two segments, its arrows directed
    along the walk, and contracts it; the result is read off g's circles
    directly.  Let gap j of circle ci be at walk position p, walked in
    direction s, and gap k of circle ck at q, walked in direction t.
    (i) ci != ck: the two circles merge, each read from its gap in its walk
    direction (read backwards, with its signs flipped, for -1).
    (ii) ci == ck and s == t: the circle is cut at the two gaps, as
    :func:`split_vertex` cuts it; p == q is j == k, and the empty arc closes
    into an isolated circle.
    (iii) ci == ck and s != t: one circle remains, the first arc of the cut
    followed by the second, reversed with its signs flipped.
    The new circles take ci's place; every other circle keeps its text, and
    the circles keep their order.

    Proof: x is a non-loop in (i), an orientable loop in (ii) and a
    non-orientable loop in (iii).  Contracting x dualises at x and deletes
    it, so the new circles are traced along the circles of g, away from x's
    arrows, and along x's two jump segments, each from the head of one
    arrow of x to the tail of the other (Chmutov, JCTB 2009).  Read a circle
    from an arrow of x on it, reversed with its signs flipped when that
    arrow is -, so the arrow reads x+.  In (i), the rest of each circle is
    then the circle read from its gap in its walk direction, and in
    (x+ A)(x+ B) the head of the first x runs through A to its tail, jumps
    to the head of the second, runs through B to its tail and jumps home:
    one circle (A B).  In (ii), (x+ A x+ B): the head of the first x runs
    through A to the tail of the second and jumps home, and likewise for B,
    so the arcs A and B close into two circles, each of which may be read
    either way round.  In (iii), (x+ A x- B): the second x is met head
    first, so the head of the first x runs through A, jumps from the head
    of the second to the tail of the first, runs back through B against the
    circle to the tail of the second and jumps home: one circle, A followed
    by B reversed with its signs flipped.  Reading the circle from the
    other arrow of x instead reverses that circle, which changes no class.

    Merging the first two circles of a triangle at its first face:

    >>> g = ArrowPresentation.from_text("(a+ b+)(b+ c+)(c+ a+)")
    >>> split_face(g, 0, 0, 2).to_text()
    '(b+ a+ c+ b+)(c+ a+)'
    """
    if not can_split_face(g, b, p, q):
        raise ArpError("distance is odd")
    walk = trace_boundaries(g)[b]
    (ci, j), (ck, k) = walk.segments[p], walk.segments[q]
    s, t = walk.directions[p], walk.directions[q]
    circles = list(g.circles)
    if ci != ck:
        arc_p, arc_q = _cut_circle(circles[ci], j, j)[0], _cut_circle(circles[ck], k, k)[0]
        circles[ci] = (arc_p if s > 0 else _reversed(arc_p)) + (arc_q if t > 0 else _reversed(arc_q))
        del circles[ck]
    else:
        arc_a, arc_b = _cut_circle(circles[ci], j, k)
        circles[ci : ci + 1] = (arc_a, arc_b) if s == t else (arc_a + _reversed(arc_b),)
    return ArrowPresentation._of(circles)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def _check_pair(g: ArrowPresentation, c1: int, c2: int) -> None:
    """c1 and c2 must be two distinct circles of g, as a join takes them."""
    g._check_circle(c1)
    g._check_circle(c2)
    if c1 == c2:
        raise ArpError("cannot join a circle with itself")


def join_vertices(g: ArrowPresentation, c1: int, c2: int) -> ArrowPresentation:
    """Merge two vertex discs by splicing their circles at position 0.

    The splice position is immaterial for everything built on the underlying
    abstract graph, so a single canonical choice is used.
    """
    _check_pair(g, c1, c2)
    i, j = sorted((c1, c2))
    merged = g.circles[c1] + g.circles[c2]
    circles = list(g.circles)
    circles[i] = merged
    del circles[j]
    return ArrowPresentation._of(circles)


def is_permissible_join(g: ArrowPresentation, c1: int, c2: int) -> bool:
    """True when some third, distinct vertex neighbours both c1 and c2."""
    _check_pair(g, c1, c2)
    ug = underlying_graph(g)
    common = ug.neighbors(c1) & ug.neighbors(c2)
    return bool(common - {c1, c2})


# ---------------------------------------------------------------------------
# move records
# ---------------------------------------------------------------------------


class MinorMove(NamedTuple):
    """One atomic move, replayable against a concrete presentation.

    An immutable named tuple ``(kind, params)``: hashable and equal by
    value, and cheap to build in the bulk that move listing needs.
    ``KINDS`` maps each kind to its move function, its parameter names and
    a one-line description, which the command line's help reads: an
    ``edge`` is a label, every other parameter is an integer (a component,
    circle or boundary index, or a gap or walk position).
    """

    kind: str
    params: tuple

    KINDS = {
        "contract": (contract_edge, ("edge",), "contract an edge"),
        "delete": (delete_edge, ("edge",), "delete an edge"),
        "delete-component": (delete_component, ("component",), "delete a connected component by index"),
        "split-vertex": (split_vertex, ("circle", "p", "q"), "evenly split a vertex at two gaps"),
        "split-face": (split_face, ("boundary", "p", "q"), "evenly split a face at two vertex line segments"),
        "join": (join_vertices, ("c1", "c2"), "join two vertices"),
        "delete-vertex": (delete_vertex, ("circle",), "delete a vertex and its incident edges"),
    }

    def apply(self, g: ArrowPresentation) -> ArrowPresentation:
        fn, names, _ = _lookup(self.KINDS, self.kind, "move kind")
        params = self.params
        # params is a tuple, or a list as a caller may build it; a plain
        # tuple, what move listing builds, is recognised by its class alone,
        # which costs the hot path no call
        if params.__class__ is not tuple and not isinstance(params, (tuple, list)) or len(params) != len(names):
            raise self._arity_error(self.kind, names)
        return fn(g, *params)

    @staticmethod
    def _arity_error(kind: str, names: tuple[str, ...]) -> ArpError:
        if names == ("edge",):
            return ArpError(f"move {kind!r} takes one edge label")
        return ArpError(f"move {kind!r} takes {len(names)} integer parameters")

    def __str__(self) -> str:
        return " ".join([self.kind, *map(str, self.params)])

    @classmethod
    def parse(cls, line: str) -> "MinorMove":
        if not isinstance(line, str):
            raise ArpError(f"a move line must be a str, not {type(line).__name__}")
        parts = line.split()
        if not parts:
            raise ArpError("empty move line")
        kind, args = parts[0], parts[1:]
        names = _lookup(cls.KINDS, kind, "move kind")[1]
        if len(args) != len(names):
            raise cls._arity_error(kind, names)
        if names == ("edge",):
            return cls(kind, (args[0],))
        try:
            return cls(kind, tuple(int(a) for a in args))
        except ValueError:
            raise ArpError(f"move {kind!r} takes integer parameters") from None
