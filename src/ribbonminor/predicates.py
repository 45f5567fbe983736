"""Decision procedures for the ribbon-graph classes.

All of these are pure functions of a presentation: Eulerian (all vertex
degrees even), even-face (every boundary component carries an even number of
edge line segments), checkerboard colourable (boundary components can be
2-coloured so the two edge line segments of every edge get different
colours), bipartite (no odd cycle in the underlying graph), and plane (Euler
genus zero).
"""

from __future__ import annotations

from .arrow_core import ArrowPresentation, _edge_ends, _faces, _traverse, euler_genus, trace_boundaries

__all__ = [
    "checkerboard_colouring",
    "is_bipartite",
    "is_checkerboard_colourable",
    "is_eulerian",
    "is_even_face",
    "is_plane",
]


def is_eulerian(g: ArrowPresentation) -> bool:
    """Every circle carries an even number of arrows."""
    return all(len(c) % 2 == 0 for c in g.circles)


def is_even_face(g: ArrowPresentation) -> bool:
    """Every boundary component has an even number of edge line segments."""
    return all(b.n_edge_segments() % 2 == 0 for b in trace_boundaries(g))


def checkerboard_colouring(g: ArrowPresentation) -> dict[int, int] | None:
    """A 2-colouring of boundary components separating the two edge line
    segments of every edge, or None when no such colouring exists.

    Each edge constrains the components holding its two sides to differ, so
    this is 2-colourability of the constraint multigraph on components; an
    edge with both sides on one component rules a colouring out.  The least
    boundary index of each component of the constraint multigraph gets
    colour 0, which makes the colouring unique.
    """
    # the faces of trace_boundaries, in its order, traced without its cache;
    # each label's two sides are the two places it occurs in the words
    faces = _faces(g, g.occurrences)
    sides: dict[str, list[int]] = {}
    for fi, word in enumerate(faces):
        for lab, _ in word:
            sides.setdefault(lab, []).append(fi)
    colour = _traverse(len(faces), sides.values())[1]
    return None if colour is None else dict(enumerate(colour))


def is_checkerboard_colourable(g: ArrowPresentation) -> bool:
    """
    >>> is_checkerboard_colourable(ArrowPresentation.from_text("(e+ e+)"))
    True
    >>> is_checkerboard_colourable(ArrowPresentation.from_text("(e+)(e+)"))
    False
    """
    return checkerboard_colouring(g) is not None


def is_bipartite(g: ArrowPresentation) -> bool:
    """No odd cycle in the underlying abstract graph; any loop disqualifies."""
    return _traverse(g.n_vertices, _edge_ends(g))[1] is not None


def is_plane(g: ArrowPresentation) -> bool:
    return euler_genus(g) == 0
