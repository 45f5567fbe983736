"""Partial duality and geometric duality for arrow presentations.

The partial dual with respect to an edge e swaps the roles of e's arrow arcs
and its two boundary jump segments: the arcs carrying the arrows of e are
removed and two new arrows of the same label are drawn from the head of each
old arrow to the tail of the other; the circles are then re-closed from the
surviving arcs.  Dualising a subset of edges does this for each member, and
the outcome does not depend on the order.
"""

from __future__ import annotations

from typing import Container, Iterable

from .arrow_core import ArpError, ArrowPresentation, Circle, _faces

__all__ = ["geometric_dual", "partial_dual"]


def _dual_words(g: ArrowPresentation, a: Container[str] | None) -> list[Circle]:
    """The circles of g^A for labels A of g, or of g* for ``a`` None,
    unvalidated: the words of the boundary walk that crosses the edges of
    A, whose every arrow or jump segment is an arrow of the dual, + when
    walked along it.  Isolated circles come out as empty words and are
    sorted last; otherwise the words keep the walk's order.
    """
    return sorted(_faces(g, a), key=lambda w: not w)


def partial_dual(g: ArrowPresentation, edges: Iterable[str]) -> ArrowPresentation:
    """The partial dual of g with respect to a set of edge labels.

    Write g|A for the spanning ribbon subgraph with every circle of g and
    only the edges in A.  The vertices of g^A are the boundary components
    of g|A, and its boundary components are those of g|A^c; the edges and
    the connected components are kept.  So the Euler genus of g^A is
    2k + |E| - f(g|A) - f(g|A^c) (Chmutov, JCTB 2009): it equals that of g
    when A = E(g), but not in general.

    >>> from .arrow_core import canonicalize
    >>> g = ArrowPresentation.from_text("(e+ e+)")
    >>> canonicalize(partial_dual(g, {"e"}))
    '(a+)(a+)'
    """
    if isinstance(edges, str):
        raise ArpError(f"edge labels must be given as a collection, not the string {edges!r}")
    try:
        a = frozenset(edges)
    except TypeError:  # not iterable, or an unhashable member
        raise ArpError(f"edge labels must be a collection of strings, got {edges!r}") from None
    if not a:
        return g
    missing = a.difference(g.labels)
    if missing:  # non-strings before strings, each by its text, so that any labels compare
        raise ArpError(f"label {min(missing, key=lambda x: (isinstance(x, str), str(x)))!r} not present")
    return ArrowPresentation._of(_dual_words(g, a))


def geometric_dual(g: ArrowPresentation) -> ArrowPresentation:
    """The geometric dual: the partial dual with respect to every edge.

    Vertices and boundary components exchange roles: the dual has |F(g)|
    vertices and |V(g)| boundary components.
    """
    return partial_dual(g, g.labels)
