"""Partial duality and geometric duality for arrow presentations.

The partial dual with respect to an edge e swaps the roles of e's arrow arcs
and its two boundary jump segments: the arcs carrying the arrows of e are
removed and two new arrows of the same label are drawn from the head of each
old arrow to the tail of the other; the circles are then re-closed from the
surviving arcs.  Dualising a subset of edges does this for each member, and
the outcome does not depend on the order.
"""

from __future__ import annotations

from typing import Iterable

from .arrow_core import ArpError, ArrowPresentation, _boundary_arcs, _trace_cycles

__all__ = ["geometric_dual", "partial_dual"]


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
    a = frozenset(edges)
    if not a:
        return g
    labels = g.labels
    missing = a - set(labels)
    if missing:
        raise ArpError(f"label {sorted(missing)[0]!r} not present")

    # The dual's circles are the cycles of the walk that crosses the edges of
    # A; each arrow or jump segment met on a cycle is an arrow of the dual,
    # + when walked along it.  Isolated circles come out as empty words.
    arcs = _boundary_arcs(g, a)
    first = len(arcs) - 2 * len(labels)  # the gaps come first, then two arcs per label
    words = [
        tuple((labels[(i - first) // 2], d) for i, d in cycle if i >= first)
        for cycle in _trace_cycles(arcs)
    ]
    return ArrowPresentation(sorted(words, key=lambda w: not w))  # isolated circles last


def geometric_dual(g: ArrowPresentation) -> ArrowPresentation:
    """The geometric dual: the partial dual with respect to every edge.

    Vertices and boundary components exchange roles: the dual has |F(g)|
    vertices and |V(g)| boundary components.
    """
    return partial_dual(g, g.labels)
