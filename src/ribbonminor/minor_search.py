"""Minor containment for the five move families, and the excluded-minor
characterisations built on it.

A family fixes the legal moves: ``eulerian`` uses proper edge contractions,
component deletions and even vertex splits; ``cc`` (checkerboard colourable)
the same with all contractions allowed; ``even-face`` proper edge deletions,
component deletions and even face splits; ``bipartite`` the same with all
deletions allowed; ``join`` permissible vertex joins, vertex deletions and
edge deletions.  A search state is known by its class's representative
(:func:`canonical_presentation`); for the join family two presentations
count as the same state when their underlying abstract graphs are
isomorphic, since joins only ever feed abstract-graph predicates.

One procedure decides containment.  :func:`_reaches_any` asks whether a
state reaches *some* target of a list, in one depth-first pass per list
that stops at the first successor that reaches and records True and False
for every state it settles.  :func:`contains_minor` is the pass on a
one-target list, and every excluded-minor predicate, the join family's
included, is the pass on its catalog list.  Each characterisation, its
class, its domain and one target list per family, is one row of
``_CHARACTERISATIONS``, which the predicates, ``verify.CHECKS`` and the
catalog's soundness check all read.  :func:`minor_witness` only
builds shortest witnesses, by breadth-first search; the pruning rule both
share is proved there, and the pass's termination in :func:`_reaches_any`.

Both searches take a state's successors from one lazy stream,
:func:`_successors`, which builds them one move at a time and keeps
nothing between queries.  It tests a move's raw result before it
canonicalises it: the ``strays`` test of :func:`_pruning` reads only the
edge count and the isolated-circle count, which every presentation of a
class shares, so a result it drops is never given to
:func:`canonical_presentation`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from math import isqrt
from operator import index
from types import MappingProxyType

from .arrow_core import (
    ArpError,
    ArrowPresentation,
    canonical_presentation,
    euler_genus,
    parse_arp,
    trace_boundaries,
    underlying_graph,
)
from .duality import geometric_dual
from .minor_ops import MinorMove, is_permissible_join, is_proper_contraction
from .predicates import is_bipartite, is_checkerboard_colourable, is_plane

__all__ = [
    "MinorFamily",
    "applicable_moves",
    "bipartite_by_even_face_minors",
    "bipartite_by_excluded_minors",
    "bipartite_by_join_minors",
    "bipartite_plane_by_excluded_minors",
    "cc_by_excluded_eulerian_minors",
    "cc_by_excluded_minors",
    "cc_plane_by_excluded_minors",
    "contains_minor",
    "minor_witness",
    "plane_bipartite_by_excluded_minors",
    "plane_cc_by_excluded_minors",
    "replay_witness",
    "target_catalog",
]


class MinorFamily(str, Enum):
    EULERIAN = "eulerian"
    EVEN_FACE = "even-face"
    CHECKERBOARD = "cc"
    BIPARTITE = "bipartite"
    BIPARTITE_JOIN = "join"

    @classmethod
    def _missing_(cls, name) -> "MinorFamily":
        """Resolve the aliases and any letter case, so that ``MinorFamily(x)``
        and every function taking a family accept what :meth:`parse` does.

        >>> MinorFamily("checkerboard") is MinorFamily("CC") is MinorFamily.CHECKERBOARD
        True
        """
        aliases = {"evenface": "even-face", "checkerboard": "cc", "bipartite-join": "join"}
        if isinstance(name, str):
            value = aliases.get(name.lower(), name.lower())
            for member in cls:
                if member.value == value:
                    return member
        raise ArpError(f"unknown minor family {name!r}")

    @classmethod
    def parse(cls, name: str) -> "MinorFamily":
        return cls(name)


def _even_pairs(m: int):
    """The pairs a <= b of gaps that split a circle with m arrows, or of
    vertex line segments that split a boundary walk with m edge line
    segments, evenly: in order of a, then b.

    A circle with d arrows has max(d, 1) gaps, and gaps a <= b cut it into
    arcs holding b - a and d - (b - a) arrows.  A walk with k edge line
    segments has max(k, 1) vertex line segments, at positions 2a, and the
    same holds with k for d.  Both counts are odd exactly when the count is
    even and b - a is odd.  So every pair splits evenly when the count is
    odd, and the pairs with b - a even do when it is even; a == b always
    does, the one gap of an isolated circle (m == 0) included.

    >>> list(_even_pairs(2)), list(_even_pairs(3))[:4], list(_even_pairs(0))
    ([(0, 0), (1, 1)], [(0, 0), (0, 1), (0, 2), (1, 1)], [(0, 0)])
    """
    n, step = max(m, 1), 1 + (m % 2 == 0)
    for a in range(n):
        for b in range(a, n, step):
            yield a, b


def _tail(t: int, odd: int) -> int:
    """The pairs in the last t rows of :func:`_even_pairs` for a count of
    parity ``odd``: row n - s holds s pairs when the count is odd and
    ⌈s/2⌉ when it is even, which sum to t(t + 1)/2 and ⌊(t + 1)²/4⌋."""
    return t * (t + 1) // 2 if odd else (t + 1) ** 2 // 4


def _even_count(m: int) -> int:
    """How many pairs :func:`_even_pairs` lists for m."""
    return _tail(max(m, 1), m % 2)


def _even_pair(m: int, j: int) -> tuple[int, int]:
    """The j-th pair :func:`_even_pairs` lists for m, in closed form.

    With r pairs after it, its row is the t-th from the end for the least
    t with _tail(t) > r.  When m is odd, t(t + 1)/2 > r gives
    t = ⌊(⌊√(8r + 1)⌋ + 1)/2⌋; when it is even, ⌊(t + 1)²/4⌋ > r, that is
    (t + 1)² >= 4r + 4, gives t = ⌊√(4r + 3)⌋.  Its place in the row is
    _tail(t) - 1 - r, and b steps from a by 1 or 2.

    >>> [_even_pair(3, j) for j in range(4)], _even_pair(2, 1), _even_pair(0, 0)
    ([(0, 0), (0, 1), (0, 2), (1, 1)], (1, 1), (0, 0))
    """
    n, odd = max(m, 1), m % 2
    r = _tail(n, odd) - 1 - j
    t = (isqrt(8 * r + 1) + 1) // 2 if odd else isqrt(4 * r + 3)
    a = n - t
    return a, a + (2 - odd) * (_tail(t, odd) - 1 - r)


class _Moves(Sequence):
    """A read-only move list: the listed moves, then the even splits of one
    kind over the circles or walks whose counts are given, each split built
    only when it is read.  ``[k]`` finds the circle by bisection over the
    running split counts and its pair by :func:`_even_pair`; iteration
    yields the splits in :func:`_even_pairs` order."""

    def __init__(self, listed: tuple, split: str = "", step: int = 1, counts=()):
        self._listed, self._split, self._step = listed, split, step
        self._counts = tuple(counts)

    @cached_property
    def _ends(self) -> list[int]:
        # _ends[i] is the index of circle i's first split, _ends[-1] the
        # length; counted on the first len or index, as the searches only iterate
        return list(accumulate(map(_even_count, self._counts), initial=len(self._listed)))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k) -> MinorMove:
        k = index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("move index out of range")
        if k < len(self._listed):
            return self._listed[k]
        i = bisect_right(self._ends, k) - 1
        a, b = _even_pair(self._counts[i], k - self._ends[i])
        return MinorMove(self._split, (i, self._step * a, self._step * b))

    def __iter__(self):
        yield from self._listed
        split, step = self._split, self._step
        for i, m in enumerate(self._counts):
            for a, b in _even_pairs(m):
                yield MinorMove(split, (i, step * a, step * b))


def applicable_moves(g: ArrowPresentation, family: MinorFamily) -> Sequence[MinorMove]:
    """Every legal move of the family on g, duplicate-free, in a fixed order,
    as a read-only sequence: ``len``, indexing and iteration, and the even
    splits built only where they are read.  Callers that need a tuple, or
    to compare two lists, take ``tuple()`` of it.

    The dual pairs share their lists: cc takes the Eulerian moves and
    bipartite the even-face moves, each without the properness test.  In
    order, Eulerian and cc list component deletions, contractions and
    vertex splits; even-face and bipartite deletions, component deletions
    and face splits; join deletions, vertex deletions and joins.  All but
    the splits are built up front.  The splits are at positions in range
    and at gaps or vertex line segments by construction: all that the
    public gates check before the rule that :func:`_even_pairs` lists, and
    :func:`_even_count` counts, in closed form.
    """
    family = MinorFamily(family)
    if family is MinorFamily.BIPARTITE_JOIN:
        n = g.n_vertices
        return _Moves((*(MinorMove("delete", (e,)) for e in g.labels),
                       *(MinorMove("delete-vertex", (c,)) for c in range(n)),
                       *(MinorMove("join", (c1, c2)) for c1 in range(n) for c2 in range(c1 + 1, n)
                         if is_permissible_join(g, c1, c2))))
    n_comp = len(underlying_graph(g).components())
    comp_dels = [MinorMove("delete-component", (k,)) for k in range(n_comp)]
    if family in (MinorFamily.EULERIAN, MinorFamily.CHECKERBOARD):
        moves = comp_dels + [MinorMove("contract", (e,)) for e in g.labels
                             if family is MinorFamily.CHECKERBOARD or is_proper_contraction(g, e)]
        return _Moves(tuple(moves), "split-vertex", 1, map(len, g.circles))
    # deleting e is proper when contracting it in g* is
    star = geometric_dual(g) if family is MinorFamily.EVEN_FACE else None
    moves = [MinorMove("delete", (e,)) for e in g.labels
             if star is None or is_proper_contraction(star, e)] + comp_dels
    return _Moves(tuple(moves), "split-face", 2, (w.n_edge_segments() for w in trace_boundaries(g)))


# ---------------------------------------------------------------------------
# containment search
# ---------------------------------------------------------------------------

#: Always empty: no search keeps successors between queries; the name stays
#: while bench/child.py reads its len().
_successor_cache: dict = {}


def _successors(g: ArrowPresentation, family: MinorFamily, below, strays):
    """The moves of g that the two tests of :func:`_pruning` keep, with
    their results' representatives, in :func:`applicable_moves` order and
    built one at a time as the search asks.  ``strays`` reads a move's raw
    result, which is canonicalised only if it passes; ``below`` reads the
    representative."""
    for mv in applicable_moves(g, family):
        nxt = mv.apply(g)
        if not strays(g, nxt.n_edges, _isolated_count(nxt)):
            nxt = canonical_presentation(nxt)
            if not below(nxt):
                yield mv, nxt


def _isolated_count(g: ArrowPresentation) -> int:
    return sum(1 for c in g.circles if not c)


def _state_key(g: ArrowPresentation, family: MinorFamily):
    """What a search state is known by: its class's representative, or in
    the join family the isomorphism key of its underlying graph.  Join-family
    moves never add a vertex, so a search's start bounds every state it
    keys, and a start past the key's vertex limit fails before any search
    (:meth:`UnderlyingGraph.canonical_key`)."""
    if family is not MinorFamily.BIPARTITE_JOIN:
        return canonical_presentation(g)
    return underlying_graph(g).canonical_key()


def _pruning(targets, family: MinorFamily):
    """The two pruning tests for a search towards ``targets``:
    ``below(s)``, a state below every target (fewer edges, or in the
    Eulerian family lower Euler genus), and ``strays(s, edges, isolated)``,
    a move from s to a result with those counts of edges and isolated
    circles that leaves fewer edges than every target, or keeps the edge
    count and takes the isolated-circle count further from the targets'.
    Targets with different isolated-circle counts raise RuntimeError, since
    the rule of :func:`minor_witness` is proved for one count.

    ``strays`` takes the counts of a move's raw result.  Both are
    invariants of the class: circle permutation, rotation and reversal,
    edge relabelling and flipping an edge's arrows keep the number of
    labels and of empty circles.  So it answers as the result's
    representative would, and :func:`_successors` canonicalises only a
    result that passes it.  ``below`` reads the representative, through
    ``euler_genus``, an unbounded cache that is given representatives
    only: raw move results, read once, go through the uncached
    ``_genus`` (the lemma checks) or not at all.  Called on raw results,
    the cache filled with entries never looked up again (with the verify
    limit raised, a cold ``verify T1 --max-edges 5`` took 6.4 s and 111 MB
    peak RSS that way, against 4.6 s and 66 MB, on a 2-core host)."""
    counts = {_isolated_count(t) for t in targets}
    if len(counts) != 1:
        raise RuntimeError("the search needs targets that share one isolated-circle count")
    (iso_t,) = counts
    emin = min(t.n_edges for t in targets)
    gmin = min(map(euler_genus, targets)) if family is MinorFamily.EULERIAN else None

    def below(s: ArrowPresentation) -> bool:
        return s.n_edges < emin or (gmin is not None and euler_genus(s) < gmin)

    def strays(s: ArrowPresentation, edges: int, isolated: int) -> bool:
        return edges < emin or (edges == s.n_edges
                                and abs(isolated - iso_t) > abs(_isolated_count(s) - iso_t))

    return below, strays


#: (family, state key, frozenset of target keys) -> whether the state
#: reaches one of the targets; written only by :func:`_reaches_any`.
_contains_cache: dict[tuple, bool] = {}


def contains_minor(g: ArrowPresentation, h: ArrowPresentation, family: MinorFamily) -> bool:
    """Whether some sequence of family moves turns g into a presentation
    equivalent to h (underlying-graph isomorphism for the join family):
    the reach pass on the one-target list."""
    return _reaches_any(g, MinorFamily(family), [h])


def minor_witness(g: ArrowPresentation, h: ArrowPresentation, family: MinorFamily):
    """A shortest move sequence witnessing containment, or None.

    Each move applies to the representative of the previous state's class,
    starting from g's representative; :func:`replay_witness` follows the
    same convention.

    Breadth-first over state keys.  No state below h is expanded, the start
    included: one with fewer edges than h, or with lower Euler genus than h
    in the Eulerian family (no move adds an edge, and Eulerian moves never
    raise the genus).  A successor is also skipped when its move keeps the
    edge count and takes the number of isolated circles further from h's.
    Successors come from :func:`_successors`, which runs the edge and
    isolated-circle tests on each move's raw result, canonicalises only a
    result that passes them and then reads the genus test off the
    representative.

    The isolated-circle rule is sound and keeps the search finite:

    * Finiteness.  No move adds an edge; a state has at most 2E
      non-isolated circles and at most 2E faces that meet an edge.  An
      isolated circle appears only from a move that removes an edge, or
      from a p == q split while the state has fewer isolated circles than
      h.  Join-family moves always lower E + V.
    * Shortest witnesses are kept.  Isolated circles are interchangeable,
      leave every other move's legality, edge count and genus alone, and go
      only by deletion.  A p == q split made when the state already has at
      least as many isolated circles as h must be undone by a later
      isolated deletion, so dropping both moves gives a shorter path.  An
      isolated deletion at or below h's count can be moved to the end
      without changing the length.

    So every pruned move can be bypassed, and the pruning depends only on
    the state and h, never on where the search started.
    """
    family = MinorFamily(family)
    start = canonical_presentation(g)
    start_key, target = _state_key(start, family), _state_key(h, family)
    if start_key == target:
        return []
    below_h, strays = _pruning([h], family)
    seen = {start_key}
    parents: dict = {}
    queue = deque([] if below_h(start) else [(start, start_key)])
    while queue:
        state, skey = queue.popleft()
        for mv, nxt in _successors(state, family, below_h, strays):
            nkey = _state_key(nxt, family)
            if nkey in seen:
                continue
            seen.add(nkey)
            parents[nkey] = (skey, mv)
            if nkey == target:
                moves = []
                while nkey != start_key:
                    nkey, mv = parents[nkey]
                    moves.append(mv)
                return moves[::-1]
            queue.append((nxt, nkey))
    return None


def replay_witness(g: ArrowPresentation, moves) -> ArrowPresentation:
    state = canonical_presentation(g)
    for mv in moves:
        state = canonical_presentation(mv.apply(state))
    return state


# ---------------------------------------------------------------------------
# target catalog
# ---------------------------------------------------------------------------


def _validate_catalog(cat: dict[str, ArrowPresentation]) -> None:
    """Raise RuntimeError unless every target that a list of
    :data:`_CHARACTERISATIONS` names lies in its row's domain and outside
    its class, and the two loops of the plane lists have Euler genus 2 and
    1."""
    bad = []
    for cls, (domain, member, lists) in _CHARACTERISATIONS.items():
        for name in dict.fromkeys(n for names in lists.values() for n in names):
            if domain is not None and not domain(cat[name]):
                bad.append(f"{name} outside the domain of {cls}")
            if member(cat[name]):
                bad.append(f"{name} in {cls}")
    genera = {"triple_interleaved_loops": 2, "twisted_interleaved_loops": 1}
    bad += [f"{name} not genus {k}" for name, k in genera.items() if euler_genus(cat[name]) != k]
    if bad:
        raise RuntimeError("target catalog invariant violated: " + "; ".join(bad))


@lru_cache(maxsize=1)
def target_catalog() -> MappingProxyType[str, ArrowPresentation]:
    """The named excluded-minor targets, validated on first use, as a
    read-only mapping: every caller shares the one cached catalog.

    ``orientable_loop`` and ``nonorientable_loop`` are the one-edge bouquets,
    ``single_edge`` the one edge joining two vertices,
    ``triple_interleaved_loops`` / ``double_interleaved_loops`` the bouquets
    of three / two pairwise interleaved orientable loops, and
    ``twisted_interleaved_loops`` the two interleaved non-orientable loops;
    ``*_dual`` entries are geometric duals.
    """
    cat = {
        "orientable_loop": parse_arp("(e+ e+)"),
        "nonorientable_loop": parse_arp("(e+ e-)"),
        "single_edge": parse_arp("(e+)(e+)"),
        "triple_interleaved_loops": parse_arp("(a+ b+ c+ a+ b+ c+)"),
        "double_interleaved_loops": parse_arp("(a+ b+ a+ b+)"),
        "twisted_interleaved_loops": parse_arp("(a+ b+ a- b-)"),
    }
    cat["triple_interleaved_loops_dual"] = geometric_dual(cat["triple_interleaved_loops"])
    cat["twisted_interleaved_loops_dual"] = geometric_dual(cat["twisted_interleaved_loops"])
    _validate_catalog(cat)
    return MappingProxyType(cat)


# ---------------------------------------------------------------------------
# excluded-minor predicates
# ---------------------------------------------------------------------------


def _reaches_any(g: ArrowPresentation, family: MinorFamily, targets) -> bool:
    """Whether some sequence of family moves turns g into a presentation
    equivalent to one of ``targets`` (underlying-graph isomorphism for the
    join family); the targets must share one isolated-circle count I_t.

    One depth-first pass over state keys (:func:`_state_key`), with an
    explicit stack of :func:`_successors` streams.  A state in the list
    reaches.  Otherwise its successors are built one at a time, in
    :func:`applicable_moves` order, and the state reaches as soon as one of
    them does; so when a successor reaches, every state on the stack does.
    The stream skips a move whose raw result has fewer edges than every
    target, or keeps the edge count and takes the isolated-circle count
    further from I_t, before canonicalising it (``strays``), and a
    representative below every target (``below``), which does not reach.
    Every answer goes into ``_contains_cache`` under ``(family, state key,
    frozenset of the target keys)``, the same answer for every start.

    Sound and complete.  Every followed move is a family move, so True is a
    real containment.  If s contains a target t, :func:`minor_witness`
    proves a move sequence from s to t that passes no state below t and no
    move that keeps the edge count and moves the isolated-circle count away
    from t's, which is I_t.  A state below every target is below t, so
    every state and move of that sequence is followed here.

    Termination.  Write E, I, V and F for the counts of edges, isolated
    circles, circles and boundary components, and D = |I - I_t|.  Every
    followed move lowers, lexicographically, (E, D, -V) in the Eulerian and
    cc families, (E, D, -F) in the even-face and bipartite families and
    (E, D, V) in the join family:

    * deletions and contractions lower E, and so does deleting a component
      or a vertex that meets an edge; deleting an isolated circle keeps E
      and lowers I, so it is followed only when it lowers D;
    * a split with p == q keeps E and adds an isolated circle, so it is
      followed only when it lowers D;
    * a vertex split at gaps p != q cuts a circle into two arcs of at least
      one arrow each, so it keeps E and I and raises V; a face split at
      walk positions p != q keeps E and I (it merges two circles that carry
      arrows, cuts one at two distinct gaps, or reverses an arc) and raises
      F, since it contracts an edge placed across the face so as to split
      it in two, and contraction keeps F;
    * a join merges two circles that share a neighbour, so both carry
      arrows: it keeps E and I and lowers V.

    A state has at most 2E + I circles and 2E + I boundary components, so
    every order admits no infinite descending chain, and the pass ends.  A
    state met again on the stack would break this argument: it raises
    RuntimeError instead of being answered.
    """
    below, strays = _pruning(targets, family)
    keys = frozenset(_state_key(t, family) for t in targets)

    def known(key) -> bool | None:
        return True if key in keys else _contains_cache.get((family, key, keys))

    start = canonical_presentation(g)
    start_key = _state_key(start, family)
    # no target is below the targets, so a start below them is not one;
    # _successors drops every other state below them
    got = False if below(start) else known(start_key)
    if got is not None:
        return got
    stack = [(start_key, _successors(start, family, below, strays))]
    on_stack = {start_key}
    while stack:
        key, successors = stack[-1]
        for mv, nxt in successors:
            nkey = _state_key(nxt, family)
            if nkey in on_stack:
                raise RuntimeError(f"the reach pass met {nkey} again by {mv} from {key}")
            got = known(nkey)
            if got is None:
                stack.append((nkey, _successors(nxt, family, below, strays)))
                on_stack.add(nkey)
                break
            if got:
                for k, _ in stack:
                    _contains_cache[(family, k, keys)] = True
                return True
        else:
            stack.pop()
            on_stack.remove(key)
            _contains_cache[(family, key, keys)] = False
    return False


#: class -> (domain or None, class predicate, {family: target names}), one
#: row per excluded-minor characterisation: a presentation in the domain
#: (any, for None) is in the class exactly when it has no minor of the
#: family equivalent to a target of the family's list.  The reach pass
#: decides that soundly only for targets in the domain and outside the
#: class, which :func:`_validate_catalog` checks of every list.  A row's
#: families are in the order a wrong family's error names them.
_CHARACTERISATIONS = {
    "cc": (None, is_checkerboard_colourable, {
        MinorFamily.CHECKERBOARD: ("single_edge", "nonorientable_loop"),
        MinorFamily.EULERIAN: ("single_edge", "nonorientable_loop", "double_interleaved_loops")}),
    "bipartite": (None, is_bipartite, {
        MinorFamily.BIPARTITE: ("orientable_loop", "nonorientable_loop"),
        MinorFamily.EVEN_FACE: ("orientable_loop", "nonorientable_loop", "double_interleaved_loops"),
        MinorFamily.BIPARTITE_JOIN: ("orientable_loop", "nonorientable_loop")}),
    "plane cc": (is_checkerboard_colourable, is_plane, dict.fromkeys(
        (MinorFamily.CHECKERBOARD, MinorFamily.EULERIAN),
        ("triple_interleaved_loops", "twisted_interleaved_loops"))),
    "plane bipartite": (is_bipartite, is_plane, dict.fromkeys(
        (MinorFamily.BIPARTITE, MinorFamily.EVEN_FACE),
        ("triple_interleaved_loops_dual", "twisted_interleaved_loops_dual"))),
    "cc plane": (None, lambda g: is_checkerboard_colourable(g) and is_plane(g), {
        MinorFamily.CHECKERBOARD: ("single_edge", "nonorientable_loop", "triple_interleaved_loops",
                                   "twisted_interleaved_loops"),
        MinorFamily.EULERIAN: ("single_edge", "nonorientable_loop", "triple_interleaved_loops",
                               "double_interleaved_loops", "twisted_interleaved_loops")}),
    "bipartite plane": (None, lambda g: is_bipartite(g) and is_plane(g), {
        MinorFamily.BIPARTITE: ("orientable_loop", "nonorientable_loop", "triple_interleaved_loops_dual",
                                "twisted_interleaved_loops_dual"),
        MinorFamily.EVEN_FACE: ("orientable_loop", "nonorientable_loop", "triple_interleaved_loops_dual",
                                "double_interleaved_loops", "twisted_interleaved_loops_dual")}),
}


def _excludes(g: ArrowPresentation, cls: str, family: str) -> bool:
    """Whether g has no family minor equivalent to a target of the list
    that class ``cls``'s row gives the family; a family the row lacks is an
    ArpError naming the row's families."""
    lists = _CHARACTERISATIONS[cls][2]
    fam = MinorFamily(family)
    if fam not in lists:
        raise ArpError("family must be " + " or ".join(repr(f.value) for f in lists))
    cat = target_catalog()
    return not _reaches_any(g, fam, [cat[n] for n in lists[fam]])


def cc_by_excluded_minors(g: ArrowPresentation) -> bool:
    """Checkerboard colourability via excluded checkerboard-colourable
    minors: no minor equivalent to the single edge or the twisted loop."""
    return _excludes(g, "cc", "cc")


def cc_by_excluded_eulerian_minors(g: ArrowPresentation) -> bool:
    """Checkerboard colourability via excluded Eulerian minors."""
    return _excludes(g, "cc", "eulerian")


def bipartite_by_excluded_minors(g: ArrowPresentation) -> bool:
    """Bipartiteness via excluded bipartite minors."""
    return _excludes(g, "bipartite", "bipartite")


def bipartite_by_even_face_minors(g: ArrowPresentation) -> bool:
    """Bipartiteness via excluded even-face minors."""
    return _excludes(g, "bipartite", "even-face")


def bipartite_by_join_minors(g: ArrowPresentation) -> bool:
    """Bipartiteness via excluded join minors (abstract-graph equivalence)."""
    return _excludes(g, "bipartite", "join")


def plane_cc_by_excluded_minors(g: ArrowPresentation, family: str = "cc") -> bool:
    """For checkerboard colourable g: planarity via excluded minors of the
    checkerboard-colourable (default) or Eulerian family."""
    return _excludes(g, "plane cc", family)


def plane_bipartite_by_excluded_minors(g: ArrowPresentation, family: str = "bipartite") -> bool:
    """For bipartite g: planarity via excluded minors of the bipartite
    (default) or even-face family."""
    return _excludes(g, "plane bipartite", family)


def cc_plane_by_excluded_minors(g: ArrowPresentation, family: str = "cc") -> bool:
    """Checkerboard colourable *and* plane, via a single enlarged exclusion
    list, with no precondition on g."""
    return _excludes(g, "cc plane", family)


def bipartite_plane_by_excluded_minors(g: ArrowPresentation, family: str = "bipartite") -> bool:
    """Bipartite *and* plane, via a single enlarged exclusion list."""
    return _excludes(g, "bipartite plane", family)
