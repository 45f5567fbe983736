"""Arrow presentations of ribbon graphs.

A ribbon graph (a surface with boundary built from vertex discs and edge
discs) is encoded as an *arrow presentation*: a collection of circles, each
carrying a cyclic sequence of labelled, directed marking arrows, such that
every label occurs on exactly two arrows.  The two arrows sharing a label
form an edge; each circle is a vertex; a circle with no arrows is an
isolated vertex.

This module owns the data model and the operations that read it directly:
boundary tracing, Euler genus, the underlying abstract graph, and canonical
forms / equivalence testing.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Union

__all__ = [
    "ArpError",
    "ArrowPresentation",
    "BoundaryComponent",
    "EdgeLineSegment",
    "UnderlyingGraph",
    "VertexLineSegment",
    "canonical_presentation",
    "canonicalize",
    "euler_genus",
    "format_arp",
    "is_equivalent",
    "parse_arp",
    "trace_boundaries",
    "underlying_graph",
]

#: Sign of an arrow relative to its circle's stored traversal order:
#: +1 if the arrow points along the traversal, -1 if it opposes it.
Sign = int
Arrow = tuple[str, Sign]
Circle = tuple[Arrow, ...]

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN_RE = re.compile(r"([A-Za-z0-9_]+)([+-])\Z")


class ArpError(ValueError):
    """Malformed arrow-presentation data or text."""


def _lookup(table, key, what: str):
    """``table[key]``, or an ArpError naming the unknown ``what`` for a key
    that is missing or unhashable: the one failure path of every lookup of a
    name (move kind, check id) in a table."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise ArpError(f"unknown {what} {key!r}") from None


def _malformed(circles, circle, circ) -> str:
    """What the constructor reports when iterating ``circles`` or unpacking
    an arrow fails: ``circle`` is the circle being read and ``circ`` its
    arrows read so far, both None when no circle was read."""
    if circ is None:
        return f"bad circle list {circles!r}: not an iterable of circles"
    try:
        return f"bad arrow {circle[len(circ)]!r}: not a (label, sign) pair"
    except (LookupError, TypeError):  # no arrow to name by position
        return f"bad circle {circle!r}: not an iterable of (label, sign) pairs"


def _miscount(circles: tuple[Circle, ...]) -> ArpError:
    """The error for circles in which some label does not occur exactly
    twice, naming the least such label and its count."""
    counts = Counter(label for circle in circles for label, _ in circle)
    lab = min(lab for lab, k in counts.items() if k != 2)
    return ArpError(f"label {lab!r} occurs {counts[lab]} times (exactly 2 required)")


class ArrowPresentation:
    """An immutable set of circles with paired, labelled, directed arrows.

    ``circles`` is a tuple of circles; each circle is a tuple of
    ``(label, sign)`` pairs read in the circle's stored traversal order.
    Every label must occur exactly twice across all circles.  Instances are
    value objects: hashable, comparable, and safe to share.

    ``labels`` holds the labels in sorted order, each once; it is kept at
    construction, where the count check sorts the labels anyway, and
    ``n_edges`` is its length.  ``occurrences`` maps each label, in sorted
    order, to its two positions ``(circle, index)`` in reading order.  It is
    built on its first read and kept: the boundary walks pair each label's
    arrows themselves, so a presentation that is only walked, counted,
    hashed or canonicalised never builds it; the readers of positions do.

    Presentations are validated once, on input from outside the program:
    the constructor checks every arrow, then :meth:`_set` checks that
    every label occurs exactly twice.  Move results, partial duals,
    canonical representatives and parsed text are built by :meth:`_of`,
    which only makes that count check: their arrows are copied from a
    validated presentation, flipped, canonical, or read from tokens that
    :func:`parse_arp` has checked.

    >>> ArrowPresentation([[("e", 1), ("e", -1)]]).to_text()
    '(e+ e-)'
    """

    __slots__ = ("circles", "labels", "_hash", "_occurrences")

    def __init__(self, circles: Iterable[Iterable[Arrow]] = ()):
        circs = []
        circle = circ = None
        try:
            for circle in circles:
                circ = []
                for label, sign in circle:
                    if not isinstance(label, str) or not _LABEL_RE.match(label):
                        raise ArpError(f"bad edge label {label!r}")
                    if type(sign) is not int or sign not in (1, -1):
                        raise ArpError(f"bad sign {sign!r} for label {label!r}")
                    circ.append((label, sign))
                circs.append(tuple(circ))
        except ArpError:
            raise
        except (TypeError, ValueError):
            raise ArpError(_malformed(circles, circle, circ)) from None
        self._set(tuple(circs))

    @classmethod
    def _of(cls, circles: Iterable[Circle]) -> "ArrowPresentation":
        """A presentation of circles that are tuples of valid arrows, which
        are not checked again; each label must still occur exactly twice."""
        self = object.__new__(cls)
        self._set(tuple(circles))
        return self

    def _set(self, circles: tuple[Circle, ...]) -> None:
        """Set the circles, the sorted ``labels`` and the hash; each label
        must occur exactly twice.

        The labels of all arrows are sorted once.  Every label occurs
        exactly twice when the list's even and odd slices are equal and the
        even slice holds no label twice (a label met four times fills two
        places of it); an odd count makes the slices unequal.  Otherwise
        :func:`_miscount` names the least label that does not.
        """
        flat = sorted([label for circle in circles for label, _ in circle])
        labels = flat[::2]
        if labels != flat[1::2] or len(set(labels)) != len(labels):
            raise _miscount(circles)
        self.circles: tuple[Circle, ...] = circles
        self.labels: tuple[str, ...] = tuple(labels)
        self._hash = hash(circles)

    # -- basic views ---------------------------------------------------

    @property
    def occurrences(self) -> Mapping[str, tuple[tuple[int, int], tuple[int, int]]]:
        """Each label, in sorted order, mapped to its two positions
        ``(circle, index)`` in reading order: a read-only view, built on
        its first read and kept."""
        try:
            return self._occurrences
        except AttributeError:
            pass
        # a first sighting pairs a position with itself, the second
        # replaces that pair with the first position and its own
        first: dict[str, tuple[int, int]] = {}
        pairs = dict.fromkeys(self.labels)
        for ci, circle in enumerate(self.circles):
            for j, (label, _) in enumerate(circle):
                pairs[label] = (first.setdefault(label, (ci, j)), (ci, j))
        self._occurrences = MappingProxyType(pairs)
        return self._occurrences

    @property
    def n_vertices(self) -> int:
        return len(self.circles)

    @property
    def n_edges(self) -> int:
        return len(self.labels)

    def degree(self, circle: int) -> int:
        """Number of arrow occurrences on a circle (a loop contributes 2)."""
        self._check_circle(circle)
        return len(self.circles[circle])

    def n_gaps(self, circle: int) -> int:
        """Number of vertex line segments on a circle; an empty circle has one."""
        self._check_circle(circle)
        return max(len(self.circles[circle]), 1)

    def sign_of(self, circle: int, pos: int) -> Sign:
        return self.circles[circle][pos][1]

    def _check_circle(self, circle: int) -> None:
        if type(circle) is not int or not 0 <= circle < len(self.circles):
            raise ArpError(f"unknown circle id {circle!r}")

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        """One-line form, e.g. ``(a+ b-)(a+)(b+)``; empty presentation -> ``''``."""
        return _circles_text(self.circles)

    @classmethod
    def from_text(cls, text: str) -> "ArrowPresentation":
        return parse_arp(text)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrowPresentation) and self.circles == other.circles

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a string's hash differs between processes, so a pickled copy is
        # rebuilt from its circles, hash and labels included
        return (ArrowPresentation._of, (self.circles,))

    def __repr__(self) -> str:
        return f"ArrowPresentation({self.to_text()!r})"


# ---------------------------------------------------------------------------
# text I/O
# ---------------------------------------------------------------------------


def _circles_text(circles: tuple[Circle, ...]) -> str:
    return "".join(
        "(" + " ".join(f"{lab}{'+' if s > 0 else '-'}" for lab, s in c) + ")" for c in circles
    )


def _parse_tokens(tokens: list[str], lineno: int) -> Circle:
    circle = []
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ArpError(f"line {lineno}: bad token {tok!r} (expected label+ or label-)")
        circle.append((m.group(1), 1 if m.group(2) == "+" else -1))
    return tuple(circle)


def parse_arp(text: str) -> ArrowPresentation:
    """Parse presentation text.

    Each non-empty, non-comment line is one circle of whitespace-separated
    ``label+`` / ``label-`` tokens; an empty circle is written ``()``.  Lines
    starting with ``#`` are comments.  A line may instead hold one or more
    parenthesised circles, so the one-line form produced by
    :meth:`ArrowPresentation.to_text` parses too.
    """
    if not isinstance(text, str):
        raise ArpError(f"presentation text must be a str, not {type(text).__name__}")
    circles: list[Circle] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "(" in line or ")" in line:
            rest = re.sub(r"\(([^()]*)\)", " ", line)
            if rest.strip():
                raise ArpError(f"line {lineno}: stray text outside circles: {rest.strip()!r}")
            for group in re.findall(r"\(([^()]*)\)", line):
                circles.append(_parse_tokens(group.split(), lineno))
        else:
            circles.append(_parse_tokens(line.split(), lineno))
    return ArrowPresentation._of(circles)


def format_arp(g: ArrowPresentation) -> str:
    """Render one circle per line; empty circles as ``()``."""
    lines = []
    for c in g.circles:
        lines.append("()" if not c else " ".join(f"{lab}{'+' if s > 0 else '-'}" for lab, s in c))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# boundary tracing
# ---------------------------------------------------------------------------


class VertexLineSegment(NamedTuple):
    """The arc of a circle between two consecutive arrows: gap ``gap`` follows
    the arrow at position ``gap``; an empty circle has the single gap 0."""

    circle: int
    gap: int


class EdgeLineSegment(NamedTuple):
    """One of the two free sides of an edge: side 1 runs from the head of the
    first occurrence to the tail of the second, side 2 the other way round."""

    label: str
    side: int


Segment = Union[VertexLineSegment, EdgeLineSegment]

@dataclass(frozen=True)
class BoundaryComponent:
    """A closed boundary walk, as the cyclic sequence of segments it crosses.

    ``directions[i]`` is +1 when the walk traverses ``segments[i]`` along its
    intrinsic orientation (a gap along its circle's traversal; an edge side
    from the head of one arrow to the tail of the other), else -1.

    A walk of :func:`trace_boundaries` starts with a vertex line segment and
    alternates: its even positions are vertex line segments and its odd
    positions edge line segments, and its length is 1 (an isolated circle's
    one gap) or even.  Proof: each arrow endpoint meets one gap arc and one
    jump arc, so the arcs of a walk alternate gap, jump, gap, ...; the gap
    arcs are numbered before the jump arcs, and each walk starts at its
    lowest-numbered arc, so it starts with a gap.  An isolated circle's gap
    is an arc from its one notional endpoint to itself, a walk of length 1.
    Kinds, counts and arcs of a walk are therefore read from positions.
    """

    segments: tuple[Segment, ...]
    directions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.segments)

    def n_edge_segments(self) -> int:
        return len(self.segments) // 2

    def position_of(self, seg: Segment) -> int:
        try:
            return self.segments.index(seg)
        except ValueError:
            raise ArpError(f"segment {seg!r} not on this boundary component") from None


def _walk(g: ArrowPresentation, jumped: Container[str] | None) -> tuple[list[list[tuple[int, int]]], int]:
    """The boundary walk of g with the edges in ``jumped`` crossed, every
    edge when ``jumped`` is None: its cycles, as ``(arc, direction)``
    pairs, and the index of its first edge arc.

    The arcs join arrow endpoints, which are integers: with ``base[c]`` the
    number of endpoints on the circles before c, endpoint ``base[c] + 2j +
    part`` is the tail (part 0) or head (part 1) of arrow j of circle c; an
    empty circle has one notional endpoint, ``base[c]``.  Arc i runs from
    endpoint ``ends[2i]`` to ``ends[2i + 1]``, and there is one arc per
    endpoint.  First come the gaps, circle by circle, each from the exit
    endpoint of its arrow to the entry endpoint of the next; an empty
    circle's single gap is an arc from its notional endpoint to itself.
    Then come the edge arcs, two per label in the sorted order of
    ``g.labels``: its two jump segments head to tail if it is jumped, else
    its two arrows tail to head.  The loop over the arrows pairs each
    label's two tails as it reads them, so the walk reads no label table.
    Every endpoint meets one gap and one edge arc, so a cycle
    alternates gap, edge arc, gap, ...  With every label jumped the cycles
    are the boundary components; with the labels of A jumped they are the
    circles of the partial dual g^A, whose arrows are the jump segments of
    A (Chmutov, JCTB 2009).

    Each cycle starts at its lowest arc, a gap, walked from its first
    endpoint to its second; direction is +1 for an arc walked that way,
    else -1.  End 2i of arc i is its first endpoint and end 2i+1 its
    second; ``mate`` pairs the two ends that meet at each endpoint.
    """
    ends: list[int] = []
    # label -> the tail of its first arrow, then the tails of both
    tails: dict[str, int | tuple[int, int]] = {}
    n = 0
    for circle in g.circles:
        d = len(circle)
        if not d:
            ends += (n, n)
            n += 1
            continue
        for j in range(d):
            lab, s = circle[j]
            k = (j + 1) % d
            t = n + 2 * j
            # exit: the head (part 1) of a + arrow, the tail of a - one;
            # entry the other way round
            ends += (t + (s > 0), n + 2 * k + (circle[k][1] < 0))
            t1 = tails.get(lab)
            tails[lab] = t if t1 is None else (t1, t)
        n += 2 * d
    first = len(ends) >> 1
    every = jumped is None
    for lab in g.labels:
        t1, t2 = tails[lab]
        ends += (t1 + 1, t2, t2 + 1, t1) if every or lab in jumped else (t1, t1 + 1, t2, t2 + 1)
    mate = [0] * len(ends)
    first_end = [-1] * n  # the end that met each endpoint first
    for end, ep in enumerate(ends):
        other = first_end[ep]
        if other < 0:
            first_end[ep] = end
        else:
            mate[end], mate[other] = other, end
    cycles = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        cycle = [(start, 1)]
        end = mate[2 * start + 1]
        while end >> 1 != start:
            seen[end >> 1] = True
            cycle.append((end >> 1, 1 - 2 * (end & 1)))  # entered at its first end: +1
            end = mate[end ^ 1]
        cycles.append(cycle)
    return cycles, first


def _faces(g: ArrowPresentation, jumped: Container[str] | None) -> list[Circle]:
    """The cycles of :func:`_walk` as words: each cycle's edge arcs, at its
    odd positions, as ``(label, +1 when walked along it)`` in walk order.
    An isolated circle gives the empty word.  With the labels of A jumped
    the words are the circles of g^A, in the walk's order; with ``jumped``
    None, every label is jumped."""
    cycles, first = _walk(g, jumped)
    labels = g.labels
    return [tuple((labels[(i - first) >> 1], d) for i, d in cycle[1::2]) for cycle in cycles]


def _sides(g: ArrowPresentation) -> tuple[int, Iterator[tuple[int, int]]]:
    """The number of boundary components of g and, for each label in order,
    the two components its sides lie on: the cycles of :func:`_walk`, with
    every label jumped, that hold edge arcs ``first + 2i`` and ``first + 2i
    + 1`` of label i."""
    cycles, first = _walk(g, None)
    face = [0] * (2 * g.n_edges)
    for fi, cycle in enumerate(cycles):
        for arc, _ in cycle[1::2]:
            face[arc - first] = fi
    return len(cycles), zip(face[::2], face[1::2])


@lru_cache(maxsize=None)
def trace_boundaries(g: ArrowPresentation) -> tuple[BoundaryComponent, ...]:
    """Trace the boundary components of the ribbon graph.

    Every arrow contributes a tail and a head endpoint on its circle; gaps
    join consecutive endpoints around each circle, and each edge contributes
    the two jump segments head-to-tail between its occurrences.  The result
    is 2-regular and its cycles are the boundary components.  Gaps (by
    circle, then gap) are numbered before edge sides (by label, then side),
    and each walk starts at its lowest-numbered segment, so components come
    in the order of their first gap.  Each endpoint meets one gap and one
    jump segment, so a walk alternates gap, edge side, gap, ...: its vertex
    line segments are exactly its even positions (see
    :class:`BoundaryComponent`).

    >>> [b.n_edge_segments() for b in trace_boundaries(parse_arp("(e+ e+)"))]
    [1, 1]
    >>> [b.n_edge_segments() for b in trace_boundaries(parse_arp("(e+ e-)"))]
    [2]
    """
    segs: list[Segment] = [
        VertexLineSegment(ci, j) for ci, c in enumerate(g.circles) for j in range(max(len(c), 1))
    ]
    segs += [EdgeLineSegment(lab, side) for lab in g.labels for side in (1, 2)]
    return tuple(
        BoundaryComponent(tuple(segs[i] for i, _ in cyc), tuple(d for _, d in cyc))
        for cyc in _walk(g, None)[0]  # every label jumped
    )


# ---------------------------------------------------------------------------
# underlying abstract graph
# ---------------------------------------------------------------------------


#: Largest vertex count :meth:`UnderlyingGraph.canonical_key` accepts.
MAX_KEY_VERTICES = 8


@dataclass(frozen=True)
class UnderlyingGraph:
    """The abstract multigraph under a presentation: circles become vertices,
    label pairs become edges (loops and multi-edges allowed)."""

    n_vertices: int
    edges: tuple[tuple[str, int, int], ...]  # (label, u, v) with u <= v

    def neighbors(self, v: int) -> frozenset[int]:
        out = set()
        for _, u, w in self.edges:
            if u == v:
                out.add(w)
            if w == v:
                out.add(u)
        return frozenset(out)

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components as vertex sets, sorted by smallest member."""
        return tuple(map(frozenset, _traverse(self.n_vertices, self._pairs())[0]))

    def _pairs(self) -> list[tuple[int, int]]:
        return [(u, w) for _, u, w in self.edges]

    def canonical_key(self) -> tuple:
        """Isomorphism-class key: minimal relabelled edge multiset.

        Brute-force over vertex permutations; intended for the small graphs
        this library works with.  More than :data:`MAX_KEY_VERTICES`
        vertices is an ArpError naming the join family, whose search states
        are these keys.
        """
        from itertools import permutations

        if self.n_vertices > MAX_KEY_VERTICES:
            raise ArpError(f"the join family compares underlying graphs, which is supported "
                           f"for at most {MAX_KEY_VERTICES} vertices; got {self.n_vertices} vertices")
        pairs = self._pairs()
        best = None
        for perm in permutations(range(self.n_vertices)):
            cand = tuple(sorted((min(perm[u], perm[w]), max(perm[u], perm[w])) for u, w in pairs))
            if best is None or cand < best:
                best = cand
        return (self.n_vertices, best if best is not None else ())


def _traverse(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[list[int]], list[int] | None]:
    """One breadth-first pass over vertices 0..n-1 joined by ``pairs``.

    Returns the connected components, each a list of its vertices in the
    order reached, in order of least vertex; and the list of 0/1 colours,
    by vertex, giving the two ends of every pair different colours, with
    colour 0 on each component's least vertex, or None when there is none
    (a pair (v, v) rules it out).  Such a colouring is unique when it
    exists.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in pairs:
        adj[u].append(w)
        adj[w].append(u)
    colour = [-1] * n
    comps = []
    proper = True
    for start in range(n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        comp = [start]
        for v in comp:  # grows while it is read
            c = colour[v] ^ 1
            for w in adj[v]:
                if colour[w] < 0:
                    colour[w] = c
                    comp.append(w)
                elif colour[w] != c:
                    proper = False
        comps.append(comp)
    return comps, colour if proper else None


def _edge_ends(g: ArrowPresentation) -> list[tuple[int, int]]:
    """The two circles of each edge, in label order, each edge's circles in
    reading order.  A label's first sighting stores its circle twice; the
    second replaces that pair with the first circle and its own."""
    first: dict[str, int] = {}
    ends: dict[str, tuple[int, int]] = {}
    for ci, circle in enumerate(g.circles):
        for lab, _ in circle:
            ends[lab] = (first.setdefault(lab, ci), ci)
    return [ends[lab] for lab in g.labels]


@lru_cache(maxsize=None)
def underlying_graph(g: ArrowPresentation) -> UnderlyingGraph:
    edges = [(lab, min(ends), max(ends)) for lab, ends in zip(g.labels, _edge_ends(g))]
    return UnderlyingGraph(g.n_vertices, tuple(edges))


# ---------------------------------------------------------------------------
# Euler genus
# ---------------------------------------------------------------------------


def _genus(g: ArrowPresentation) -> int:
    """Euler genus 2c - |V| + |E| - |F|, with c counting isolated circles
    too; it caches nothing, so a presentation read once, such as a move
    result, leaves no entry behind."""
    f = len(_walk(g, None)[0])
    c = len(_traverse(g.n_vertices, _edge_ends(g))[0])
    return 2 * c - g.n_vertices + g.n_edges - f


@lru_cache(maxsize=None)
def euler_genus(g: ArrowPresentation) -> int:
    """Euler genus, cached: for presentations asked about again, such as
    class representatives; see :func:`_genus`.

    >>> euler_genus(parse_arp("(e+ e-)"))
    1
    """
    return _genus(g)


# ---------------------------------------------------------------------------
# canonical form and equivalence
# ---------------------------------------------------------------------------
#
# Two presentations describe the same ribbon graph exactly when one maps to
# the other by a combination of: permuting circles, rotating a circle,
# reversing a circle (which flips every sign on it), relabelling edges, and
# flipping both arrows of an edge (re-orienting the edge disc; it flips both
# of that label's signs).  The canonical form is the minimum encoding over
# all those choices.
#
# Edge flips cost no search: an arrow encodes as (label index, bit), labels
# numbered by first occurrence, with bit 0 on a first occurrence and, on a
# second, bit 0 exactly when its sign agrees with the first's.  No flip
# changes that, and for a fixed circle order, rotation and reversal it is the
# minimum over all flips of the plain encoding (bit 0 for +): each first
# occurrence precedes its second, so the minimum makes it +.


#: label -> its two arrows as (circle, position, sign)
_Where = dict[str, list[tuple[int, int, Sign]]]


def _reversed(c: Circle) -> Circle:
    """Circle c read the other way round: reversed, every sign flipped."""
    return tuple((lab, -s) for lab, s in reversed(c))


def _base_canonical(circles: tuple[Circle, ...]) -> tuple:
    """Minimal encoding over circle order, rotations, reversals, relabelling.

    Empty circles encode as ``()``, below every other circle, so they lead.
    The others are placed one at a time, each read as one of its *variants*
    (a rotation, or a rotation of its reversal with every sign flipped),
    and encodings compare circle by circle.  With n labels met so far, a
    label is *open* when one of its arrows is placed and the other is not.

    While a label is open the next circle is forced: it is the circle
    holding the unplaced arrow of the least open label m, read from that
    arrow in the direction that gives it bit 0.  Proof: a circle holding no
    arrow of a met label starts with (n, 0) in every variant, its first
    label being new.  A circle holding the unplaced arrow of an open label
    i has a variant that starts there, with (i, bit) below (n, 0): a circle
    adjacent to the placed ones always starts below (n, 0), and the least
    possible start is (m, 0).  Label m has one unplaced arrow, and of the
    two variants that start at it, one reads its sign as placed and the
    other flips it, so exactly one variant of one circle starts with
    (m, 0).  So while a label is open the next circle is adjacent to the
    placed ones, and when none is, every component is placed whole or not
    at all (an unplaced circle of a partly placed component would hold an
    open label's arrow): components are contiguous, and each one's
    encoding is fixed by the variant its first circle is read as.

    At the start of a component every label is new, so its encoding is its
    own encoding with n added to each label index, which keeps order; each
    component is therefore encoded on its own, as the least completion of
    all its variants.  The open labels after some circles can be read from
    their encoding, so no component's encoding is a proper prefix of
    another's (that one would be complete there), and of two components
    the lesser goes first: they come in sorted order, their label indices
    shifted past the ones before them.

    Every variant is completed against the least completion so far, arrow
    by arrow, and dropped at its first arrow above the one at the same
    place, or at an arrow past the end of a tied row, since every
    completion of it is then above that one.  So the least completion is
    the minimum over all variants.  Once the best starts with the least
    first row, a variant whose first row is above it is dropped within
    that row, at its first larger arrow.  A component with E edges has 4E variants, and a completion
    reads each of its 2E arrows at most once, so it takes O(E^2).

    Internally an arrow (i, bit) is the integer 2i + bit, in the same order.
    """
    where = _where(circles)
    rev = list(map(_reversed, circles))
    comps = []
    for comp in _traverse(len(circles), ((a[0], b[0]) for a, b in where.values()))[0]:
        if not circles[comp[0]]:
            continue
        best = None
        for ci in comp:
            n = len(circles[ci])
            for twice in (circles[ci] * 2, rev[ci] * 2):
                for p in range(n):
                    best = _complete(circles, rev, where, ci, twice[p : p + n], best) or best
        comps.append(tuple(tuple((x >> 1, x & 1) for x in row) for row in best))
    return _layout(sum(not c for c in circles), comps)


def _layout(n_empty: int, comps) -> tuple:
    """The minimal encoding of ``n_empty`` empty circles and components
    with minimal encodings ``comps``, each with at least one edge: the
    empty circles, then the components in sorted order, each one's label
    indices shifted past those of the ones before it (see
    :func:`_base_canonical`).  Nothing is searched, so a class is encoded
    from its parts' encodings alone."""
    out, shift = [()] * n_empty, 0
    for rows in sorted(comps):
        out += (tuple((i + shift, bit) for i, bit in row) for row in rows) if shift else rows
        shift += sum(map(len, rows)) // 2
    return tuple(out)


def _where(circles: tuple[Circle, ...]) -> _Where:
    """Each label's two arrows as (circle, position, sign), in reading order."""
    where: _Where = {}
    for ci, c in enumerate(circles):
        for j, (lab, s) in enumerate(c):
            where.setdefault(lab, []).append((ci, j, s))
    return where


#: Where a row is read from: ``(circle, reversed, start)``, the circle read
#: from position ``start`` of its arrows when ``reversed`` is false, or of
#: its reversal when it is true.
_Root = tuple[int, bool, int]


def _complete(
    circles: tuple[Circle, ...], rev: list[Circle], where: _Where, ci: int, seq: Circle, best: list[list[int]] | None,
    roots: list[_Root] | None = None,
) -> list[list[int]] | None:
    """The encoding of the component whose first circle is ``ci`` read as
    ``seq``, each later circle forced (see :func:`_base_canonical`); None at
    its first arrow above ``best``.  With ``roots`` given, which holds the
    root of ``seq``, the root of each later row is appended to it as the
    row is read."""
    firsts: dict[str, tuple[int, Sign, int]] = {}  # label -> (x, sign, circle)
    # per label index: the label while it is open, None once both arrows
    # are placed
    opened: list[str | None] = []
    rows: list[list[int]] = []
    m = 0  # no label below m is open
    tied = best is not None
    while True:
        row = []
        if tied:
            ahead = iter(best[len(rows)])
        for lab, s in seq:
            f = firsts.get(lab)
            if f is None:
                x = 2 * len(opened)
                firsts[lab] = (x, s, ci)
                opened.append(lab)
            else:
                x = f[0] + (s != f[1])
                opened[x >> 1] = None
            if tied:
                y = next(ahead, -1)  # -1: this row runs past the tied one
                if x != y:
                    if x > y:
                        return None
                    tied = False
            row.append(x)
        # a row that is a proper prefix of the best row is below it
        tied = tied and next(ahead, None) is None
        rows.append(row)
        while m < len(opened) and opened[m] is None:
            m += 1
        if m == len(opened):
            return rows
        lab = opened[m]
        _, s, cp = firsts[lab]
        a, b = where[lab]
        ci, j, t = b if a[0] == cp else a
        c = circles[ci] if t == s else rev[ci]
        j = j if t == s else len(c) - 1 - j
        if roots is not None:
            roots.append((ci, t != s, j))
        seq = c[j:] + c[:j]


#: An automorphism as a map of gaps (see :func:`_automorphisms`): the gap
#: each gap goes to, and per gap -1 where its circle is read reversed, else 1.
_GapMap = tuple[list[int], list[int]]


def _automorphisms(circles: tuple[Circle, ...]) -> list[_GapMap]:
    """The automorphisms of a connected class representative with no empty
    circle, each as a map of its gaps, the identity first; for the lone
    empty circle, which has no arrow to root a completion at, no map, which
    :func:`verify._augmentations` reads as keeping every augmentation.

    Gap k of a circle is the place before its arrow k, so gap 0 lies
    between its last arrow and its first; gaps are numbered circle by
    circle.  The representative's circles are its least encoding, read from
    root (0, forward, 0), so that completion is the least one.  A root whose
    completion ties it exactly reads, in its row r, some circle c_r so that
    putting each c_r, read so, in place r gives the same encoding, hence the
    same presentation up to relabelling and edge flips: an automorphism,
    which sends circle c_r onto circle r.  Conversely an automorphism sends
    root (0, forward, 0) to a root whose completion reads the same rows, so
    each automorphism is one tie; distinct roots give distinct maps.

    A forward row from start p sends gap k of an n-arrow circle to gap
    (k - p) mod n of circle r, and a reversed one to gap (n - k - p) mod n,
    with every sign on it flipped: the flip is -1 on the gaps of circles
    read reversed.
    """
    where = _where(circles)
    rev = list(map(_reversed, circles))
    own = _complete(circles, rev, where, 0, circles[0], None)
    base = [0]
    for c in circles:
        base.append(base[-1] + len(c))
    maps = []
    for ci, c in enumerate(circles):
        n = len(c)
        for back in (False, True):
            twice = (rev[ci] if back else c) * 2
            for p in range(n):
                roots = [(ci, back, p)]
                if _complete(circles, rev, where, ci, twice[p : p + n], own, roots) != own:
                    continue
                perm, flip = [0] * base[-1], [1] * base[-1]
                for r, (cj, b, q) in enumerate(roots):
                    d = len(circles[cj])
                    for k in range(d):
                        perm[base[cj] + k] = base[r] + ((d - k - q) if b else (k - q)) % d
                        flip[base[cj] + k] = -1 if b else 1
                maps.append((perm, flip))
    return maps


def _canonical_label(i: int) -> str:
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(97 + r) + out
    return out


#: The circles of every presentation canonicalised so far, mapped to its
#: class's representative: one shared instance per class, whose circles map
#: to itself.
_canon_cache: dict[tuple[Circle, ...], ArrowPresentation] = {}


@lru_cache(maxsize=None)
def _canonical_arrow(x: tuple[int, int]) -> Arrow:
    """The arrow that ``(i, bit)`` of a minimal encoding stands for: one
    shared tuple per pair, so representatives hold no arrow of their own
    (there are 2E such arrows up to E edges)."""
    i, bit = x
    return _canonical_label(i), -1 if bit else 1


def _representative(enc: tuple) -> ArrowPresentation:
    """The representative of the class whose minimal encoding (see
    :func:`_base_canonical`) is ``enc``, interned in ``_canon_cache``."""
    circles = tuple(tuple(map(_canonical_arrow, c)) for c in enc)
    rep = _canon_cache.get(circles)
    if rep is None:
        rep = _canon_cache[circles] = ArrowPresentation._of(circles)
    return rep


def canonical_presentation(g: ArrowPresentation) -> ArrowPresentation:
    """The representative of g's equivalence class: one shared instance per
    class, so equivalent presentations give the same object, and the
    representative is its own.

    >>> canonical_presentation(parse_arp("(e+ e-)")) is canonical_presentation(parse_arp("(f- f+)"))
    True
    """
    rep = _canon_cache.get(g.circles)
    if rep is None:
        rep = _canon_cache[g.circles] = _representative(_base_canonical(g.circles))
    return rep


def canonicalize(g: ArrowPresentation) -> str:
    """Canonical textual form, the text of :func:`canonical_presentation`;
    equal exactly for equivalent presentations.

    Edge flips are absorbed by encoding each label's second occurrence by its
    sign relative to the first, so no flip is searched over.  Idempotent:
    the canonical form re-parses to a presentation with the same canonical
    form.

    >>> canonicalize(parse_arp("(e+ e-)")) == canonicalize(parse_arp("(f- f+)"))
    True
    """
    return canonical_presentation(g).to_text()


def is_equivalent(g: ArrowPresentation, h: ArrowPresentation) -> bool:
    """Whether g and h present the same ribbon graph."""
    return canonical_presentation(g) is canonical_presentation(h)
