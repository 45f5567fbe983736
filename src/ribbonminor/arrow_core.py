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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Container, Iterable, NamedTuple, Union

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


class ArrowPresentation:
    """An immutable set of circles with paired, labelled, directed arrows.

    ``circles`` is a tuple of circles; each circle is a tuple of
    ``(label, sign)`` pairs read in the circle's stored traversal order.
    Every label must occur exactly twice across all circles.  Instances are
    value objects: hashable, comparable, and safe to share.

    >>> ArrowPresentation([[("e", 1), ("e", -1)]]).to_text()
    '(e+ e-)'
    """

    __slots__ = ("circles", "_hash", "_occ")

    def __init__(self, circles: Iterable[Iterable[Arrow]] = ()):
        circs = []
        for circle in circles:
            circ = []
            for label, sign in circle:
                if not isinstance(label, str) or not _LABEL_RE.match(label):
                    raise ArpError(f"bad edge label {label!r}")
                if sign not in (1, -1):
                    raise ArpError(f"bad sign {sign!r} for label {label!r}")
                circ.append((label, sign))
            circs.append(tuple(circ))
        self.circles: tuple[Circle, ...] = tuple(circs)
        counts = Counter(lab for c in self.circles for lab, _ in c)
        for lab, n in sorted(counts.items()):
            if n != 2:
                raise ArpError(f"label {lab!r} occurs {n} times (exactly 2 required)")
        self._hash = hash(self.circles)
        self._occ = None

    # -- basic views ---------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """Edge labels in sorted order."""
        return tuple(sorted({lab for c in self.circles for lab, _ in c}))

    @property
    def n_vertices(self) -> int:
        return len(self.circles)

    @property
    def n_edges(self) -> int:
        return sum(len(c) for c in self.circles) // 2

    @property
    def occurrences(self) -> dict[str, tuple[tuple[int, int], tuple[int, int]]]:
        """Map label -> its two occurrence positions ``(circle, index)``, sorted."""
        if self._occ is None:
            occ = defaultdict(list)
            for ci, circle in enumerate(self.circles):
                for j, (lab, _) in enumerate(circle):
                    occ[lab].append((ci, j))
            self._occ = {lab: tuple(ps) for lab, ps in occ.items()}
        return self._occ

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
        if not isinstance(circle, int) or not 0 <= circle < len(self.circles):
            raise ArpError(f"unknown circle id {circle!r}")

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        """One-line form, e.g. ``(a+ b-)(a+)(b+)``; empty presentation -> ``''``."""
        return _circles_text(self.circles)

    @classmethod
    def from_text(cls, text: str) -> "ArrowPresentation":
        return parse_arp(text)

    def to_arp(self) -> str:
        return format_arp(self)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrowPresentation) and self.circles == other.circles

    def __hash__(self) -> int:
        return self._hash

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
    return ArrowPresentation(circles)


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
    """

    segments: tuple[Segment, ...]
    directions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.segments)

    def n_edge_segments(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, EdgeLineSegment))

    def vertex_positions(self) -> tuple[int, ...]:
        """Positions of the vertex line segments within this walk."""
        return tuple(i for i, s in enumerate(self.segments) if isinstance(s, VertexLineSegment))

    def position_of(self, seg: Segment) -> int:
        try:
            return self.segments.index(seg)
        except ValueError:
            raise ArpError(f"segment {seg!r} not on this boundary component") from None


#: An arc between two arrow endpoints ``(circle, position, part)``, part 0
#: the tail and 1 the head, stored from its first endpoint to its second.
_Arc = tuple[tuple[int, int, int], tuple[int, int, int]]


def _boundary_arcs(g: ArrowPresentation, jumped: Container[str]) -> list[_Arc]:
    """The arcs of the boundary walk with the edges in ``jumped`` crossed.

    First the gaps, circle by circle, each from the exit endpoint of its arrow
    to the entry endpoint of the next; an empty circle's single gap is an arc
    from one notional endpoint to itself.  Then, for each label in sorted
    order, its two jump segments head to tail if it is in ``jumped``, else its
    two arrows tail to head.  Every endpoint meets one gap and one other arc.
    With every label jumped the cycles are the boundary components; with the
    labels of A jumped they are the circles of the partial dual g^A, whose
    arrows are the jump segments of A (Chmutov, JCTB 2009).
    """
    arcs: list[_Arc] = []
    for ci, circle in enumerate(g.circles):
        if not circle:
            arcs.append(((ci, 0, 0), (ci, 0, 0)))  # no arrow on ci uses this endpoint
        d = len(circle)
        for j in range(d):
            k = (j + 1) % d
            # exit: the head (part True == 1) of a + arrow, the tail of a - one;
            # entry the other way round
            arcs.append(((ci, j, circle[j][1] > 0), (ci, k, circle[k][1] < 0)))
    for lab, ((c1, p1), (c2, p2)) in sorted(g.occurrences.items()):
        t1, h1, t2, h2 = (c1, p1, 0), (c1, p1, 1), (c2, p2, 0), (c2, p2, 1)
        arcs += [(h1, t2), (h2, t1)] if lab in jumped else [(t1, h1), (t2, h2)]
    return arcs


def _trace_cycles(arcs: list[_Arc]) -> list[list[tuple[int, int]]]:
    """The cycles of a 2-regular arc list as ``(arc index, direction)`` pairs.

    Each cycle starts at its lowest-index arc, walked from its first endpoint
    to its second; direction is +1 for an arc walked that way, else -1.
    End 2i of arc i is its first endpoint and end 2i+1 its second; ``mate``
    pairs the two ends that meet at each endpoint.
    """
    mate = [0] * (2 * len(arcs))
    first_end: dict[tuple, int] = {}
    for end, ep in enumerate([ep for arc in arcs for ep in arc]):
        other = first_end.setdefault(ep, end)
        if other != end:
            mate[end], mate[other] = other, end
    cycles = []
    seen = [False] * len(arcs)
    for start in range(len(arcs)):
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
    return cycles


@lru_cache(maxsize=None)
def trace_boundaries(g: ArrowPresentation) -> tuple[BoundaryComponent, ...]:
    """Trace the boundary components of the ribbon graph.

    Every arrow contributes a tail and a head endpoint on its circle; gaps
    join consecutive endpoints around each circle, and each edge contributes
    the two jump segments head-to-tail between its occurrences.  The result
    is 2-regular and its cycles are the boundary components, each a strictly
    alternating walk of vertex and edge line segments.  Components come in
    the order of their first segment, gaps (by circle, then gap) before edge
    sides (by label, then side).

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
        for cyc in _trace_cycles(_boundary_arcs(g, g.occurrences))  # every label jumped
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
        parent = list(range(self.n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, u, w in self.edges:
            ru, rw = find(u), find(w)
            if ru != rw:
                parent[ru] = rw
        groups: dict[int, set[int]] = defaultdict(set)
        for v in range(self.n_vertices):
            groups[find(v)].add(v)
        return tuple(sorted((frozenset(s) for s in groups.values()), key=min))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def has_odd_cycle(self) -> bool:
        """Odd-cycle test by 2-colouring; any loop counts as an odd cycle."""
        return _two_colouring(self.n_vertices, [(u, w) for _, u, w in self.edges]) is None

    def canonical_key(self) -> tuple:
        """Isomorphism-class key: minimal relabelled edge multiset.

        Brute-force over vertex permutations; intended for the small graphs
        this library works with.
        """
        from itertools import permutations

        if self.n_vertices > MAX_KEY_VERTICES:
            raise ValueError(f"canonical_key supports at most {MAX_KEY_VERTICES} vertices")
        pairs = [(u, w) for _, u, w in self.edges]
        best = None
        for perm in permutations(range(self.n_vertices)):
            cand = tuple(sorted((min(perm[u], perm[w]), max(perm[u], perm[w])) for u, w in pairs))
            if best is None or cand < best:
                best = cand
        return (self.n_vertices, best if best is not None else ())


def _two_colouring(n: int, pairs: Iterable[tuple[int, int]]) -> dict[int, int] | None:
    """A 0/1 colouring of vertices 0..n-1 giving the two ends of every pair
    different colours, or None when there is none (a pair (v, v) rules it
    out).  Each uncoloured vertex in turn gets colour 0, then a depth-first
    search colours its component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in pairs:
        adj[u].append(w)
        adj[w].append(u)
    colour: dict[int, int] = {}
    for start in range(n):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = colour[v] ^ 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return None
    return colour


@lru_cache(maxsize=None)
def underlying_graph(g: ArrowPresentation) -> UnderlyingGraph:
    edges = []
    for lab, ((c1, _), (c2, _)) in sorted(g.occurrences.items()):
        edges.append((lab, min(c1, c2), max(c1, c2)))
    return UnderlyingGraph(g.n_vertices, tuple(edges))


# ---------------------------------------------------------------------------
# Euler genus
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def euler_genus(g: ArrowPresentation) -> int:
    """Euler genus 2c - |V| + |E| - |F|, with c counting isolated circles too.

    >>> euler_genus(parse_arp("(e+ e-)"))
    1
    """
    f = len(trace_boundaries(g))
    c = len(underlying_graph(g).components())
    return 2 * c - g.n_vertices + g.n_edges - f


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


def _circle_variants(circle: Circle) -> tuple[Circle, ...]:
    if not circle:
        return ((),)
    variants = set()
    reversed_flipped = tuple((lab, -s) for lab, s in reversed(circle))
    for base in (circle, reversed_flipped):
        for r in range(len(base)):
            variants.add(base[r:] + base[:r])
    return tuple(sorted(variants))


#: label -> (index, sign of its first occurrence), for the labels met so far
_Firsts = dict[str, tuple[int, Sign]]


def _encode_circle(variant: Circle, mapping: _Firsts) -> tuple[tuple, _Firsts]:
    m = dict(mapping)
    enc = []
    for lab, s in variant:
        first = m.get(lab)
        if first is None:
            first = m[lab] = (len(m), s)
        enc.append((first[0], 0 if s == first[1] else 1))
    return tuple(enc), m


def _base_canonical(circles: tuple[Circle, ...], bound: tuple | None = None) -> tuple | None:
    """Minimal encoding over circle order, rotations, reversals, relabelling.

    With ``bound``, an encoding of the same circles, the search returns None
    as soon as a circle encodes below the bound's circle at its level, and
    does not descend into a branch that is already above it.  The result is
    then ``bound`` exactly when no encoding is smaller.

    Empty circles encode as ``()``, below every other circle, so they lead
    every minimal encoding and only the other circles are searched over.
    """
    empty = tuple(() for c in circles if not c)
    circles = tuple(c for c in circles if c)
    if bound is not None:
        if bound[: len(empty)] != empty:
            return None  # an empty circle encodes below the bound's circle there
        bound = bound[len(empty) :]
    variants = [_circle_variants(c) for c in circles]

    def rec(remaining: frozenset[int], mapping: _Firsts) -> tuple | None:
        if not remaining:
            return ()
        level = None if bound is None else bound[len(circles) - len(remaining)]
        cands = []
        for ci in remaining:
            for var in variants[ci]:
                enc, m = _encode_circle(var, mapping)
                if level is not None and enc < level:
                    return None
                cands.append((enc, ci, m))
        best_enc = min(c[0] for c in cands)
        if level is not None and best_enc != level:
            # every encoding in this branch is above the bound
            return (best_enc,)
        results = []
        seen_branch = set()
        for enc, ci, m in cands:
            if enc != best_enc:
                continue
            sig = (tuple(sorted(m.items())), tuple(sorted(circles[i] for i in remaining if i != ci)))
            if sig in seen_branch:
                continue
            seen_branch.add(sig)
            rest = rec(remaining - {ci}, m)
            if rest is None:
                return None
            results.append((best_enc,) + rest)
        return min(results)

    rest = rec(frozenset(range(len(circles))), {})
    return None if rest is None else empty + rest


def _is_canonical(circles: tuple[Circle, ...]) -> bool:
    """Whether the circles, read as they stand, are their class's minimal
    encoding; decided by the search bounded by their own encoding."""
    own, mapping = [], {}
    for circle in circles:
        enc, mapping = _encode_circle(circle, mapping)
        own.append(enc)
    return _base_canonical(circles, tuple(own)) == tuple(own)


def _canonical_label(i: int) -> str:
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(97 + r) + out
    return out


#: Canonical text of every presentation canonicalised so far.  Each class's
#: representative is a key too, and all entries of a class share one string.
_canon_cache: dict[ArrowPresentation, str] = {}
#: Canonical text -> the class's representative, built once per class.
_canon_reps: dict[str, ArrowPresentation] = {}


def canonicalize(g: ArrowPresentation) -> str:
    """Canonical textual form; equal exactly for equivalent presentations.

    Edge flips are absorbed by encoding each label's second occurrence by its
    sign relative to the first, so no flip is searched over.  Idempotent:
    the canonical form re-parses to a presentation with the same canonical
    form.

    >>> canonicalize(parse_arp("(e+ e-)")) == canonicalize(parse_arp("(f- f+)"))
    True
    """
    text = _canon_cache.get(g)
    if text is None:
        circles = tuple(
            tuple((_canonical_label(i), -1 if bit else 1) for i, bit in enc)
            for enc in _base_canonical(g.circles)
        )
        text = _circles_text(circles)
        rep = _canon_reps.get(text)
        if rep is None:
            rep = _canon_reps[text] = ArrowPresentation(circles)
        text = _canon_cache.setdefault(rep, text)
        _canon_cache[g] = text
    return text


def canonical_presentation(g: ArrowPresentation) -> ArrowPresentation:
    """The canonical representative of g's equivalence class: one shared
    instance per class, whose ``to_text()`` is :func:`canonicalize` of g."""
    return _canon_reps[canonicalize(g)]


def is_equivalent(g: ArrowPresentation, h: ArrowPresentation) -> bool:
    """Whether g and h present the same ribbon graph."""
    return canonicalize(g) == canonicalize(h)
