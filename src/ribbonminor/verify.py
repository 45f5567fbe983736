"""Exhaustive enumeration of small presentations and end-to-end verification
of the excluded-minor characterisations.

The built-in checks are named T1-T7 and C1-C4 for the class/minor
equivalences and by content for the supporting lemmas; see CHECKS and LEMMAS
for what each one asserts.  Reports are deterministic: one machine-readable
row per enumerated class, sorted by canonical form, plus a ``#`` summary
footer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .arrow_core import (
    ArpError,
    ArrowPresentation,
    Circle,
    _base_canonical,
    _genus,
    _lookup,
    _representative,
    _reversed,
    canonicalize,
    euler_genus,
)
from .duality import _dual_words, geometric_dual
from .minor_ops import MinorMove
from .minor_search import _CHARACTERISATIONS, MinorFamily, _excludes, applicable_moves
from .predicates import is_bipartite, is_checkerboard_colourable

__all__ = [
    "CHECKS",
    "EnumerationSpec",
    "LEMMAS",
    "ReportRow",
    "VerificationReport",
    "enumerate_presentations",
    "verify_lemma",
    "verify_theorem",
]

_MAX_SUPPORTED_EDGES = 4


@dataclass(frozen=True)
class EnumerationSpec:
    """Bounds for exhaustive enumeration, one representative per equivalence
    class; see the README for the time and memory each bound takes.

    ``max_circles`` defaults to ``max_edges + 1``, the most circles a
    connected class can have, so the default leaves no connected class out.

    >>> EnumerationSpec(4) == EnumerationSpec(4, 5)
    True
    """

    max_edges: int = 3
    max_circles: int | None = None
    connected_only: bool = True

    def __post_init__(self):
        for name in ("max_edges", "max_circles"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "max_circles" and value is None):
                raise ArpError(f"{name} must be an integer, got {value!r}")
        if type(self.connected_only) is not bool:
            raise ArpError(f"connected_only must be True or False, got {self.connected_only!r}")
        if not 0 <= self.max_edges <= _MAX_SUPPORTED_EDGES:
            raise ArpError(f"max_edges must be between 0 and {_MAX_SUPPORTED_EDGES}")
        if self.max_circles is None:
            object.__setattr__(self, "max_circles", self.max_edges + 1)
        if self.max_circles < 1:
            raise ArpError("max_circles must be positive")


def _put(circles: tuple[Circle, ...], ci: int, k: int, arrow) -> tuple[Circle, ...]:
    return circles[:ci] + (circles[ci][:k] + (arrow,) + circles[ci][k:],) + circles[ci + 1 :]


def _augmentations(circles: tuple[Circle, ...]):
    """The circles with one more edge, labelled ``_``, which no canonical
    label is: both arrows at two gaps or at one gap, the second with either
    sign; or one arrow at a gap and the other alone on a new circle, which
    covers both signs since that circle can be reversed.  An empty circle
    has one gap.  Swapping the two arrows, at two gaps or at one, gives the
    same edge flipped, so only one order is generated."""
    first = ("_", 1)
    gaps = [(ci, k) for ci, c in enumerate(circles) for k in range(len(c) or 1)]
    for i, (ci, k) in enumerate(gaps):
        yield _put(circles, ci, k, first) + ((first,),)
        for cj, l in gaps[i:]:
            for s in (1, -1):
                # on one circle k <= l, so gap k stays in place
                yield _put(_put(circles, cj, l, ("_", s)), ci, k, first)


@lru_cache(maxsize=None)
def enumerate_presentations(spec: EnumerationSpec = EnumerationSpec()) -> tuple[ArrowPresentation, ...]:
    """Every presentation within the bounds, one canonical representative per
    class, sorted by canonical form.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998): the classes of e + 1 edges are the classes of the
    :func:`_augmentations` of the representatives of e edges within the
    circle bound.  They are deduplicated on their minimal encoding, which is
    not cached, and each new class's representative is built from it once.
    The first level is one empty circle, or k empty circles for every k
    within the bound when ``connected_only`` is false.

    Every class is reached, from a parent of one edge fewer and no more
    circles.  A connected graph has an edge whose deletion keeps it
    connected and keeps its circle count, or it is a tree and has a leaf
    edge, whose deletion together with its leaf circle leaves a connected
    graph with one circle fewer; adding the edge back to the representative
    of the parent's class is one of its augmentations, up to equivalence.
    Without ``connected_only``, deleting any edge keeps the circle count.
    So the circle bound holds for every parent and is applied level by
    level, and since an augmentation of a connected graph is connected, no
    connectivity filter is needed.

    >>> [g.to_text() for g in enumerate_presentations(EnumerationSpec(1, 2))]
    ['(a+ a+)', '(a+ a-)', '(a+)(a+)']
    """
    top = 1 if spec.connected_only else spec.max_circles
    level = [_representative(((),) * k) for k in range(1, top + 1)]
    out = list(level) if not spec.connected_only or spec.max_edges == 0 else []
    for _ in range(spec.max_edges):
        new = dict.fromkeys(
            _base_canonical(circles)
            for g in level
            for circles in _augmentations(g.circles)
            if len(circles) <= spec.max_circles
        )
        level = [_representative(enc) for enc in new]
        out += level
    return tuple(sorted(out, key=canonicalize))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    subject: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    rows: tuple[ReportRow, ...] = field(default_factory=tuple)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.rows if not r.ok)

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def counterexamples(self) -> tuple[str, ...]:
        return tuple(r.subject for r in self.rows if not r.ok)

    def to_text(self) -> str:
        lines = [
            f"{self.check_id}\t{r.subject}\t{r.detail}\tok={str(r.ok).lower()}" for r in self.rows
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"# {self.check_id}: checked={len(self.rows)} failures={self.n_failures} -> {verdict}"
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# theorem-style checks: class predicate == excluded-minor predicate
# ---------------------------------------------------------------------------


def _agreed(*answers: bool) -> bool | None:
    """The answer every family gives, or None, which no predicate equals,
    when they differ: so T6 and T7 pass a row only when the predicate
    equals each family's answer."""
    return answers[0] if len(set(answers)) == 1 else None


def _check(cls: str, *families: str):
    """The CHECKS entry for the characterisation of class ``cls`` (a row of
    minor_search's table) in ``families``: the row's domain and class
    predicate, and the answer the families agree on."""
    domain, predicate, _ = _CHARACTERISATIONS[cls]
    return domain, predicate, lambda g: _agreed(*(_excludes(g, cls, f) for f in families))


# id -> (domain restriction or None, class predicate, excluded-minor predicate)
CHECKS = {
    "T1": _check("cc", "eulerian"),
    "T2": _check("cc", "cc"),
    "T3": _check("bipartite", "even-face"),
    "T4": _check("bipartite", "bipartite"),
    "T5": _check("bipartite", "join"),
    "T6": _check("plane cc", "cc", "eulerian"),
    "T7": _check("plane bipartite", "bipartite", "even-face"),
    "C1": _check("cc plane", "eulerian"),
    "C2": _check("cc plane", "cc"),
    "C3": _check("bipartite plane", "even-face"),
    "C4": _check("bipartite plane", "bipartite"),
}


def _report(check_id: str, spec: EnumerationSpec, row) -> VerificationReport:
    """One report row per enumerated class g for which ``row(g)`` gives
    ``(ok, detail)``; a class for which it gives None is outside the check."""
    rows = []
    for g in enumerate_presentations(spec):
        result = row(g)
        if result is not None:
            rows.append(ReportRow(canonicalize(g), *result))
    return VerificationReport(check_id, tuple(rows))


def verify_theorem(check_id: str, spec: EnumerationSpec = EnumerationSpec()) -> VerificationReport:
    """Check one predicate/excluded-minor equivalence over the enumerated
    classes; disagreements are reported, never raised."""
    domain, predicate, excluded = _lookup(CHECKS, check_id, "check id")

    def row(g):
        if domain is not None and not domain(g):
            return None
        lhs, rhs = predicate(g), excluded(g)
        return lhs == rhs, f"predicate={str(lhs).lower()} excluded_minor={str(rhs).lower()}"

    return _report(check_id, spec, row)


# ---------------------------------------------------------------------------
# lemma-style checks: closure, genus monotonicity, dual move transport
# ---------------------------------------------------------------------------


def _move_check(g, moves, violates) -> tuple[int, int]:
    """(moves checked, violations): each of ``moves`` applied to g, and how
    many of them give a result h with ``violates(g, h)``.  The moves are
    read once; a move listed twice is applied once and counted twice."""
    listed = Counter(moves)
    return sum(listed.values()), sum(n for mv, n in listed.items() if violates(g, mv.apply(g)))


def _raises_genus(g, h) -> bool:
    # h is a move result, read once: its genus is not cached
    return _genus(h) > euler_genus(g)


def _labelled(circles: tuple[Circle, ...]) -> tuple[Circle, ...]:
    """The circles, each at its least rotation or reversal, sorted, with
    their labels kept and no edge flipped.  A least reading starts with
    the least arrow of the circle's two readings, so only the rotations
    that start there are compared."""
    out = []
    for c in circles:
        if c:
            readings = (c, _reversed(c))
            first = min(map(min, readings))
            c = min(v[i:] + v[:i] for v in readings for i, a in enumerate(v) if a == first)
        out.append(c)
    return tuple(sorted(out))


def _same_classes(a: list[tuple[Circle, ...]], b: list[tuple[Circle, ...]]) -> bool:
    """Whether the presentations with circles ``a`` and those with circles
    ``b`` fall into the same set of classes; nothing is cached.

    The two are compared first as sets of labelled forms (:func:`_labelled`),
    then, only when those differ, as sets of minimal encodings, which are
    equal exactly for equivalent presentations.  The first comparison is
    sound: a labelled form only permutes, rotates and reverses circles, so
    it is itself a presentation equivalent to the one it was read from, and
    equal sets of labelled forms are equal sets of classes.
    """
    return (set(map(_labelled, a)) == set(map(_labelled, b))
            or set(map(_base_canonical, a)) == set(map(_base_canonical, b)))


# Two sets of classes compared once per class, hence its rows' moves=1: the
# duals of the classes one family move reaches from g, against the classes
# one dual-family move reaches from g*.  Moves are not matched one to one.
#
# The direct side reads each dual's circles from one boundary walk and
# builds no presentation for it, so it skips the count check that
# geometric_dual's result would make.  None is lost: every label of h is
# jumped, so it appears once on each of its two jump arcs, exactly twice.
# An h with no edges walks to its own empty circles, as its dual is h.
def _transport_check(g, family, dual_family) -> tuple[int, int]:
    star = geometric_dual(g)
    moved = (mv.apply(g) for mv in applicable_moves(g, family))
    direct = [tuple(_dual_words(h, None)) for h in moved]
    transported = [mv.apply(star).circles for mv in applicable_moves(star, dual_family)]
    return 1, int(not _same_classes(direct, transported))


# id -> g -> (moves checked, violations), or None when g is outside the
# lemma's class.  The lambdas look the predicates up when called.
LEMMAS = {
    "cc-closure": lambda g: _move_check(
        g, (*applicable_moves(g, MinorFamily.CHECKERBOARD), *applicable_moves(g, MinorFamily.EULERIAN)),
        lambda _, h: not is_checkerboard_colourable(h),
    ) if is_checkerboard_colourable(g) else None,
    "bipartite-closure": lambda g: _move_check(
        g, (*applicable_moves(g, MinorFamily.BIPARTITE), *applicable_moves(g, MinorFamily.EVEN_FACE)),
        lambda _, h: not is_bipartite(h),
    ) if is_bipartite(g) else None,
    "genus-contract-delete": lambda g: _move_check(
        g, [MinorMove(kind, (e,)) for e in g.labels for kind in ("contract", "delete")]
        + [MinorMove("delete-vertex", (c,)) for c in range(g.n_vertices)], _raises_genus,
    ),
    "genus-eulerian": lambda g: _move_check(g, applicable_moves(g, MinorFamily.EULERIAN), _raises_genus),
    # empirical only: monotonicity for the checkerboard family (which also
    # allows improper contractions) is observed, not a stated law
    "genus-cc": lambda g: _move_check(g, applicable_moves(g, MinorFamily.CHECKERBOARD), _raises_genus),
    "dual-transport-eulerian": lambda g: _transport_check(g, MinorFamily.EULERIAN, MinorFamily.EVEN_FACE),
    "dual-transport-cc": lambda g: _transport_check(g, MinorFamily.CHECKERBOARD, MinorFamily.BIPARTITE),
}


def verify_lemma(lemma_id: str, spec: EnumerationSpec = EnumerationSpec()) -> VerificationReport:
    """Check a closure / genus-monotonicity / dual-transport law over the
    enumerated classes."""
    fn = _lookup(LEMMAS, lemma_id, "lemma id")

    def row(g):
        result = fn(g)
        if result is None:
            return None
        checked, violations = result
        return violations == 0, f"moves={checked} violations={violations}"

    return _report(lemma_id, spec, row)
