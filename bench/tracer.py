"""Outside-in span tracer for the ribbonminor modules.

:meth:`Tracer.install` wraps the public functions of each layer from outside: no
file of the program changes.  A name bound with ``from .x import f`` is
rebound in every ``ribbonminor`` module namespace that holds it, so calls
between modules pass through the wrapper too; methods are patched on their
classes.  Each call records one span (name, start, end, parent) in flat
in-memory arrays, which :meth:`Tracer.dump` writes to a file at the end of
the run.  Self times are computed from those spans by ``bench/run.py``.

The program is single-threaded, so spans nest strictly; nothing waits in a
queue, and no layer has a waiting time to record.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from ribbonminor import arrow_core, cli, duality, minor_ops, minor_search, predicates, verify

# (owner, attribute, span name); a span name ending in "." gets the minor
# family of the call appended.
FUNCTIONS = [
    (arrow_core, "canonicalize", "arrow_core.canonicalize"),
    (arrow_core, "canonical_presentation", "arrow_core.canonical_presentation"),
    (arrow_core, "parse_arp", "arrow_core.parse_arp"),
    (arrow_core, "trace_boundaries", "arrow_core.trace_boundaries"),
    (arrow_core, "underlying_graph", "arrow_core.underlying_graph"),
    (arrow_core, "euler_genus", "arrow_core.euler_genus"),
    (duality, "partial_dual", "duality.partial_dual"),
    (minor_ops, "can_split_face", "minor_ops.can_split_face"),
    (minor_ops, "can_split_vertex", "minor_ops.can_split_vertex"),
    (minor_ops, "is_proper_deletion", "minor_ops.is_proper_deletion"),
    (predicates, "is_eulerian", "predicates.is_eulerian"),
    (predicates, "is_even_face", "predicates.is_even_face"),
    (predicates, "checkerboard_colouring", "predicates.checkerboard_colouring"),
    (predicates, "is_checkerboard_colourable", "predicates.is_checkerboard_colourable"),
    (predicates, "is_bipartite", "predicates.is_bipartite"),
    (predicates, "is_plane", "predicates.is_plane"),
    (minor_search, "applicable_moves", "minor_search.applicable_moves"),
    (minor_search, "contains_minor", "minor_search.contains_minor."),
    (minor_search, "minor_witness", "minor_search.minor_witness."),
    (verify, "enumerate_presentations", "verify.enumerate_presentations"),
    (verify, "verify_theorem", "verify.verify_theorem"),
    (verify, "verify_lemma", "verify.verify_lemma"),
    (cli, "main", "cli.main"),
]
METHODS = [
    (arrow_core.ArrowPresentation, "__init__", "arrow_core.ArrowPresentation.init"),
    (arrow_core.UnderlyingGraph, "canonical_key", "arrow_core.UnderlyingGraph.canonical_key"),
    (minor_ops.MinorMove, "apply", "minor_ops.MinorMove.apply"),
    (verify.VerificationReport, "to_text", "verify.VerificationReport.to_text"),
]


def _family(args, kwargs) -> str:
    family = kwargs["family"] if "family" in kwargs else args[2]
    return minor_search.MinorFamily(family).value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.canonical_forms: set[str] = set()
        self.witnesses_found: dict[str, int] = {}
        self.enumerated: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock, name_id = self._stack, time.perf_counter, self._name_id
        per_family = name.endswith(".")
        fixed = None if per_family else name_id(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id(name + _family(args, kwargs)) if per_family else fixed)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return result

        return functools.update_wrapper(traced, fn)

    def _observe(self, fn, record):
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(args, kwargs, result)
            return result

        return functools.update_wrapper(observed, fn)

    def _count_witness(self, args, kwargs, result):
        if result is not None:
            fam = _family(args, kwargs)
            self.witnesses_found[fam] = self.witnesses_found.get(fam, 0) + 1

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        observers = {
            "canonicalize": lambda a, k, r: self.canonical_forms.add(r),
            "minor_witness": self._count_witness,
            "enumerate_presentations": lambda a, k, r: self.enumerated.setdefault(id(r), len(r)),
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "ribbonminor" or n.startswith("ribbonminor.")]
        for owner, attr, name in FUNCTIONS:
            orig = getattr(owner, attr)
            new = self.wrap(orig, name)
            if attr in observers:
                new = self._observe(new, observers[attr])
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._replace(module, key, new)
        for cls, attr, name in METHODS:
            self._replace(cls, attr, self.wrap(cls.__dict__[attr], name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path: str) -> dict:
        """Write the spans to ``path`` and return what reads them back."""
        with open(path, "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        return {
            "span_file": path,
            "n_spans": len(self.starts),
            "names": self.names,
            "canonical_forms": len(self.canonical_forms),
            "witnesses_found": self.witnesses_found,
            "classes": sum(self.enumerated.values()),
        }
