"""One cold run of one benchmark workload, in a fresh process.

Reads a job as JSON on standard input and prints one JSON result line on
standard output.  Run by ``bench/run.py`` with ``PYTHONPATH=src``; the memo
tables of the program start empty because every run is a new process.

``setup_s`` runs from the first statement of this file until the package
and its CLI module are imported and ``target_catalog()`` is built, so it is
measured before anything else is imported.
"""

import time

_T0 = time.perf_counter()
import ribbonminor  # noqa: E402
import ribbonminor.cli  # noqa: E402
from ribbonminor.minor_search import target_catalog  # noqa: E402

target_catalog()
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from ribbonminor import arrow_core, minor_search  # noqa: E402

KERNEL_MOVE_SAMPLE = 16
PROBE_INTERVAL_S = 0.2
PROBE_LOOPS = 20000
SETUP_PROBES = 3
# Taken before any tracing wraps these names, so cache_info() stays reachable.
_LRU_CACHES = {name: getattr(arrow_core, name)
               for name in ("trace_boundaries", "underlying_graph", "euler_genus")}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SpeedProbe:
    """Tracks how fast the machine runs during the timed region.

    The CPU throughput of a shared host can drift by 20-35% within seconds
    with its neighbours' load, which swamps changes to the program.
    While enabled, a SIGALRM handler times a fixed allocation-heavy loop
    every ``PROBE_INTERVAL_S``, interleaved with the workload, and records
    ``(start, seconds)`` per sample; ``bench/run.py`` divides each operation's
    time by the loop times measured around it.  The handler's own time is
    subtracted from every duration this probe measures, and ``op_spans``
    holds each operation's ``(start, end)``.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[tuple[float, float]] = []
        self.op_spans: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        gc_was_on = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        d: dict = {}
        for i in range(PROBE_LOOPS):
            key = (i % 97, i % 13, -1 if i & 1 else 1)
            d[key] = d.get(key, 0) + 1
        dt = time.perf_counter() - t
        if gc_was_on:
            gc.enable()
        self.samples.append((t, dt))
        self.spent += dt
        self._busy = False

    def start(self) -> None:
        if self.enabled:
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.spent = 0.0

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            spent = self.spent
            self.sample()
            self.spent = spent

    def timed(self, fn):
        """Run ``fn``; return ``(result, error text or None, seconds)``,
        the seconds excluding probe time.

        The benchmark must report a failed operation and go on, so any
        exception the program raises is recorded rather than propagated.
        """
        spent, t = self.spent, time.perf_counter()
        try:
            result, err = fn(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result, err = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.op_spans.append((t, end))
        return result, err, end - t - (self.spent - spent)


def run_verify(job, probe):
    def one(check_id):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ribbonminor.cli.main(["verify", check_id, "--max-edges", "3"])
        return rc, buf.getvalue()

    ops = []
    for check_id in job["ids"]:
        out, err, dt = probe.timed(lambda: one(check_id))
        ops.append((check_id, out, err, dt))
    return ops, lambda: [
        {"id": cid, "error": err, "rc": out and out[0],
         "rows": out and sum(1 for ln in out[1].splitlines() if not ln.startswith("#")),
         "sha256": out and _digest(out[1])}
        for cid, out, err, _ in ops
    ]


def run_enumerate(job, probe):
    from ribbonminor import EnumerationSpec, enumerate_presentations

    def one():
        classes = enumerate_presentations(EnumerationSpec(max_edges=4, max_circles=2))
        return [g.to_text() for g in classes]

    out, err, dt = probe.timed(one)
    return [("enumerate", out, err, dt)], lambda: [{"error": err, "classes": out}]


def run_minor(job, probe):
    from ribbonminor import MinorFamily, minor_witness, parse_arp

    def one(q):
        w = minor_witness(parse_arp(q["g"]), parse_arp(q["h"]), MinorFamily.parse(q["family"]))
        return None if w is None else [str(mv) for mv in w]

    ops = []
    for q in job["queries"]:
        out, err, dt = probe.timed(lambda: one(q))
        ops.append((q["family"], out, err, dt))
    return ops, lambda: [{"error": err, "witness": out} for _, out, err, _ in ops]


def run_kernels(job, probe):
    from ribbonminor import (
        MinorFamily, applicable_moves, euler_genus, geometric_dual, is_bipartite,
        is_checkerboard_colourable, is_eulerian, is_even_face, is_plane, parse_arp,
        partial_dual, trace_boundaries,
    )

    def one(item):
        g = parse_arp(item["arp"])
        faces = len(trace_boundaries(g))
        out = {
            "F": faces,
            "genus": euler_genus(g),
            "classes": [is_eulerian(g), is_even_face(g), is_checkerboard_colourable(g),
                        is_bipartite(g), is_plane(g)],
            "dual_V": geometric_dual(g).n_vertices,
            "pdual_VE": [[p.n_vertices, p.n_edges]
                         for p in (partial_dual(g, s) for s in item["subsets"])],
            "moves": {},
        }
        rng = random.Random(item["sample_seed"])
        for fam in MinorFamily:
            moves = applicable_moves(g, fam)
            picked = rng.sample(range(len(moves)), min(KERNEL_MOVE_SAMPLE, len(moves)))
            edges = [moves[i].apply(g).n_edges for i in picked]
            out["moves"][fam.value] = [len(moves), edges]
        return out

    ops = []
    for item in job["inputs"]:
        out, err, dt = probe.timed(lambda: one(item))
        ops.append(("input", out, err, dt))
    return ops, lambda: [{"error": err, **(out or {})} for _, out, err, _ in ops]


WORKLOADS = {
    "verify-e3": run_verify,
    "enumerate-e4c2": run_enumerate,
    "minor-deep": run_minor,
    "kernels-large": run_kernels,
}


def cache_stats() -> dict:
    """Sizes of the program's memo tables and its lru caches' counters."""
    stats = {
        "canon_cache.entries": len(arrow_core._canon_cache),
        "successor_cache.entries": len(minor_search._successor_cache),
        "contains_cache.entries": len(minor_search._contains_cache),
    }
    for fam in minor_search.MinorFamily:
        stats[f"contains_cache.{fam.value}"] = sum(
            1 for key in minor_search._contains_cache if key[0] is fam)
    for name, fn in _LRU_CACHES.items():
        info = fn.cache_info()
        stats[f"{name}.hits"], stats[f"{name}.misses"] = info.hits, info.misses
    return stats


def main() -> int:
    job = json.load(sys.stdin)
    # probe samples right after set-up, so run.py can normalise setup_s too
    setup_probe = SpeedProbe(enabled=True)
    for _ in range(SETUP_PROBES):
        setup_probe.sample()
    setup = {"setup_s": SETUP_S, "setup_probe": setup_probe.samples}
    if job["mode"] == "setup":
        print(json.dumps(setup))
        return 0
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    probe = SpeedProbe(enabled=not job["trace"])
    before = cache_stats()
    cpu0 = time.process_time()
    probe.start()
    t0 = time.perf_counter()
    ops, outputs = WORKLOADS[job["workload"]](job, probe)
    wall = time.perf_counter() - t0
    probe.stop()
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = cache_stats()
    result = {
        **setup,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "probe": probe.samples,
        "op_spans": probe.op_spans,
        "op_s": [dt for *_, dt in ops],
        "outputs": outputs(),
        "caches": {k: after[k] - before[k] if k.endswith(("hits", "misses")) else after[k]
                   for k in after},
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump(job["span_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
