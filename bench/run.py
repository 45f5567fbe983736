"""The ribbonminor benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` with ``PYTHONPATH=src``, nothing is installed.  Every run of the
workload happens in a fresh child process (``bench/child.py``), one child
at a time, so the program's memo tables start empty as they do for a CLI
user.  A discarded warm-up child first compiles the ``.pyc`` files.

``--trace 0`` repeats the workload in new children until ``--seconds`` are
used and reports the end-to-end metrics of ``BENCHMARK.json``: medians over
the children.  Times are normalised to a reference machine speed measured
while the workload runs (``SpeedProbe`` in ``bench/child.py``), because the
shared host's throughput drifts by more than any bound could allow.  ``--trace 1`` runs the workload once untraced and once with
the outside-in tracer of ``bench/tracer.py`` and reports the per-layer
metrics.  Either way the outputs are checked (``bench/checks.py``) outside
the timed region.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 10
RUN_BUDGET_S = 170
# The probe loop's time at the reference speed; normalised times are in
# seconds at that speed (see SpeedProbe in bench/child.py).
PROBE_REF_S = 0.010
PROBE_WINDOW_S = 1.0
PROBE_MIN = 3
# The operation whose latency op_p50_ms / op_tail_ms describe.  verify-e3
# and enumerate-e4c2 are one request each, so their operation is the run.
OP_UNIT = {"verify-e3": "run", "enumerate-e4c2": "run", "minor-deep": "query",
           "kernels-large": "input"}


class BenchError(RuntimeError):
    pass


def make_job(workload: str, seed: int) -> dict:
    job = {"workload": workload, "mode": "run", "trace": False}
    if workload == "verify-e3":
        job["ids"] = inputs.verify_ids(seed)
    elif workload == "minor-deep":
        job["queries"] = inputs.minor_queries(seed)
    elif workload == "kernels-large":
        job["inputs"] = inputs.kernel_inputs(seed)
    return job


def spawn(job: dict, deadline: float) -> dict:
    """Run one child to completion, killing it at ``deadline``
    (``time.monotonic()``), and return its JSON result."""
    env = dict(os.environ)
    # the warm-up child's .pyc files keep compilation out of setup_s
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")], input=json.dumps(job), capture_output=True,
        text=True, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it (nearest
    rank).  Below 21 samples that percentile would not lie above the
    median, so the tail is the maximum."""
    xs = sorted(samples)
    if len(xs) < 21:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def normalised_setup(child: dict) -> float:
    """``setup_s`` at the reference speed, from the probe samples the child
    takes right after its set-up."""
    return child["setup_s"] * PROBE_REF_S / statistics.fmean(dt for _, dt in child["setup_probe"])


def normalised_ops(child: dict) -> list[float]:
    """Each operation's time at the reference speed.

    The speed during an operation is ``PROBE_REF_S`` over the mean probe
    time of the samples taken from ``PROBE_WINDOW_S`` before it starts to
    ``PROBE_WINDOW_S`` after it ends, or of the nearest ``PROBE_MIN``
    samples when that window holds fewer.
    """
    probe = child["probe"]
    out = []
    for (start, end), work in zip(child["op_spans"], child["op_s"]):
        near = [dt for t, dt in probe if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if len(near) < PROBE_MIN:
            mid = (start + end) / 2
            near = [dt for _, dt in sorted(probe, key=lambda s: abs(s[0] - mid))[:PROBE_MIN]]
        out.append(work * PROBE_REF_S / statistics.fmean(near))
    return out


def end_to_end(workload: str, runs: list[dict], setups: list[float], lines: list[str]) -> dict:
    per_child = [normalised_ops(r) for r in runs]
    walls = [sum(ops) for ops in per_child]
    if OP_UNIT[workload] == "run":
        ops = walls
    else:  # one latency per operation: its median over the children
        ops = [statistics.median(c[i] for c in per_child) for i in range(len(per_child[0]))]
    op_tail, pct = tail(ops)
    lines.append(f"operation = one {OP_UNIT[workload]}; {len(ops)} samples; "
                 f"tail = p{pct:.1f}; children = {len(runs)}; setup samples = {len(setups)}")
    lines.append("per child: raw wall_s " + ", ".join(f"{r['wall_s']:.3f}" for r in runs)
                 + "; normalised " + ", ".join(f"{w:.3f}" for w in walls))
    return {
        "setup_s": statistics.median(setups),
        "norm_wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "norm_op_p50_ms": 1000 * statistics.median(ops),
        "norm_op_tail_ms": 1000 * op_tail,
    }


def read_spans(path: str, n: int):
    """The arrays ``Tracer.dump`` wrote: name ids, parents, starts, ends."""
    arrays = (array("i"), array("q"), array("d"), array("d"))
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return arrays


def per_layer(base: dict, traced: dict, lines: list[str]) -> dict:
    tr, caches = traced["trace"], traced["caches"]
    name_ids, parents, starts, ends = read_spans(tr["span_file"], tr["n_spans"])
    names = [tr["names"][i] for i in name_ids]
    child_s = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child_s[p] += ends[i] - starts[i]
    calls: Counter = Counter(names)
    self_s: defaultdict = defaultdict(float)
    for i, name in enumerate(names):
        self_s[name] += ends[i] - starts[i] - child_s[i]
    candidates = sum(1 for i, name in enumerate(names) if name == "arrow_core.canonicalize"
                     and parents[i] >= 0 and names[parents[i]] == "verify.enumerate_presentations")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for fn in ("arrow_core.canonicalize", "arrow_core.canonical_presentation",
               "arrow_core.UnderlyingGraph.canonical_key", "arrow_core.trace_boundaries",
               "arrow_core.ArrowPresentation.init", "arrow_core.parse_arp",
               "duality.partial_dual", "minor_ops.can_split_face", "minor_ops.can_split_vertex",
               "minor_ops.is_proper_deletion", "minor_ops.MinorMove.apply",
               "minor_search.applicable_moves"):
        m[f"{fn}.calls"], m[f"{fn}.self_s"] = calls[fn], self_s[fn]
    m["arrow_core.canonicalize.distinct"] = tr["canonical_forms"]
    m["arrow_core.canon_cache.entries"] = caches["canon_cache.entries"]
    for fn in ("trace_boundaries", "underlying_graph", "euler_genus"):
        hits, misses = caches[f"{fn}.hits"], caches[f"{fn}.misses"]
        m[f"arrow_core.{fn}.hit_ratio"] = ratio(hits, hits + misses)
    m["predicates.self_s"] = sum(v for k, v in self_s.items() if k.startswith("predicates."))
    m["minor_search.contains_cache.entries"] = caches["contains_cache.entries"]
    m["minor_search.successor_cache.entries"] = caches["successor_cache.entries"]
    for fam in inputs.FAMILIES:
        c, w = f"minor_search.contains_minor.{fam}", f"minor_search.minor_witness.{fam}"
        m[f"{c}.calls"], m[f"{c}.self_s"] = calls[c], self_s[c]
        m[f"{c}.searches"] = caches[f"contains_cache.{fam}"]
        m[f"{w}.calls"], m[f"{w}.self_s"] = calls[w], self_s[w]
        m[f"{w}.found"] = tr["witnesses_found"].get(fam, 0)
    enum = "verify.enumerate_presentations"
    m[f"{enum}.self_s"] = self_s[enum]
    m[f"{enum}.classes"] = tr["classes"]
    m[f"{enum}.candidates"] = candidates
    m[f"{enum}.useful_ratio"] = ratio(tr["classes"], candidates)
    for fn in ("verify.verify_theorem", "verify.verify_lemma",
               "verify.VerificationReport.to_text", "cli.main"):
        m[f"{fn}.self_s"] = self_s[fn]
    m["process.cpu_s"] = base["cpu_s"]
    m["tracing.overhead_s"] = traced["wall_s"] - base["wall_s"]

    traced_self = sum(self_s.values())
    lines.append(f"untraced wall_s {base['wall_s']:.3f}, cpu_s {base['cpu_s']:.3f}; traced wall_s "
                 f"{traced['wall_s']:.3f}, {tr['n_spans']} spans, self time in spans "
                 f"{traced_self:.3f} s")
    lines.append("no layer waits: one single-threaded process, no queue, no second worker")
    absent = sorted({name.rsplit(".", 1)[0] for name, value in m.items() if value == 0})
    if absent:
        lines.append("reported as 0, no call on this workload: " + ", ".join(absent))
    return m


def run(args, lines: list[str]):
    deadline = time.monotonic() + RUN_BUDGET_S
    job = make_job(args.workload, args.seed)
    spawn({"mode": "setup"}, deadline)  # warm-up: compiles .pyc files, discarded
    if args.trace:
        base = spawn(job, deadline)
        span_dir = ROOT / ".bench_spans"
        span_dir.mkdir(exist_ok=True)
        span_file = span_dir / f"{args.workload}-{args.seed}-{os.getpid()}.bin"
        try:
            traced = spawn({**job, "trace": True, "span_file": str(span_file)}, deadline)
            metrics = per_layer(base, traced, lines)
        finally:
            span_file.unlink(missing_ok=True)
            if not any(span_dir.iterdir()):
                span_dir.rmdir()
        return [base, traced], metrics, job
    setups = [normalised_setup(spawn({"mode": "setup"}, deadline)) for _ in range(SETUP_RUNS)]
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(spawn(job, deadline))
        setups.append(normalised_setup(runs[-1]))
        elapsed = time.perf_counter() - start
        # start another child only while at least a quarter of a child's
        # time is left: a child may overrun the deadline by up to 3/4 of
        # its time, so a 15 s child still runs twice in 20 s
        if elapsed + 0.25 * elapsed / len(runs) >= args.seconds:
            break
    return runs, end_to_end(args.workload, runs, setups, lines), job


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in ("src/ribbonminor/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            print(f"error: {need} not found under {ROOT}; run from a source checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())

    lines: list[str] = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    try:
        runs, values, job = run(args, lines)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import checks

    attempted, failed, notes = checks.check(args.workload, runs, job, reference, args.seed)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        lines.append(f"{name:60s} {m['value']:.6g} {m['unit']}")
    lines.append(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    lines.extend(notes[:20])
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
