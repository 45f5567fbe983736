"""Correctness gates, run by ``bench/run.py`` outside the timed region.

Each gate returns ``(attempted, failed, notes)``: one attempted operation
per verify id, enumeration, minor query or kernel input, in every child
run, and ``failed`` counts operations, each at most once.  Outputs are
compared with ``bench/reference.json``, recorded from the program at the
commit that introduced the benchmark, and the first run's outputs are
checked in depth against ``tests/oracles.py``, which re-derives faces,
genus and equivalence along an independent code path.  Every later run
must reproduce the first run's outputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import networkx as nx
from oracles import brute_equivalent, nx_euler_genus, nx_face_count

from ribbonminor import (
    ArrowPresentation,
    MinorMove,
    canonical_presentation,
    canonicalize,
    parse_arp,
    partial_dual,
)

ENUMERATE_PAIR_SAMPLE = 200
KERNEL_CHECK_SAMPLE = 25


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _circles(groups):
    """Circles from their token strings, parsed without the program under test."""
    return [[(tok[:-1], 1 if tok[-1] == "+" else -1) for tok in grp.split()] for grp in groups]


def _arp_circles(arp: str):
    return _circles(line.replace("()", "") for line in arp.splitlines())


def _one_line_circles(text: str):
    return _circles(re.findall(r"\(([^()]*)\)", text))


def _compare_runs(runs, shallow_ok, notes):
    """Count every operation of every run; an operation fails its shallow
    gate, or (after the first run) differs from the first run's output."""
    first = runs[0]["outputs"]
    attempted, failed = 0, set()
    for r, run in enumerate(runs):
        for i, out in enumerate(run["outputs"]):
            attempted += 1
            ok = out.get("error") is None and shallow_ok(i, out)
            if r > 0 and json.dumps(out, sort_keys=True) != json.dumps(first[i], sort_keys=True):
                ok = False
                notes.append(f"run {r} op {i}: output differs from the first run")
            if not ok:
                failed.add((r, i))
                notes.append(f"run {r} op {i}: failed ({out.get('error') or 'wrong output'})")
    return attempted, failed


def check_verify(runs, job, ref):
    notes: list[str] = []

    def ok(i, out):
        want = ref["verify"][out["id"]]
        return out["rc"] == 0 and out["rows"] == want["rows"] and out["sha256"] == want["sha256"]

    attempted, failed = _compare_runs(runs, ok, notes)
    if sorted(o["id"] for o in runs[0]["outputs"]) != sorted(ref["verify"]):
        failed.add((0, 0))
        notes.append("verify ids differ from the reference")
    return attempted, len(failed), notes


def check_enumerate(runs, job, ref, seed):
    notes: list[str] = []
    want = ref["enumerate"]

    def ok(i, out):
        classes = out["classes"]
        return (len(classes) == want["classes"] and classes == sorted(classes)
                and _sha256("".join(c + "\n" for c in classes)) == want["sha256"])

    attempted, failed = _compare_runs(runs, ok, notes)
    classes = runs[0]["outputs"][0]["classes"] or []
    bad = [c for c in classes if canonicalize(parse_arp(c)) != c]
    groups: dict[tuple[int, int], list[ArrowPresentation]] = {}
    for c in classes:
        g = ArrowPresentation(_one_line_circles(c))
        groups.setdefault((g.n_vertices, g.n_edges), []).append(g)
    keys = sorted(k for k, v in groups.items() if len(v) > 1)
    rng = random.Random(f"{seed}:pairs")
    for _ in range(ENUMERATE_PAIR_SAMPLE if keys else 0):
        g, h = rng.sample(groups[rng.choice(keys)], 2)
        if brute_equivalent(g, h):
            bad.append(f"{g.to_text()} ~ {h.to_text()}")
    if bad:
        failed.add((0, 0))
        notes.append(f"enumerate: {len(bad)} classes not canonical or not distinct, e.g. {bad[0]}")
    return attempted, len(failed), notes


def _nx_multigraph(g) -> nx.MultiGraph:
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(g.n_vertices))
    ends: dict[str, list[int]] = {}
    for ci, circle in enumerate(g.circles):
        for lab, _ in circle:
            ends.setdefault(lab, []).append(ci)
    graph.add_edges_from(tuple(v) for v in ends.values())
    return graph


def check_minor(runs, job, ref):
    notes: list[str] = []
    want = ref["minor_deep"]

    def ok(i, out):
        got = None if out["witness"] is None else len(out["witness"])
        return got == want[i]["witness_length"]

    attempted, failed = _compare_runs(runs, ok, notes)
    for i, (q, out) in enumerate(zip(job["queries"], runs[0]["outputs"])):
        if out["witness"] is None:
            continue
        state = canonical_presentation(parse_arp(q["g"]))
        for line in out["witness"]:
            state = canonical_presentation(MinorMove.parse(line).apply(state))
        h = parse_arp(q["h"])
        if q["family"] == "join":
            same = nx.is_isomorphic(_nx_multigraph(state), _nx_multigraph(h))
        else:
            same = brute_equivalent(state, h)
        if not same:
            failed.add((0, i))
            notes.append(f"minor query {i}: witness does not reach the target")
    return attempted, len(failed), notes


def check_kernels(runs, job, ref, seed):
    notes: list[str] = []
    attempted, failed = _compare_runs(runs, lambda i, out: True, notes)
    items = job["inputs"]
    rng = random.Random(f"{seed}:kernel-check")
    for i in sorted(rng.sample(range(len(items)), min(KERNEL_CHECK_SAMPLE, len(items)))):
        out, item = runs[0]["outputs"][i], items[i]
        if out.get("error") is not None:
            continue
        circles = _arp_circles(item["arp"])
        g = ArrowPresentation(circles)
        faces, genus = nx_face_count(g), nx_euler_genus(g)
        errors = []
        if out["F"] != faces or out["genus"] != genus:
            errors.append("faces or genus differ from the networkx oracle")
        if out["dual_V"] != faces:
            errors.append("|V(g*)| != |F(g)|")
        if out["classes"][0] != all(len(c) % 2 == 0 for c in circles):
            errors.append("is_eulerian wrong")
        if out["classes"][4] != (genus == 0):
            errors.append("is_plane wrong")
        for subset, got in zip(item["subsets"], out["pdual_VE"]):
            once = partial_dual(g, subset)
            twice = partial_dual(once, subset)
            if got != [once.n_vertices, once.n_edges] or (
                    twice.n_vertices, twice.n_edges, nx_face_count(twice)) != (
                    g.n_vertices, g.n_edges, faces):
                errors.append(f"partial dual over {subset} does not invert")
        if errors:
            failed.add((0, i))
            notes.append(f"kernel input {i}: " + "; ".join(errors))
    return attempted, len(failed), notes


def check(workload, runs, job, ref, seed):
    if workload == "verify-e3":
        return check_verify(runs, job, ref)
    if workload == "enumerate-e4c2":
        return check_enumerate(runs, job, ref, seed)
    if workload == "minor-deep":
        return check_minor(runs, job, ref)
    return check_kernels(runs, job, ref, seed)
