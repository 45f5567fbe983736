"""Seeded input generation for the benchmark workloads.

Everything here is plain Python over ``(label, sign)`` circles and never
imports ribbonminor: the program under test only ever sees the ``.arp``
text produced by :func:`to_arp`.  The same seed always gives the same
inputs (``random.Random`` seeded with a string is stable across processes).
"""

from __future__ import annotations

import random

# Catalog targets per minor family, in the order the excluded-minor
# predicates list them.  The two ``*_dual`` texts are the geometric duals the
# library's target catalog computes.
CATALOG_ARP = {
    "orientable_loop": "(e+ e+)",
    "nonorientable_loop": "(e+ e-)",
    "single_edge": "(e+)(e+)",
    "double_interleaved_loops": "(a+ b+ a+ b+)",
    "triple_interleaved_loops": "(a+ b+ c+ a+ b+ c+)",
    "twisted_interleaved_loops": "(a+ b+ a- b-)",
    "triple_interleaved_loops_dual": "(b- c- a-)(c- a- b-)",
    "twisted_interleaved_loops_dual": "(b- a-)(a+ b-)",
}
FAMILY_TARGETS = {
    "eulerian": ("single_edge", "nonorientable_loop", "double_interleaved_loops",
                 "triple_interleaved_loops", "twisted_interleaved_loops"),
    "cc": ("single_edge", "nonorientable_loop", "triple_interleaved_loops",
           "twisted_interleaved_loops"),
    "even-face": ("orientable_loop", "nonorientable_loop", "double_interleaved_loops",
                  "triple_interleaved_loops_dual", "twisted_interleaved_loops_dual"),
    "bipartite": ("orientable_loop", "nonorientable_loop", "triple_interleaved_loops_dual",
                  "twisted_interleaved_loops_dual"),
    "join": ("orientable_loop", "nonorientable_loop"),
}
FAMILIES = tuple(FAMILY_TARGETS)

VERIFY_IDS = (
    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "C1", "C2", "C3", "C4",
    "cc-closure", "bipartite-closure", "genus-contract-delete", "genus-eulerian",
    "genus-cc", "dual-transport-eulerian", "dual-transport-cc",
)

# minor-deep and kernels-large draw their ribbon graphs from these fixed
# seeds; --seed rewrites each one into another presentation of the same
# ribbon graph, so the work is the same for every seed.
MINOR_POOL_SEED = "minor-deep-pool-1"
KERNEL_POOL_SEED = "kernels-large-pool-1"
MINOR_QUERIES = 12
KERNEL_INPUTS = 100
KERNEL_PARTIAL_DUALS = 4


def to_arp(circles) -> str:
    """``.arp`` text: one circle per line, ``()`` for an isolated vertex."""
    return "".join(
        (" ".join(f"{lab}{'+' if s > 0 else '-'}" for lab, s in c) if c else "()") + "\n"
        for c in circles
    )


def _connected(circles) -> bool:
    parent = list(range(len(circles)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    first = {}
    for ci, c in enumerate(circles):
        for lab, _ in c:
            if lab in first:
                parent[find(ci)] = find(first[lab])
            else:
                first[lab] = ci
    return len({find(i) for i in range(len(circles))}) == 1


def random_connected(rng: random.Random, n_edges: int, n_circles: int):
    """A uniformly shuffled arrow word cut into ``n_circles`` non-empty
    circles, redrawn until the underlying graph is connected."""
    while True:
        arrows = [(f"e{i}", rng.choice((1, -1))) for i in range(n_edges) for _ in range(2)]
        rng.shuffle(arrows)
        cuts = sorted(rng.sample(range(1, 2 * n_edges), n_circles - 1))
        bounds = (0, *cuts, 2 * n_edges)
        circles = [arrows[bounds[i]:bounds[i + 1]] for i in range(n_circles)]
        if _connected(circles):
            return circles


def rewrite(rng: random.Random, circles):
    """Another presentation of the same ribbon graph: relabel the edges,
    flip arrow pairs, rotate and reverse circles, and permute them.
    Returns the new circles and the relabelling."""
    labels = sorted({lab for c in circles for lab, _ in c})
    names = rng.sample(range(10 * len(labels) + 10), len(labels))
    relabel = {lab: f"x{n}" for lab, n in zip(labels, names)}
    flipped = {lab for lab in labels if rng.random() < 0.5}
    out = []
    for c in circles:
        c = [(relabel[lab], -s if lab in flipped else s) for lab, s in c]
        if c:
            r = rng.randrange(len(c))
            c = c[r:] + c[:r]
            if rng.random() < 0.5:
                c = [(lab, -s) for lab, s in reversed(c)]
        out.append(c)
    rng.shuffle(out)
    return out, relabel


def verify_ids(seed: int) -> list[str]:
    ids = list(VERIFY_IDS)
    random.Random(f"{seed}:verify").shuffle(ids)
    return ids


def minor_pool():
    """The fixed minor-deep query classes: ``(circles, family, target)``.

    Inputs are random connected presentations with 4 edges and 1-4 circles;
    families go round-robin and each family cycles through its targets.
    """
    rng = random.Random(MINOR_POOL_SEED)
    pool = []
    for i in range(MINOR_QUERIES):
        family = FAMILIES[i % len(FAMILIES)]
        targets = FAMILY_TARGETS[family]
        target = targets[(i // len(FAMILIES)) % len(targets)]
        pool.append((random_connected(rng, 4, rng.randint(1, 4)), family, target))
    return pool


def minor_queries(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:minor")
    return [
        {"g": to_arp(rewrite(rng, circles)[0]), "h": CATALOG_ARP[target], "family": family,
         "target": target}
        for circles, family, target in minor_pool()
    ]


def kernel_pool():
    """The fixed kernels-large ribbon graphs with their partial-dual edge sets.

    Random connected presentations with 8-32 edges and 1-6 circles; the
    sizes follow a fixed schedule, so the mix of edge and circle counts is
    even.
    """
    rng = random.Random(KERNEL_POOL_SEED)
    pool = []
    for i in range(KERNEL_INPUTS):
        n_edges = 8 + i % 25
        n_circles = 1 + (i + i // 25) % 6
        circles = random_connected(rng, n_edges, n_circles)
        labels = sorted({lab for c in circles for lab, _ in c})
        subsets = [rng.sample(labels, rng.randint(1, len(labels)))
                   for _ in range(KERNEL_PARTIAL_DUALS)]
        pool.append((circles, subsets))
    return pool


def kernel_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:kernels")
    out = []
    for circles, subsets in kernel_pool():
        circles, relabel = rewrite(rng, circles)
        out.append({"arp": to_arp(circles),
                    "subsets": [sorted(relabel[lab] for lab in s) for s in subsets],
                    "sample_seed": rng.randrange(2**32)})
    return out
