"""The three benchmark workloads: fixed CLI op lists and the work each op does.

Every workload is a closed loop with one client: the next CLI op starts when
the previous one returns.  A pass runs every op of the workload once, in an
order permuted by the workload seed; the op set itself never depends on the
seed, so every run does the same work per pass and the outputs of every op
are pinned by digest (pins.json).

Every op takes about 5 s or less on a 2-core machine without numba, so that
a run of 30 s holds one or more samples of every op; see README.md for the
measured op times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SEARCH_SEED = 42  # criterion 09's seed; the same for every workload seed


def _enumerate(n: int, forbid: str, top: int) -> tuple[str, ...]:
    return ("enumerate", "--n", str(n), "--forbid", forbid, "--top", str(top), "--workers", "1")


def _search(t: int) -> tuple[str, ...]:
    return (
        "search", "--n", "9", "--forbid", f"tc3:{t}", "--seed", str(SEARCH_SEED),
        "--restarts", "1", "--exclude", f"gamma:9,{min(t + 1, 9)}",
    )


def _verify(target: str, lo: int, hi: int) -> tuple[str, ...]:
    return ("verify", "--target", target, "--range", f"{lo}:{hi}", "--workers", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, ...], ...]
    work_unit: str  # what work_per_ref_s counts on this workload
    split_op: tuple[str, ...] | None = None  # enumerate op for the 2-worker diagnostic

    def pass_order(self, seed: int) -> list[tuple[str, ...]]:
        ops = list(self.ops)
        random.Random(seed).shuffle(ops)
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        # Exhaustive enumeration at n = 5, every forbidden-configuration path:
        # tc3 is Theorem 1's inline triangle-parity filter, where the Jacobi
        # kernel dominates (low and high thresholds both kept); book is the
        # inline per-edge dict path; friendship builds a SignedGraph and runs
        # the matching predicate per residual class.  --top 3 exercises dedupe
        # and classify.  Each op takes about a second, so a run repeats every
        # op; at n = 6 a single op takes 18-71 s, one sample per run.
        Workload(
            "enumerate",
            tuple(_enumerate(5, f"tc3:{t}", 1) for t in (2, 3, 5, 7))
            + (_enumerate(5, "book:2", 3), _enumerate(5, "friendship:2", 3)),
            "classes",
            split_op=_enumerate(5, "tc3:3", 1),
        ),
        # criterion 09's local search: medium n = 9 solves, one per feasible
        # move, plus the exclusion isomorphism checks.
        Workload("search-n9", tuple(_search(t) for t in range(3, 9)), "restarts"),
        # few large solves (n up to 40) and a little exact algebra; no pruning
        # and no forbidden-configuration work.
        Workload(
            "family-sweep",
            tuple(_verify("lq1", n, n) for n in (9, 16, 20, 22, 24))
            + (_verify("lqq1", 9, 40), _verify("identities", 9, 40)),
            "index evaluations",
        ),
    )
}


def op_work(argv: tuple[str, ...], report: dict) -> int:
    """Work units one op covered: switching classes visited for enumerate,
    restarts for search, family index evaluations for verify."""
    cmd = argv[0]
    if cmd == "enumerate":
        return int(report["classes_visited"])
    if cmd == "search":
        return int(argv[argv.index("--restarts") + 1])
    target = argv[argv.index("--target") + 1]
    lo, hi = (int(x) for x in argv[argv.index("--range") + 1].split(":"))
    if target == "lq1":  # gamma(n, t) and sigma(1, t-1, n-t-2) for 3 <= t <= n-3
        return sum(2 * (n - 5) for n in range(lo, hi + 1))
    if target == "lqq1":  # gamma(n, n-2) and u1(n)
        return 2 * (hi - lo + 1)
    return 0
