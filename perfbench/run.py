#!/usr/bin/env python3
"""sgx benchmark: drive the sgx CLI in-process on one workload and report.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Each run cycles through the workload's op list (workloads.py) until every
op has run and the ops have taken at least ``--seconds``, calling
``sgx.cli.main`` with ``--format json -o <file>`` so that argument parsing
and report output sit on the measured path.  Every op's report is checked (checks.py).

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json, in
reference seconds (see ``calibrate``);
``--trace 1`` runs one untraced pass, then traced passes, and prints the
per-layer metrics (tracer.py), each per pass.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
Spans and a full record of the run go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from importlib import metadata, util
from pathlib import Path

from checks import canonical_digest, check_report, op_key
from tracer import WRAPS, OP_SPAN, SpanTotals, Tracer, layer_metrics
from workloads import WORKLOADS, op_work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_SAMPLES = 5
CAL_ROUNDS = 6000
CAL_REF_S = 0.05
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy as np
import sgx.cli
from sgx.spectra import eigenvalues_symmetric
eigenvalues_symmetric(np.ones((5, 5)) - np.eye(5))
print(time.perf_counter() - t0)
"""


def calibrate() -> float:
    """Seconds that a fixed pure-Python float loop takes now.

    The shared host runs this process at a speed that swings by up to a
    factor of 2 over tens of seconds, and the loop's time follows those
    swings as sgx's own interpreted code does.  A time divided by the loop
    time measured around it and multiplied by CAL_REF_S is in reference
    seconds: seconds at the host speed at which the loop takes CAL_REF_S.
    """
    t0 = time.perf_counter()
    rows = [[(i * 7 + j * 3) % 11 / 11.0 for j in range(6)] for i in range(6)]
    acc = 0.0
    for _ in range(CAL_ROUNDS):
        for row in rows:
            for j in range(6):
                x = row[j]
                acc += x * x / (1.0 + math.sqrt(1.0 + x * x))
                row[j] = x * 0.999 + 0.001
    return time.perf_counter() - t0


def to_ref_s(dt: float, cal_before: float, cal_after: float) -> float:
    return dt * CAL_REF_S * 2 / (cal_before + cal_after)


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Import-plus-first-solve times of ``samples`` fresh processes, in
    seconds and in reference seconds.

    sgx does no threaded BLAS work, so the children get one BLAS thread:
    starting a pool of them at numpy import makes the time depend on whether
    a second core happens to be free.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    times, ref = [], []
    cal = calibrate()
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        cal_next = calibrate()
        times.append(float(out.stdout.split()[-1]))
        ref.append(to_ref_s(times[-1], cal, cal_next))
        cal = cal_next
    return times, ref


def environment() -> dict:
    import numpy
    import sgx.spectra

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    has_numba = util.find_spec("numba") is not None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": metadata.version("numba") if has_numba else None,
        "jacobi_jit": bool(getattr(sgx.spectra, "JACOBI_JIT", False)),
    }


class OpRunner:
    """Runs CLI ops one at a time, checks each report and counts failures."""

    def __init__(self, tmp: Path, pins: dict[str, str]):
        import sgx.cli

        self._cli = sgx.cli
        self._path = tmp / "report.json"
        self._pins = pins
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}

    def fail(self, argv, problems: list[str]) -> None:
        self.failed += 1
        self.failures.append({"op": op_key(argv), "problems": problems})
        print(f"FAILED {op_key(argv)}: {'; '.join(problems)}", file=sys.stderr)

    def run(self, argv, tracer: Tracer | None = None) -> tuple[float, dict | None]:
        """Time one op; returns (seconds, report), report None when it failed."""
        self._path.unlink(missing_ok=True)
        self.attempted += 1
        rc, crash = None, None
        span = tracer.open(OP_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            rc = self._cli.main([*argv, "--format", "json", "-o", str(self._path)])
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            traceback.print_exc()
            crash = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        try:
            report = json.loads(self._path.read_text())
        except (OSError, ValueError):
            report = None
        problems = ([crash] if crash else []) + check_report(argv, rc, report, self._pins)
        if problems:
            self.fail(argv, problems)
            return dt, None
        self.digests[op_key(argv)] = canonical_digest(report)
        return dt, report


def run_passes(runner: OpRunner, ops, seconds: float, tracer: Tracer | None = None) -> dict:
    """Whole passes over ``ops`` until the ops have taken ``seconds``."""
    times, work, passes = [], 0, 0
    while passes == 0 or sum(times) < seconds:
        for argv in ops:
            dt, report = runner.run(argv, tracer)
            times.append(dt)
            if report is not None:
                work += op_work(argv, report)
        passes += 1
    return {"times": times, "work": work, "passes": passes}


def split_solve_ratio(argv) -> float | None:
    """Solves of the two mask halves that --workers 2 scans over the solves
    of the single range, for one enumerate op; None if sgx no longer has
    the scanned names."""
    import sgx.search as search
    from sgx.forbidden import parse_forbidden

    n = int(argv[argv.index("--n") + 1])
    spec = parse_forbidden(argv[argv.index("--forbid") + 1])
    total = 1 << (n * (n - 1) // 2)
    kernel_wraps = [w for w in WRAPS if w[2] == "spectra.kernel"]

    def solves(lo: int, hi: int) -> int:
        with Tracer(kernel_wraps) as tracer:
            search._scan_extremal_range((n, spec.kind, spec.t, lo, hi, search.DEFAULT_POOL))
        return SpanTotals(tracer).count("spectra.kernel")

    try:
        single = solves(0, total)
        halves = solves(0, total // 2) + solves(total // 2, total)
    except (AttributeError, LookupError, TypeError, ValueError):
        return None
    return halves / single if single else None


def check_two_workers(runner: OpRunner, argv) -> None:
    """--workers 2 must give the same canonical report as --workers 1."""
    two = list(argv)
    two[two.index("--workers") + 1] = "2"
    _, report = runner.run(two)
    if report is not None and canonical_digest(report) != runner.digests.get(op_key(argv)):
        runner.fail(two, ["canonical report differs from --workers 1"])


def run_cycle(runner: OpRunner, ops, seconds: float) -> dict:
    """The ops in pass order, cycled, until every op has run and the ops
    have taken ``seconds``; returns each op's times, in seconds and in
    reference seconds, and its work."""
    times = {op_key(argv): [] for argv in ops}
    ref = {key: [] for key in times}
    work = dict.fromkeys(times, 0)
    elapsed, i = 0.0, 0
    cal = calibrate()
    while i < len(ops) or elapsed < seconds:
        argv = ops[i % len(ops)]
        dt, report = runner.run(argv)
        cal_next = calibrate()
        times[op_key(argv)].append(dt)
        ref[op_key(argv)].append(to_ref_s(dt, cal, cal_next))
        if report is not None:
            work[op_key(argv)] = op_work(argv, report)
        cal = cal_next
        elapsed += dt
        i += 1
    return {"times": times, "ref": ref, "work": work}


def end_to_end(runner: OpRunner, workload, ops, seconds: float) -> tuple[dict, dict]:
    # The first process may also compile bytecode and is dropped; the rest
    # are split before and after the ops, so that their median spans the
    # run as the op timings do.
    measure_setup(1)
    setup, setup_ref = measure_setup(SETUP_SAMPLES)
    res = run_cycle(runner, ops, seconds)
    more, more_ref = measure_setup(SETUP_SAMPLES)
    setup += more
    setup_ref += more_ref
    work = sum(res["work"].values())
    # A pass timed op by op: the sum of each op's median time.
    pass_ref_s = sum(statistics.median(ts) for ts in res["ref"].values())
    pass_s = sum(statistics.median(ts) for ts in res["times"].values())
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "work_per_ref_s": work / pass_ref_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    detail = {
        "wall_setup_s": statistics.median(setup),
        "wall_work_per_s": work / pass_s,
        "op_samples": {key: len(ts) for key, ts in res["times"].items()},
        "pass_work": work,
        "work_unit": workload.work_unit,
        "setup_samples": setup,
        "setup_ref_samples": setup_ref,
        "op_times": res["times"],
        "op_ref_times": res["ref"],
    }
    return metrics, detail


def per_layer(runner: OpRunner, workload, ops, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    base = run_passes(runner, ops, 0.0)
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer:
            res = run_passes(runner, ops, seconds, tracer)
    tracer.save(spans_path)
    overflow = sum(
        1 for w in caught
        if issubclass(w.category, RuntimeWarning) and Path(w.filename).name == "spectra.py"
    )
    enumerate_ops = sum(1 for argv in ops if argv[0] == "enumerate")
    restarts = sum(op_work(argv, {}) for argv in ops if argv[0] == "search")
    metrics, absent = layer_metrics(tracer, res["passes"], enumerate_ops, restarts, overflow)
    traced_pass = sum(res["times"]) / res["passes"]
    metrics["trace.overhead_ratio"] = traced_pass / sum(base["times"])
    ratio = 0.0  # the 2-worker diagnostic runs on enumerate only
    if workload.split_op:
        ratio = split_solve_ratio(workload.split_op)
        check_two_workers(runner, workload.split_op)
    if ratio is None:
        absent.append("search.split_solve_ratio_2w")
    else:
        metrics["search.split_solve_ratio_2w"] = ratio
    detail = {
        "passes": res["passes"],
        "spans": len(tracer.start),
        "absent": absent,
        "untraced_pass_s": sum(base["times"]),
        "traced_pass_s": traced_pass,
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [str(p) for p in (SRC / "sgx" / "cli.py", spec_path) if not p.is_file()]
    if missing:
        print(f"error: not a checkout of sgx, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.pop("SGX_WORKERS", None)
    sys.path.insert(0, str(SRC))
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    ops = workload.pass_order(args.seed)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        runner = OpRunner(tmp, json.loads((HERE / "pins.json").read_text()))
        if args.trace:
            spans = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
            values, detail = per_layer(runner, workload, ops, args.seconds, spans)
        else:
            values, detail = end_to_end(runner, workload, ops, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "detail": detail,
              "failures": runner.failures, **result}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {len(ops)} ops per pass, "
          f"work_per_ref_s counts {workload.work_unit}")
    for key, val in detail.items():
        if not isinstance(val, (list, dict)):
            print(f"  {key}: {val}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
