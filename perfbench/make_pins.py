#!/usr/bin/env python3
"""Regenerate pins.json: run every workload op once, check its invariants and
record the SHA-256 of its canonical JSON.

Usage (from the repository root): python3 perfbench/make_pins.py

Run it only on a commit whose outputs are trusted; a change that moves a
digest must say which and why.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, SRC, OpRunner
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp-pins"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = OpRunner(tmp, {})
        for workload in WORKLOADS.values():
            for argv in workload.ops:
                runner.run(argv)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if runner.failed:
        print(f"error: {runner.failed} ops failed; pins not written", file=sys.stderr)
        return 1
    (HERE / "pins.json").write_text(json.dumps(runner.digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runner.digests)} pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
