#!/usr/bin/env python3
"""The benchmark's correctness checks over many seeds.

For each seed, runs one tiny pass of ``audit_sessions``, ``stability_drift``
and ``records_roundtrip`` from ``perfbench/workloads.py``: the size of the
benchmark's set-up probes and warm-up pass, which use the run's seed.  A
stream change can pass on one seed and fail a check on another, so this
runs them all, seeds 1-100.  Prints every failed check and exits 1 if
there is one::

    python3 scripts/check_bench_seeds.py
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("audit_sessions", "stability_drift", "records_roundtrip")


SEEDS = range(1, 101)


def main() -> int:
    # as in the harness, which owns the thread setting
    os.environ["QKD_THREADS"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import run as harness
    import workloads

    nproc = harness._nproc()
    failed = attempted = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            for name in WORKLOADS:
                checks = workloads.Checks()
                workloads.WORKLOADS[name](ROOT, seed, workdir, checks, True, nproc).run_pass()
                for failure in checks.failures:
                    print(f"seed {seed} {name}: {failure}")
                failed += checks.failed
                attempted += checks.attempted
    print(f"seeds {SEEDS[0]}-{SEEDS[-1]}: {failed} of {attempted} checks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
