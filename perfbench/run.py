#!/usr/bin/env python3
"""qkdlab benchmark: four closed-loop workloads over mcsim, optimizer and
record I/O, with a separate traced run for per-layer metrics.

Run from the root of a qkdlab checkout; the program is imported from its
``src/`` directory::

    python3 perfbench/run.py --workload audit_sessions --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run plus ``trace.overhead_frac``.  Human-readable lines before it
give provenance, the workload-specific figures, diagnostics and failed
checks.  Spans of a traced run are written to ``.perfbench/``.

Every time reported is calibrated for host speed against a reference
kernel timed between the program's operations; see ``calibrate.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("audit_sessions", "stability_drift", "projection_scan", "records_roundtrip")

# set-up is measured in this many fresh processes; setup_s is their median
SETUP_PROBES = 5
# reference samples that calibrate one set-up probe
SETUP_SAMPLES = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "op_s_p50": "s"}


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(name):
    return (f"{name}.calls", "count", lambda ps: ps.calls(name))


def _busy(name):
    return (f"{name}.busy_s", "s", lambda ps: ps.busy(name))


def _self(name):
    return (f"{name}.self_s", "s", lambda ps: ps.self_time(name))


_RS = "mcsim.run_session"
_EG = "optimizer.evaluate_grid"

# (name, unit, value of one traced pass)
PER_LAYER = [
    _calls(_RS), _busy(_RS), _self(_RS),
    (f"{_RS}.pulses_per_busy_s", "pulses/s",
     lambda ps: _rate(ps.count(_RS, "pulses"), ps.busy(_RS))),
    ("mcsim.click_gate_frac", "ratio",
     lambda ps: _rate(ps.count(_RS, "detection_gates"), ps.count(_RS, "pulses"))),
    ("mcsim.multi_click_frac", "ratio",
     lambda ps: _rate(ps.count(_RS, "multi_click_gates"), ps.count(_RS, "detection_gates"))),
    _self("mcsim.run_stability"),
    _calls("optics.detection_weights"), _busy("optics.detection_weights"),
    _calls("optics.apply_channel"), _busy("optics.apply_channel"),
    _busy("mcsim.write_records"),
    ("mcsim.write_records.rows", "rows", lambda ps: ps.count("mcsim.write_records", "rows")),
    ("mcsim.write_records.bytes", "bytes", lambda ps: ps.count("mcsim.write_records", "bytes")),
    _busy("mcsim.read_records"),
    ("mcsim.read_records.rows", "rows", lambda ps: ps.count("mcsim.read_records", "rows")),
    _calls(_EG),
    (f"{_EG}.points", "count", lambda ps: ps.count(_EG, "points")),
    _busy(_EG),
    (f"{_EG}.points_per_busy_s", "points/s",
     lambda ps: _rate(ps.count(_EG, "points"), ps.busy(_EG))),
    ("optimizer.feasible_frac", "ratio",
     lambda ps: _rate(ps.count(_EG, "feasible"), ps.count(_EG, "points"))),
    _self("optimizer.optimize"), _self("optimizer.scan"),
    _calls("rates.expected_statistics"), _busy("rates.expected_statistics"),
    _calls("rates.expected_sifted_cells"), _busy("rates.expected_sifted_cells"),
    _calls("finitekey.key_length"), _busy("finitekey.key_length"),
    _busy("core.load_config"),
    _self("cli.main"),
]
TRACE_OVERHEAD = ("trace.overhead_frac", "ratio")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- provenance -----------------------------------------------------------------


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qkdlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_info() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    if shutil.which("lscpu"):
        try:
            out = subprocess.run(
                ["lscpu"], capture_output=True, text=True, timeout=10,
                env={**os.environ, "LC_ALL": "C"},
            ).stdout
        except (OSError, subprocess.SubprocessError):
            out = ""
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache"):
                info[key.strip()] = value.strip()
    return info


def provenance(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": _nproc(),
        "QKD_THREADS": os.environ["QKD_THREADS"],
        "cpu": _cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# --- running one workload ---------------------------------------------------------


def _setup_probe(name: str, seed: int) -> dict:
    """Import, config load and a warm-up pass, timed in this process, then
    calibrated by reference samples taken right after."""
    t0 = time.perf_counter()
    import workloads

    checks = workloads.Checks()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workloads.WORKLOADS[name](ROOT, seed, workdir, checks, True, _nproc()).run_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = time.perf_counter() - t0
    from calibrate import Calibrator

    clock = Calibrator()
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    return {"setup_s": raw * clock.speed(), "setup_raw_s": raw, **checks.as_dict()}


def _setup_in_child(name: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(wl, tracer, clock, targets, budget, first, checks):
    """Run passes for about ``budget`` seconds: another pass starts while
    the time used plus half the last pass is under the budget, so the run
    ends within half a pass of it.  At least one pass runs.  A reference
    sample precedes every pass and follows the last.  Returns, for each
    pass that did not raise, its raw start and end and the slice of
    ``tracer.spans`` it recorded, and the next pass index."""
    done, i = [], first
    start = time.perf_counter()
    with tracer.installed(targets):
        while True:
            tracer.run = i
            clock.sample()
            n0 = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                wl.run_pass()
            except Exception as exc:  # a raised operation is a failed attempt
                traceback.print_exc(file=sys.stderr)
                checks.raised(f"{wl.name} pass {i}", exc)
            else:
                done.append((t0, time.perf_counter(), slice(n0, len(tracer.spans))))
            i += 1
            now = time.perf_counter()
            if now - start + 0.5 * (now - t0) >= budget:
                clock.sample()
                return done, i


def _calibrated(done, tracer, cal):
    """Calibrated wall time and spans of each pass; ``tracer.spans`` must
    already be remapped through ``cal``."""
    from spans import PassSpans

    walls = [cal(t1) - cal(t0) for t0, t1, _ in done]
    return walls, [PassSpans(tracer.spans[sl]) for _, _, sl in done]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    import workloads
    from calibrate import Calibrator
    from spans import Tracer

    checks = workloads.Checks()
    setup, setup_raw = [], []
    if not trace:
        for _ in range(probes):
            sample = _setup_in_child(name, seed)
            setup.append(sample["setup_s"])
            setup_raw.append(sample["setup_raw_s"])
            checks.merge(sample)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        nproc = _nproc()
        workloads.WORKLOADS[name](ROOT, seed, workdir, checks, True, nproc).run_pass()  # warm-up
        wl = workloads.WORKLOADS[name](ROOT, seed, workdir, checks, tiny, nproc)
        clock = Calibrator()
        tracer = Tracer()
        tracer.on_end = clock.maybe_sample
        probe = workloads.targets_named(wl.probe)
        if not trace:
            done, _ = _passes(wl, tracer, clock, probe, seconds, 0, checks)
            if not done:
                raise RuntimeError(f"every pass of {name} raised")
            cal = clock.mapping()
            tracer.remap(cal)
            walls, passes = _calibrated(done, tracer, cal)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_s_p50": statistics.median(wl.op_latencies(passes)),
            }
            metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
            report = wl.report(passes) + [
                ("setup_raw_s", statistics.median(setup_raw), "s"),
                ("wall_raw_s", statistics.median(t1 - t0 for t0, t1, _ in done), "s"),
                ("host_speed", clock.speed(), "ratio"),
            ]
            diagnostics = wl.diagnostics()
        else:
            plain, nxt = _passes(wl, tracer, clock, probe, seconds / 2, 0, checks)
            traced, _ = _passes(
                wl, tracer, clock, workloads.layer_targets(), seconds / 2, nxt, checks
            )
            if not plain or not traced:
                raise RuntimeError(f"every pass of {name} raised")
            cal = clock.mapping()
            tracer.remap(cal)
            plain_walls, _ = _calibrated(plain, tracer, cal)
            traced_walls, passes = _calibrated(traced, tracer, cal)
            metrics = {
                m: (statistics.median(fn(ps) for ps in passes), unit)
                for m, unit, fn in PER_LAYER
            }
            overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
            metrics[TRACE_OVERHEAD[0]] = (overhead, TRACE_OVERHEAD[1])
            report, diagnostics = [], []
            tracer.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.append(("failed_frac", _rate(checks.failed, checks.attempted), "ratio"))
    return {"checks": checks, "metrics": metrics, "report": report, "diagnostics": diagnostics}


def _print_block(name: str, res: dict) -> None:
    for kind, rows in (("metric", [(k, v, u) for k, (v, u) in res["metrics"].items()]),
                       ("report", res["report"]), ("diagnostic", res["diagnostics"])):
        for metric, value, unit in rows:
            print(f"{name:<18} {kind:<10} {metric:<40} {value:.6g} {unit}")
    c = res["checks"]
    print(f"{name:<18} checks     {c.attempted - c.failed}/{c.attempted} passed")
    for f in c.failures:
        print(f"{name:<18} FAILED     {f}")


def _result_line(checks_list, metrics: dict) -> str:
    attempted = sum(c.attempted for c in checks_list)
    failed = sum(c.failed for c in checks_list)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# --- self-test ----------------------------------------------------------------------


def self_test() -> int:
    """Every workload at tiny size, untraced and traced: every named metric
    is emitted with its unit, the names match BENCHMARK.json, and every
    check passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expected = {
        False: dict(END_TO_END),
        True: {**{m: u for m, u, _ in PER_LAYER}, TRACE_OVERHEAD[0]: TRACE_OVERHEAD[1]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the harness")
    for trace in (False, True):
        if declared[trace] != expected[trace]:
            problems.append(f"BENCHMARK.json metrics (trace={int(trace)}) differ from the harness")
        for name in WORKLOAD_NAMES:
            res = run_workload(name, 1, 0.0, trace, tiny=True, probes=1)
            _print_block(name, res)
            got = {k: u for k, (_, u) in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={int(trace)}: emitted {sorted(got)}")
            if res["checks"].failed:
                problems.append(f"{name} trace={int(trace)}: {res['checks'].failed} checks failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# --- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qkdlab", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "configs")
    ):
        print(f"error: {ROOT} holds no qkdlab sources (src/qkdlab, configs)", file=sys.stderr)
        return 2
    # the harness owns the thread setting: an inherited value never leaks in
    os.environ["QKD_THREADS"] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed)))
        return 0
    if args.self_test:
        return self_test()

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_block(name, results[name])
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(_result_line([r["checks"] for r in results.values()], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
