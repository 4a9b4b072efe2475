"""The four benchmark workloads and the layer targets they are traced at.

Each workload runs closed-loop in one process: a pass starts only after
the previous one has finished.  A pass loads its configuration, runs the
workload's operations, and checks their outputs; every check and every
operation that raises counts into ``Checks``.  Inputs are a pure function
of the workload seed, the same in every pass of a run, so per-pass counts
such as the click fractions repeat exactly for a given seed.

``tiny=True`` runs the same calls on small inputs.  It serves as the
untimed warm-up pass and as the self-test size.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace

import numpy as np

from qkdlab import cli, core, finitekey, mcsim, optics, optimizer, rates
from qkdlab.core import Basis, Intensity

# Drift step scale (rad per sqrt(s)).  Even over the full 48 h schedule the
# angle wanders by only about 0.08 rad, far from the pi/4 that would push a
# QBER past one half, yet every window moves it, so the routing tables are
# rebuilt every window.
DRIFT_SIGMA = 2e-4

# Free-p_z grid of ``scan --free-p-z``.
FREE_P_Z = optimizer._steps(0.5, 0.95, 0.05)


class Checks:
    """Correctness checks and raised operations, counted against attempts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"{name}: {detail}")

    def raised(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{name} raised {type(exc).__name__}: {exc}")

    def merge(self, other: dict) -> None:
        """Add the tallies another process reported (``as_dict``)."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures.extend(other["failures"][: _MAX_KEPT - len(self.failures)])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < _MAX_KEPT:
            self.failures.append(message)


_MAX_KEPT = 20  # failure messages kept for the report


# --- layer targets ------------------------------------------------------------


def _session_counts(args, kwargs, res):
    threads = kwargs.get("n_threads")
    return {
        "pulses": res.n_pulses,
        "detection_gates": res.detection_gates,
        "multi_click_gates": res.multi_click_gates,
        "threads": threads if threads is not None else int(os.environ["QKD_THREADS"]),
    }


def _grid_counts(args, kwargs, l_bits):
    return {"points": int(l_bits.size), "feasible": int(np.count_nonzero(l_bits > 0.0))}


def _write_counts(args, kwargs, _):
    return {"rows": len(args[0]), "bytes": os.path.getsize(args[1])}


def _read_counts(args, kwargs, result):
    return {"rows": len(result[0])}


def layer_targets():
    """(module, attribute, span name, counts) for every traced function,
    patched at each binding a caller looks it up by."""
    return [
        (cli, "main", "cli.main", None),
        (core, "load_config", "core.load_config", None),
        (cli, "load_config", "core.load_config", None),
        (optimizer, "scan", "optimizer.scan", None),
        (optimizer, "optimize", "optimizer.optimize", None),
        (optimizer, "evaluate_grid", "optimizer.evaluate_grid", _grid_counts),
        (rates, "expected_statistics", "rates.expected_statistics", None),
        (rates, "expected_sifted_cells", "rates.expected_sifted_cells", None),
        (finitekey, "key_length", "finitekey.key_length", None),
        (mcsim, "run_session", "mcsim.run_session", _session_counts),
        (mcsim, "run_stability", "mcsim.run_stability", None),
        (mcsim, "write_records", "mcsim.write_records", _write_counts),
        (mcsim, "read_records", "mcsim.read_records", _read_counts),
        (optics, "detection_weights", "optics.detection_weights", None),
        (optics, "apply_channel", "optics.apply_channel", None),
    ]


def targets_named(names):
    return [t for t in layer_targets() if t[2] in names]


# --- report helpers -------------------------------------------------------------


def percentiles(prefix: str, values, unit: str = "s"):
    """p50, plus the highest of p95/p75 that has at least ten samples
    beyond it."""
    if not values:
        return []
    out = [(f"{prefix}_p50", float(np.percentile(values, 50)), unit)]
    for q in (95, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out.append((f"{prefix}_p{q}", float(np.percentile(values, q)), unit))
            break
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def _run_session_totals(passes, threads=None):
    pulses = busy = 0.0
    for ps in passes:
        for s in ps.by_name["mcsim.run_session"]:
            if threads is None or s.counts["threads"] == threads:
                pulses += s.counts["pulses"]
                busy += s.duration
    return pulses, busy


def _session_durations(passes, threads=None):
    return [
        s.duration
        for ps in passes
        for s in ps.by_name["mcsim.run_session"]
        if threads is None or s.counts["threads"] == threads
    ]


# --- workloads --------------------------------------------------------------------


class Workload:
    name = ""
    probe: tuple = ()  # span names timed in the untraced run

    def __init__(self, root: str, seed: int, workdir: str, checks: Checks, tiny: bool, nproc: int):
        self.configs = os.path.join(root, "configs")
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.tiny = tiny
        self.nproc = nproc

    def config(self, name: str) -> str:
        return os.path.join(self.configs, name)

    def run_pass(self) -> None:
        raise NotImplementedError

    def op_latencies(self, passes) -> list[float]:
        raise NotImplementedError

    def report(self, passes) -> list[tuple]:
        return []

    def diagnostics(self) -> list[tuple]:
        return []


class AuditSessions(Workload):
    """run_session on the back-to-back link and at 14.6 dB, each at one
    thread and at nproc threads; the op is a one-thread session."""

    name = "audit_sessions"
    probe = ("mcsim.run_session",)

    def run_pass(self) -> None:
        n = 2**16 if self.tiny else 2**22
        links = []
        for conf in ("back_to_back.conf", "reference_75km.conf"):
            p, link, _ = core.load_config(self.config(conf))
            links.append((replace(p, n_pulses=n), link))
        for slot, (p, link) in enumerate(links):
            seed = (self.seed << 1) | slot
            exact = rates.expected_sifted_cells(p, link)
            one = mcsim.run_session(p, link, seed, n_threads=1)
            many = mcsim.run_session(p, link, seed, n_threads=self.nproc)
            self._check_cells(one, exact, n, link.channel_loss_db)
            self._check_bounds(one, p)
            self.checks.check(
                "threads_identical", one == many,
                f"{self.nproc}-thread result differs at {link.channel_loss_db} dB, seed {seed}",
            )

    def _check_cells(self, res, exact, n, loss_db):
        for b in Basis:
            for k in Intensity:
                for attr, table in (("n", exact.sift), ("m", exact.err)):
                    prob = table[b, k]
                    sigma = max(1.0, math.sqrt(n * prob * (1.0 - prob)))
                    z = abs(getattr(res.counts, attr)(b, k) - n * prob) / sigma
                    self.checks.check(
                        "cell_within_5sigma", z <= 5.0,
                        f"{attr}({b.value},{k.value}) at {loss_db} dB: |z|={z:.2f}",
                    )

    def _check_bounds(self, res, p):
        gt = res.ground_truth
        report = finitekey.key_length(res.counts, p)
        self.checks.check(
            "vacuum_bound_sound", report.s_z0_low <= gt.vacuum_detections,
            f"s_z0_low={report.s_z0_low} > {gt.vacuum_detections}",
        )
        self.checks.check(
            "single_photon_bound_sound", report.s_z1_low <= gt.single_photon_detections,
            f"s_z1_low={report.s_z1_low} > {gt.single_photon_detections}",
        )
        if gt.single_photon_detections_x > 0:
            true_phase = gt.single_photon_errors_x / gt.single_photon_detections_x
            ok = report.phi_z_up >= true_phase
        else:
            true_phase, ok = None, report.phi_z_up == 0.5
        self.checks.check("phase_bound_sound", ok, f"phi_z_up={report.phi_z_up} vs {true_phase}")

    def op_latencies(self, passes):
        return _session_durations(passes, threads=1)

    def report(self, passes):
        pps = _rate(*_run_session_totals(passes, threads=1))
        pps_n = _rate(*_run_session_totals(passes, threads=self.nproc))
        return [
            ("pulses_per_s", pps, "pulses/s"),
            ("pulses_per_s_nproc", pps_n, "pulses/s"),
            ("thread_scaling_eff", _rate(pps_n, self.nproc * pps), "ratio"),
            *percentiles("session_s", self.op_latencies(passes)),
        ]


class StabilityDrift(Workload):
    """12 h of the criterion-4 schedule (144 windows x 1e5 pulses) with a
    nonzero drift; the op is one window's run_session."""

    name = "stability_drift"
    probe = ("mcsim.run_session",)

    def run_pass(self) -> None:
        p, link, sim = core.load_config(self.config("back_to_back.conf"))
        # 12 h of the 48 h schedule (144 windows); tiny: four windows
        schedule = mcsim.Schedule(duration_h=1 / 3 if self.tiny else 12.0)
        ppw = 10**4 if self.tiny else 10**5
        drift = mcsim.DriftModel(sigma=DRIFT_SIGMA, theta0=sim.theta0)
        windows = mcsim.run_stability(
            p, link, drift, schedule, self.seed, pulses_per_window=ppw
        )
        self.checks.check(
            "window_count", len(windows) == schedule.n_windows,
            f"{len(windows)} windows, schedule has {schedule.n_windows}",
        )
        # gains do not depend on the rotation angle, so the pooled gain of
        # the drifting run must match the closed form
        for tag, k, share in (("q_mu", p.mu, p.p_mu), ("q_nu", p.nu, p.p_nu)):
            q = rates.gain(link, k)
            pooled = float(np.mean([getattr(w, tag) for w in windows]))
            sigma = math.sqrt(q * (1.0 - q) / (ppw * share * len(windows)))
            z = abs(pooled - q) / sigma
            self.checks.check("pooled_gain_within_5sigma", z <= 5.0, f"{tag}: |z|={z:.2f}")
        bad = [w for w in windows if not (0.0 <= w.e_z <= 0.5 and 0.0 <= w.e_x <= 0.5)]
        self.checks.check(
            "qber_in_range", not bad,
            f"{len(bad)} windows with e_z/e_x outside [0, 0.5]",
        )

    def op_latencies(self, passes):
        return _session_durations(passes)

    def report(self, passes):
        return [
            ("pulses_per_s", _rate(*_run_session_totals(passes)), "pulses/s"),
            *percentiles("session_s", self.op_latencies(passes)),
        ]


def _read_scan_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


class ProjectionScan(Workload):
    """``scan --losses 1:45:1 --optimize --free-p-z`` on the projection
    config through ``cli.main``; the op is one per-loss optimize.  The scan
    has no random input, so the seed changes nothing here."""

    name = "projection_scan"
    probe = ("optimizer.optimize",)

    def _scan(self, losses: str) -> list[dict]:
        out = os.path.join(self.workdir, "scan.csv")
        rc = cli.main([
            "--config", self.config("projection.conf"),
            "scan", "--losses", losses, "--optimize", "--free-p-z", "--out", out,
        ])
        self.checks.check("scan_exit_code", rc == cli.EXIT_OK, f"exit code {rc}")
        return _read_scan_csv(out)

    def run_pass(self) -> None:
        # tiny: the three losses around today's positive-key edge
        first, last = (37, 39) if self.tiny else (1, 45)
        rows = self._scan(f"{first}:{last}:1")
        expected = last - first + 1
        self.checks.check("row_count", len(rows) == expected, f"{len(rows)} rows, expected {expected}")
        l_bits = [r["l_bits"] for r in rows]
        self.checks.check(
            "l_bits_non_increasing", all(a >= b for a, b in zip(l_bits, l_bits[1:])),
            f"l_bits={l_bits}",
        )
        positive = [r["loss_db"] for r in rows if r["l_bits"] > 0.0]
        edge = max(positive) if positive else None
        self.checks.check(
            "positive_key_edge", edge is not None and 38.0 <= edge <= 42.0,
            f"edge={edge} dB, expected 38-42 dB",
        )

    def op_latencies(self, passes):
        return [d for ps in passes for d in ps.durations("optimizer.optimize")]

    def report(self, passes):
        return percentiles("loss_s", self.op_latencies(passes))

    def diagnostics(self):
        """skr of optimize(p0=config) over the scan row's skr at 9.6 dB.
        ``scan --optimize`` drops the config's f_rep; this ratio shows it
        and does not gate."""
        p, link, _ = core.load_config(self.config("projection.conf"))
        best = optimizer.optimize(
            link.with_channel_loss(9.6), p0=p, grid=optimizer.GridSpec(p_z_values=FREE_P_Z)
        )
        row = self._scan("9.6")[0]
        return [("projection_scan.skr_gap_ratio", _rate(best.skr_bps, row["skr_bps"]), "ratio")]


class RecordsRoundtrip(Workload):
    """run_session(keep_records=True) on the back-to-back link, then
    write_records and read_records with params.  The op is the recording
    session: the write side of mcsim.  The file layer is a pure-Python loop
    per row whose speed on a shared host swings too far between runs to
    gate on alone; it counts in wall_s and its rows/s are reported."""

    name = "records_roundtrip"
    probe = ("mcsim.run_session", "mcsim.write_records", "mcsim.read_records")

    def run_pass(self) -> None:
        p, link, sim = core.load_config(self.config("back_to_back.conf"))
        res = mcsim.run_session(
            p, link, self.seed, n_pulses=2**16 if self.tiny else 2**23,
            keep_records=True, record_cap=sim.record_cap,
        )
        path = os.path.join(self.workdir, "records.csv")
        mcsim.write_records(res.records, path)
        records, counts = mcsim.read_records(path, p, link, self.seed)
        self.checks.check(
            "recomputed_counts_equal", counts == res.counts,
            f"file counts {counts} != session counts {res.counts}",
        )
        self.checks.check(
            "rows_equal_detector_clicks", len(records) == res.detector_clicks,
            f"{len(records)} rows, {res.detector_clicks} detector clicks",
        )
        self.checks.check("records_identical", records == res.records, "read-back rows differ")

    def op_latencies(self, passes):
        return _session_durations(passes)

    def report(self, passes):
        def rows_per_s(name):
            rows = sum(ps.count(name, "rows") for ps in passes)
            return _rate(rows, sum(ps.busy(name) for ps in passes))

        return [
            ("records_write_rows_per_s", rows_per_s("mcsim.write_records"), "rows/s"),
            ("records_read_rows_per_s", rows_per_s("mcsim.read_records"), "rows/s"),
            ("pulses_per_s", _rate(*_run_session_totals(passes)), "pulses/s"),
        ]


WORKLOADS = {w.name: w for w in (AuditSessions, StabilityDrift, ProjectionScan, RecordsRoundtrip)}
