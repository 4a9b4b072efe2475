"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL
line with the measured numbers.
"""

import json
import math
import os
import resource
import time

import numpy as np
import pytest

from qkdlab import cli, finitekey, mcsim, optimizer, rates
from qkdlab.core import Basis, Intensity, LinkModel, ProtocolParams

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIG_75 = os.path.join(CONFIG_DIR, "reference_75km.conf")
CONFIG_B2B = os.path.join(CONFIG_DIR, "back_to_back.conf")
CONFIG_PROJ = os.path.join(CONFIG_DIR, "projection.conf")

LINK_B2B = LinkModel(channel_loss_db=0.0)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_75km_reproduction(capsys):
    start = time.monotonic()
    rc = cli.main(["--config", CONFIG_75, "keyrate", "--json"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    skr = json.loads(out)["report"]["skr_bps"]
    ok = rc == cli.EXIT_OK and 7320 * 0.75 <= skr <= 7320 * 1.25 and elapsed < 1.0
    with capsys.disabled():
        _verdict(1, ok, f"skr={skr:.1f} bps (target 7320 +/- 25%), runtime={elapsed:.2f}s")


def test_criterion_2_distance_trend(capsys):
    p = ProtocolParams()
    rows = optimizer.scan(LinkModel(), [4.8, 9.6, 14.6], p=p)
    skrs = [r.skr_bps for r in rows]
    ok = all(s > 0 for s in skrs) and skrs[0] > skrs[1] > skrs[2]
    with capsys.disabled():
        _verdict(2, ok, "skr at {4.8, 9.6, 14.6} dB = "
                 + ", ".join(f"{s:.0f}" for s in skrs) + " bps (strictly decreasing)")


def test_criterion_3_projection(capsys):
    from qkdlab.core import load_config

    p, link, _ = load_config(CONFIG_PROJ)
    stats = rates.expected_statistics(p, link)
    skr = finitekey.key_length(stats.counts, p).skr_bps
    rate_ok = 11.2e6 * 0.75 <= skr <= 11.2e6 * 1.25

    grid = optimizer.GridSpec(p_z_values=optimizer._steps(0.5, 0.95, 0.05))
    edge = None
    for loss in range(36, 44):
        try:
            optimizer.optimize(link.with_channel_loss(float(loss)), p0=p, grid=grid)
            edge = loss
        except optimizer.EmptyFeasibleSet:
            break
    edge_ok = edge is not None and 38 <= edge <= 42
    ok = rate_ok and edge_ok
    with capsys.disabled():
        _verdict(3, ok, f"50 km skr={skr / 1e6:.2f} Mbps (target 11.2 +/- 25%), "
                 f"positive-key edge={edge} dB (target 40 +/- 2)")


def test_criterion_4_stability(capsys):
    p = ProtocolParams()
    sched = mcsim.Schedule()  # 48 h, 576 windows
    drift = mcsim.DriftModel(sigma=0.0)

    # budget measured in CPU time, that of this process and of the worker
    # processes it reaped (QKD_THREADS > 1): on one worker this equals wall
    # time on an idle machine but is immune to other tenants of the host
    def cpu_time():
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + children.ru_utime + children.ru_stime

    start_cpu, start_wall = cpu_time(), time.monotonic()
    fast = mcsim.run_stability(p, LINK_B2B, drift, sched, seed=21,
                               pulses_per_window=10**5)
    cpu = cpu_time() - start_cpu
    wall = time.monotonic() - start_wall
    runtime_ok = cpu < 60.0

    # the QBER means and the gain-ratio stability need larger windows for
    # the binomial noise floor to sit below the stated tolerances
    big = mcsim.run_stability(p, LINK_B2B, drift, sched, seed=22,
                              pulses_per_window=10**6)
    mean_ez = float(np.mean([w.e_z for w in big]))
    mean_ex = float(np.mean([w.e_x for w in big]))
    ez_ok = abs(mean_ez - 0.0061) <= 0.0005
    ex_ok = abs(mean_ex - 0.0087) <= 0.0008
    ratios = [w.q_nu / w.q_mu for w in big]
    ratio_sd = float(np.std(ratios))
    sd_ok = ratio_sd <= 0.005

    ok = runtime_ok and ez_ok and ex_ok and sd_ok
    with capsys.disabled():
        _verdict(4, ok, f"mean e_Z={100 * mean_ez:.3f}% (0.61 +/- 0.05), "
                 f"mean e_X={100 * mean_ex:.3f}% (0.87 +/- 0.08), "
                 f"gain-ratio sd={ratio_sd:.4f} (<= 0.005), "
                 f"576x1e5 runtime={cpu:.1f}s cpu / {wall:.1f}s wall (< 60 cpu)")


def test_criterion_5_oracle_equivalence(capsys):
    p = ProtocolParams(n_pulses=10**7)
    link = LinkModel(channel_loss_db=14.6)
    exact = rates.expected_sifted_cells(p, link)
    worst = 0.0
    failures = 0
    for seed in range(20):
        res = mcsim.run_session(p, link, seed=seed)
        for b in Basis:
            for k in Intensity:
                for attr, table in (("n", exact.sift), ("m", exact.err)):
                    prob = table[(b, k)]
                    mean = p.n_pulses * prob
                    sigma = max(1.0, math.sqrt(p.n_pulses * prob * (1 - prob)))
                    z = abs(getattr(res.counts, attr)(b, k) - mean) / sigma
                    worst = max(worst, z)
                    if z > 5.0:
                        failures += 1
    ok = failures == 0
    with capsys.disabled():
        _verdict(5, ok, f"20 seeds x 8 cells at N=1e7: {failures} cells beyond "
                 f"5 sigma (worst |z|={worst:.2f})")


def test_criterion_6_bound_soundness(capsys):
    p = ProtocolParams(n_pulses=10**7)
    sound = 0
    runs = 100
    for seed in range(runs):
        res = mcsim.run_session(p, LINK_B2B, seed=seed)
        gt = res.ground_truth
        report = finitekey.key_length(res.counts, p)
        vac_ok = report.s_z0_low <= gt.vacuum_detections
        s1_ok = report.s_z1_low <= gt.single_photon_detections
        if gt.single_photon_detections_x > 0:
            phase_ok = report.phi_z_up >= (
                gt.single_photon_errors_x / gt.single_photon_detections_x
            )
        else:
            phase_ok = report.phi_z_up == 0.5
        sound += vac_ok and s1_ok and phase_ok
    ok = sound == runs
    with capsys.disabled():
        _verdict(6, ok, f"vacuum/single-photon/phase bounds sound in {sound}/{runs} "
                 "tagged runs at N=1e7")


def test_criterion_7_state_preparation(capsys):
    from qkdlab.optics import prepare_state

    tol = 1e-12
    worst = 0.0
    for b in Basis:
        worst = max(worst, prepare_state(b, 0).overlap(prepare_state(b, 1)))
    for i in (0, 1):
        for j in (0, 1):
            ov = prepare_state(Basis.Z, i).overlap(prepare_state(Basis.X, j))
            worst = max(worst, abs(ov - 0.5))
    ok = worst < tol
    with capsys.disabled():
        _verdict(7, ok, f"orthogonality + mutual unbiasedness worst deviation "
                 f"{worst:.2e} (< 1e-12)")


def test_criterion_8_thread_determinism(capsys, monkeypatch, tmp_path):
    outputs = []
    record_bytes = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("QKD_THREADS", threads)
        rec_path = str(tmp_path / f"rec_{threads}.csv")
        rc = cli.main([
            "--config", CONFIG_B2B, "simulate",
            "--seed", "13", "--pulses", "4000000", "--records", rec_path,
        ])
        assert rc == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
        record_bytes.append((tmp_path / f"rec_{threads}.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and \
        record_bytes[0] == record_bytes[1] == record_bytes[2]
    with capsys.disabled():
        _verdict(8, ok, "JSON output and record files byte-identical across "
                 "QKD_THREADS in {1, 2, 4}")
