import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import re
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import mcsim, rates
from qkdlab.core import (
    Basis, DetectorModel, Intensity, LinkModel, ObservedCounts, ProtocolParams, load_config,
)
from qkdlab.mcsim import (
    BudgetExceeded,
    DetectionRecord,
    DriftModel,
    FormatError,
    GroundTruth,
    RecordSet,
    Schedule,
    pulse_records,
    read_records,
    run_session,
    run_stability,
    write_records,
)

P_SMALL = ProtocolParams(n_pulses=10**5)
LINK_B2B = LinkModel(channel_loss_db=0.0)
LINK_75 = LinkModel(channel_loss_db=14.6)

# SHA-256 of the detection-record file for (back-to-back link, default
# params, seed=11, 2e5 pulses); frozen at first build to pin the byte
# format across platforms and refactors.
GOLDEN_RECORDS_SHA256 = "570581434c4b418074394f5e68226cb623163fc5de60486d903f25e6e854ef7d"

# Counts and photon-number ground truth of (14.6 dB link, default params,
# seed=11, 2^20 pulses), frozen from the plain-searchsorted sampler with
# 2^21-gate chunks; pins the lossy-link streams as the hash above pins the
# back-to-back ones.
GOLDEN_75KM_COUNTS = ObservedCounts(sift=[[792, 108], [15, 0]], err=[[6, 2], [0, 0]])
GOLDEN_75KM_GROUND_TRUTH = GroundTruth(vacuum_detections=10, single_photon_detections=574,
                                       single_photon_detections_x=8, single_photon_errors_x=0)

# SHA-256 of every stream over the three shipped configs (see
# test_stream_digest_pinned), frozen from the comparison-cascade sampler:
# preparation, photon number, survival, routing, dark pattern and click
# choice, and the record-file recount and drifting stability windows built
# on them.  A sampler or chunking change must leave it as it is.
STREAM_DIGEST_SHA256 = "8389e93589b074e68148e75cb40b722bcb1e15e7a6656ce07b8bf1a7e273b253"
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture(scope="module")
def b2b_session_1e7():
    return run_session(ProtocolParams(n_pulses=10**7), LINK_B2B, seed=3)


class TestDeterminism:
    def test_same_seed_same_counts(self):
        a = run_session(P_SMALL, LINK_B2B, seed=5)
        b = run_session(P_SMALL, LINK_B2B, seed=5)
        assert a.counts == b.counts
        assert a.ground_truth == b.ground_truth

    def test_different_seed_different_counts(self):
        a = run_session(P_SMALL, LINK_B2B, seed=5)
        b = run_session(P_SMALL, LINK_B2B, seed=6)
        assert a.counts != b.counts

    def test_chunk_size_invariance(self):
        a = run_session(P_SMALL, LINK_B2B, seed=5, chunk_size=10**5)
        b = run_session(P_SMALL, LINK_B2B, seed=5, chunk_size=777)
        assert a.counts == b.counts
        assert a.ground_truth == b.ground_truth
        assert a.detection_gates == b.detection_gates

    def test_thread_count_invariance(self):
        results = [
            run_session(P_SMALL, LINK_B2B, seed=5, n_threads=t, chunk_size=2**13)
            for t in (1, 2, 4)
        ]
        assert results[0].counts == results[1].counts == results[2].counts
        assert results[0].records is results[1].records is None

    def test_records_invariant_under_threading(self):
        a = run_session(P_SMALL, LINK_B2B, seed=5, keep_records=True,
                        n_threads=1, chunk_size=2**13)
        b = run_session(P_SMALL, LINK_B2B, seed=5, keep_records=True,
                        n_threads=4, chunk_size=2**13)
        assert a.records == b.records

    def test_default_chunk_invariance(self):
        # three full default chunks and a partial one, away from gate 0
        kw = dict(n_pulses=3 * 2**16 + 777, gate_offset=10**9 + 3, keep_records=True)
        runs = [
            run_session(P_SMALL, LINK_B2B, seed=5, n_threads=1, **kw),
            run_session(P_SMALL, LINK_B2B, seed=5, n_threads=2, **kw),
            run_session(P_SMALL, LINK_B2B, seed=5, chunk_size=777, **kw),
        ]
        first = runs[0]
        assert first.multi_click_gates > 0
        for res in runs[1:]:
            assert res.counts == first.counts
            assert res.ground_truth == first.ground_truth
            assert res.detection_gates == first.detection_gates
            assert res.multi_click_gates == first.multi_click_gates
            assert res.detector_clicks == first.detector_clicks
            assert res.records == first.records

    def test_golden_lossy_link(self):
        res = run_session(ProtocolParams(), LINK_75, seed=11, n_pulses=2**20)
        assert res.counts == GOLDEN_75KM_COUNTS
        assert res.ground_truth == GOLDEN_75KM_GROUND_TRUTH
        assert res.detection_gates == 1116

    def test_stream_digest_pinned(self, tmp_path):
        h = hashlib.sha256()

        def ints(*values):
            h.update(np.array(values, dtype=np.uint64).tobytes())

        def counts(c):
            ints(*(cell(b, k) for cell in (c.n, c.m) for b in Basis for k in Intensity))

        for conf in ("back_to_back.conf", "reference_75km.conf", "projection.conf"):
            p, link, _ = load_config(os.path.join(CONFIG_DIR, conf))
            # chunks of 777 and 2^16 gates on 1 and 2 threads, far from gate 0
            for seed, chunk, threads in itertools.product((3, 4), (777, 2**16), (1, 2)):
                res = run_session(p, link, seed, n_pulses=2**17 + 333, gate_offset=10**12 + 3,
                                  keep_records=True, chunk_size=chunk, n_threads=threads)
                counts(res.counts)
                ints(*dataclasses.astuple(res.ground_truth), res.detection_gates,
                     res.multi_click_gates, res.detector_clicks, *res.sent.values(),
                     *res.clicked.values())
                for col in (res.records.gate_index, res.records.detector_id, res.records.is_dark):
                    h.update(col.tobytes())
            path = str(tmp_path / conf)
            write_records(res.records, path)
            counts(read_records(path, p, link, seed)[1])
            for rec in pulse_records(p, seed, [0, 2**64 - 1]):
                ints(rec.gate_index, rec.alice_basis is Basis.X, rec.alice_bit,
                     rec.intensity is Intensity.DECOY, rec.photon_number)
            windows = run_stability(p, link, DriftModel(sigma=0.05, theta0=0.1),
                                    Schedule(duration_h=0.5), seed, pulses_per_window=2**15)
            for w in windows:
                counts(w.counts)
                h.update(np.array([w.q_mu, w.q_nu, w.e_z, w.e_x]).tobytes())
        assert h.hexdigest() == STREAM_DIGEST_SHA256


def _session_key(res):
    """Everything a session returns, records included, as comparable values."""
    return (res.counts, res.ground_truth, res.n_pulses, res.detection_gates,
            res.multi_click_gates, res.detector_clicks, res.sent, res.clicked,
            *(None if res.records is None else
              (res.records.gate_index.tolist(), res.records.detector_id.tolist(),
               res.records.is_dark.tolist()),))


class TestWorkBuffers:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), slot=st.integers(0, 24),
           offsets=st.sets(st.integers(0, 999), min_size=1, max_size=40),
           start=st.sampled_from([0, 2**63 - 5, 2**64 - 1000]),
           dtype=st.sampled_from([np.int64, np.uint64]))
    def test_folded_start_equals_gate_array(self, seed, slot, offsets, start, dtype):
        index = np.array(sorted(offsets), dtype=dtype)
        gates = np.array([start + int(i) for i in index], dtype=np.uint64)
        # longer than the index and holding stale values, as between chunks
        work = (np.full(1000, 2**64 - 1, dtype=np.uint64), np.arange(1000, dtype=np.uint64))
        got = mcsim._uniforms_u64(seed, slot, index, start, work)
        assert np.shares_memory(got, work[0])
        assert np.array_equal(got, mcsim._uniforms_u64(seed, slot, gates))
        key = mcsim._stream_key(seed, slot)
        assert got.tolist() == [mcsim._mix_scalar((key + g) % 2**64) for g in gates.tolist()]

    @pytest.mark.parametrize("offset", [2**63 - 5, 2**64 - 3 * 2**16 - 5])
    def test_offsets_near_the_top_match_chunk_777(self, offset):
        # three default chunks and 5 gates more; the second offset ends at 2^64 - 1
        kw = dict(n_pulses=3 * 2**16 + 5, gate_offset=offset, keep_records=True)
        want = _session_key(run_session(P_SMALL, LINK_B2B, seed=5, chunk_size=777, **kw))
        for threads in (1, 2):
            res = run_session(P_SMALL, LINK_B2B, seed=5, n_threads=threads, **kw)
            assert _session_key(res) == want
        gates = res.records.gate_index
        assert offset <= int(gates[0]) and int(gates[-1]) <= offset + kw["n_pulses"] - 1

    def test_back_to_back_sessions_equal_fresh_ones(self):
        cases = [(777, 3, LINK_B2B, 0), (mcsim._DEFAULT_CHUNK, 4, LINK_75, 10**12 + 7),
                 (5000, 5, LINK_B2B, 2**63 - 5), (mcsim._DEFAULT_CHUNK, 6, LINK_B2B, 11)]

        def run(case, threads):
            chunk, seed, link, offset = case
            return _session_key(run_session(
                P_SMALL, link, seed=seed, n_pulses=2 * 2**16 + 333, gate_offset=offset,
                keep_records=True, chunk_size=chunk, n_threads=threads))

        # each reference with a forked worker, whose writes to the work
        # arrays stay in its own copy
        fresh = [run(case, 2) for case in cases]
        for order in (cases, cases[::-1]):
            for case in order:
                assert run(case, 1) == fresh[cases.index(case)]

    def test_records_survive_later_sessions(self):
        a = run_session(P_SMALL, LINK_B2B, seed=5, keep_records=True, n_pulses=2**17)
        before = _session_key(a)
        b = run_session(P_SMALL, LINK_B2B, seed=6, keep_records=True, n_pulses=2**17)
        assert _session_key(a) == before
        for col in ("gate_index", "detector_id", "is_dark"):
            assert not np.shares_memory(getattr(a.records, col), getattr(b.records, col))

    def test_workers_never_share_buffers(self):
        # more workers than cores
        kw = dict(seed=9, keep_records=True, chunk_size=4096)
        want = _session_key(run_session(P_SMALL, LINK_B2B, n_threads=1, **kw))
        got = _session_key(run_session(P_SMALL, LINK_B2B, n_threads=8, **kw))
        assert got == want

    def test_shared_tables_equal_fresh_ones(self):
        # one tables object across sessions on 1, 2 and 8 workers whose work
        # arrays grow and are reused, in both orders
        cases = [(threads, chunk) for threads in (1, 2, 8) for chunk in (777, 2**13, 2**16)]

        def run(case, tables=None):
            threads, chunk = case
            return _session_key(run_session(
                P_SMALL, LINK_B2B, seed=cases.index(case), n_pulses=2 * 2**16 + 333,
                keep_records=True, chunk_size=chunk, n_threads=threads, _tables=tables))

        fresh = [run(case) for case in cases]
        for order in (cases, cases[::-1]):
            tables = mcsim._SessionTables(P_SMALL, LINK_B2B)
            for case in order:
                assert run(case, tables) == fresh[cases.index(case)]
                assert tables.iota.size == max(c for _, c in order[: order.index(case) + 1])
            # one buffer pair per tables object, grown with the offsets
            assert [b.size for b in tables.work] == [tables.iota.size] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stability_windows_equal_standalone_sessions(self, threads):
        ppw, seed = 10**5, 12
        drift = DriftModel(sigma=0.05, theta0=0.1)
        sched = Schedule(duration_h=0.5)  # 6 windows
        windows = run_stability(P_SMALL, LINK_75, drift, sched, seed=seed,
                                pulses_per_window=ppw, n_threads=threads)
        theta = drift.theta0
        for w, got in enumerate(windows):
            if w > 0:
                theta += drift.sigma * math.sqrt(sched.interval_s) * mcsim._gauss(seed, w)
            res = run_session(P_SMALL, replace(LINK_75, rotation_angle=theta), seed,
                              n_pulses=ppw, gate_offset=w * ppw, n_threads=threads)
            assert got.counts == res.counts
            assert got.q_mu == res.clicked[Intensity.SIGNAL] / res.sent[Intensity.SIGNAL]
            assert got.q_nu == res.clicked[Intensity.DECOY] / res.sent[Intensity.DECOY]

    def test_second_session_on_shared_tables_allocates_little(self):
        # the offsets and hash buffers (3 x 512 KiB) come from the first session
        tables = mcsim._SessionTables(P_SMALL, LINK_B2B)
        run_session(P_SMALL, LINK_B2B, seed=1, n_threads=1, _tables=tables)
        tracemalloc.start()
        try:
            run_session(P_SMALL, LINK_B2B, seed=2, n_threads=1, _tables=tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_session_memory_flat_in_chunk_count(self):
        # chunk results fold into running totals as they arrive, and the
        # chunk starts are made one at a time: 4x the chunks, the same peak
        kw = dict(seed=1, chunk_size=256, n_threads=1)
        run_session(P_SMALL, LINK_75, n_pulses=1000, **kw)
        peaks = []
        for chunks in (256, 1024):
            tracemalloc.start()
            try:
                run_session(P_SMALL, LINK_75, n_pulses=256 * chunks, **kw)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 << 10

    @pytest.mark.parametrize("offset, n", [(-1, 10), (2**64 - 9, 10), (2**64, 1)])
    def test_gates_beyond_uint64_refused(self, offset, n):
        with pytest.raises(ValueError, match=r"not all in 0 \.\. 2\^64 - 1"):
            run_session(P_SMALL, LINK_B2B, seed=1, n_pulses=n, gate_offset=offset)


class TestThreadCount:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_env_value_raises(self, monkeypatch, value):
        monkeypatch.setenv("QKD_THREADS", value)
        with pytest.raises(ValueError, match=f"QKD_THREADS='{value}'"):
            run_session(P_SMALL, LINK_B2B, seed=1, n_pulses=1000)

    def test_explicit_zero_raises(self):
        with pytest.raises(ValueError, match="n_threads=0"):
            run_session(P_SMALL, LINK_B2B, seed=1, n_pulses=1000, n_threads=0)

    def test_valid_env_value_accepted(self, monkeypatch):
        monkeypatch.setenv("QKD_THREADS", "2")
        a = run_session(P_SMALL, LINK_B2B, seed=1, chunk_size=2**13)
        monkeypatch.delenv("QKD_THREADS")
        b = run_session(P_SMALL, LINK_B2B, seed=1, chunk_size=2**13)
        assert a.counts == b.counts


class TestWorkerProcesses:
    def test_no_child_outlives_a_call(self, monkeypatch):
        forked = []
        real = mcsim._in_workers

        def counting(job, n, n_threads):
            blocks = real(job, n, n_threads)
            forked.append(len(blocks) - 1)
            return blocks

        monkeypatch.setattr(mcsim, "_in_workers", counting)
        run_session(P_SMALL, LINK_B2B, seed=1, chunk_size=2**13, n_threads=2)
        assert multiprocessing.active_children() == []
        run_stability(P_SMALL, LINK_75, DriftModel(sigma=0.05), Schedule(duration_h=0.5), seed=1,
                      pulses_per_window=10**4, n_threads=2)
        assert multiprocessing.active_children() == []
        # the cap is passed in this process's shard
        with pytest.raises(BudgetExceeded):
            run_session(P_SMALL, LINK_B2B, seed=11, n_pulses=64 * 1024, keep_records=True,
                        record_cap=30, chunk_size=1024, n_threads=4)
        assert multiprocessing.active_children() == []
        # the stability windows each run one shard, and fork nothing
        assert [n for n in forked if n] == [1, 1, 3]

    def test_one_shard_forks_nothing(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("forked")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        run_session(P_SMALL, LINK_B2B, seed=1, chunk_size=2**13, n_threads=1)
        run_session(P_SMALL, LINK_B2B, seed=1, n_pulses=2**13, chunk_size=2**13, n_threads=4)
        run_stability(P_SMALL, LINK_B2B, DriftModel(), Schedule(duration_h=0.5), seed=1,
                      pulses_per_window=1000, n_threads=1)

    @pytest.mark.parametrize("chunk", [1, 40, 62])
    def test_budget_message_independent_of_workers(self, chunk):
        # 64 chunks of ~29 records; the cap is passed in chunk 1, 40 or 62:
        # the first, third or last shard of four
        kw = dict(seed=11, n_pulses=64 * 1024, keep_records=True, chunk_size=1024)
        gates = run_session(P_SMALL, LINK_B2B, n_threads=1, **kw).records.gate_index
        kept = np.cumsum(np.bincount(gates // 1024, minlength=64))
        cap = int(kept[chunk]) - 1
        for workers in (1, 2, 4):
            with pytest.raises(BudgetExceeded) as exc:
                run_session(P_SMALL, LINK_B2B, record_cap=cap, n_threads=workers, **kw)
            assert str(exc.value) == f"{kept[chunk]} detection records exceed record cap {cap}"

    def test_fork_required_for_more_than_one_worker(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ValueError, match="^n_threads=2: worker processes need the 'fork'"):
            run_session(P_SMALL, LINK_B2B, seed=1, n_threads=2)
        run_session(P_SMALL, LINK_B2B, seed=1, n_threads=1)
        monkeypatch.setenv("QKD_THREADS", "2")
        with pytest.raises(ValueError, match="^QKD_THREADS='2': worker processes need the 'fork'"):
            run_stability(P_SMALL, LINK_B2B, DriftModel(), Schedule(duration_h=0.5), seed=1,
                          pulses_per_window=1000)

    def test_child_failures_reach_the_caller(self):
        def job(block, child):
            # block 0 runs in this process, block 1 in a child
            if block.start == 0:
                return "parent"
            if child == "raise":
                raise KeyError("in the child")
            os._exit(3)

        for child, error, message in (("raise", KeyError, "in the child"),
                                      ("exit", RuntimeError, "exited with code 3")):
            with pytest.raises(error, match=message):
                mcsim._in_workers(lambda block: job(block, child), 2, 2)
        assert multiprocessing.active_children() == []

        def fail_here(block):
            if block.start == 0:
                1 / 0
            time.sleep(30)

        # a failure in this process stops the children that are still running
        t0 = time.perf_counter()
        with pytest.raises(ZeroDivisionError):
            mcsim._in_workers(fail_here, 3, 3)
        assert time.perf_counter() - t0 < 10
        assert multiprocessing.active_children() == []

    def test_blocks_are_contiguous_and_in_order(self):
        got = mcsim._in_workers(lambda block: (block, os.getpid()), 7, 3)
        assert [block for block, _ in got] == [range(0, 2), range(2, 4), range(4, 7)]
        assert [pid == os.getpid() for _, pid in got] == [True, False, False]
        assert mcsim._in_workers(list, 2, 4) == [[0], [1]]
        assert multiprocessing.active_children() == []


LINK_ETA0 = LinkModel(channel_loss_db=math.inf)
LINK_ETA1 = LinkModel(channel_loss_db=0.0, receiver_loss_db=0.0,
                      detector=DetectorModel(efficiency=1.0))


class TestCaps:
    @pytest.mark.filterwarnings("ignore:mu=")
    def test_photon_cap_tail_refused(self):
        with pytest.raises(ValueError, match="photon number above 40"):
            run_session(ProtocolParams(mu=20.0, nu=0.1), LINK_B2B, seed=1, n_pulses=10)

    @pytest.mark.filterwarnings("ignore:mu=")
    def test_routed_cap_tail_refused(self):
        with pytest.raises(ValueError, match="more than 16 surviving photons"):
            run_session(ProtocolParams(mu=8.0, nu=0.1), LINK_ETA1, seed=1, n_pulses=10)
        # the same source behind a lossy link keeps the survivors far below the cap
        run_session(ProtocolParams(mu=8.0, nu=0.1), LINK_75, seed=1, n_pulses=10)



def _sampler_tables():
    """(name, thresholds) for every table kind the simulator draws from."""
    cases = []
    for p_z in (0.5, 0.95):
        t = mcsim._SessionTables(ProtocolParams(p_z_alice=p_z, p_z_bob=p_z), LINK_75)
        cases += [(f"prep p_z={p_z}", t.prep_thr), (f"route p_z={p_z}", t.route_thr)]
    # at mu = 0.9 the leading bins leave a tail for the binary search
    for mu, nu in ((0.05, 0.01), (0.9, 0.3)):
        t = mcsim._SessionTables(ProtocolParams(mu=mu, nu=nu), LINK_75)
        cases.append((f"poisson mu={mu}", t.pois_thr))
    for name, link in (("eta=0", LINK_ETA0), ("eta=1", LINK_ETA1), ("eta mid", LINK_B2B)):
        binom = mcsim._SessionTables(ProtocolParams(), link).binom_thr
        cases += [(f"binomial {name} n={n}", binom[n]) for n in (0, 1, 2, 7, 40)]
    for dark in (0.0, 0.5):
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
        cases.append((f"dark={dark}", mcsim._SessionTables(ProtocolParams(), link).dark_thr))
    return cases


def _guided_tables():
    """(name, thresholds, guide) for the guided preparation draw, dark
    tables, and corner tables: thresholds next to bucket edges, repeated
    thresholds (zero-mass bins), a single bin, and two rows that differ."""
    cases = []
    for p_z, p_mu in itertools.product((0.5, 0.95), (0.1, 0.95)):
        t = mcsim._SessionTables(ProtocolParams(p_z_alice=p_z, p_mu=p_mu), LINK_75)
        cases.append((f"prep p_z={p_z} p_mu={p_mu}", t.prep_thr, t.prep_guide))
    for dark in (0.0, 0.5):
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
        thr = mcsim._SessionTables(ProtocolParams(), link).dark_thr
        cases.append((f"dark={dark}", thr, mcsim._guide(thr)))
    edge = 1 << 52
    top = 2**64 - 1
    corner = [0, 1] + [k * edge + d for k in (1, 2, 4095) for d in (-2, -1, 0, 1)]
    for name, thr in (
        ("bucket edges", [*corner, top]),
        ("zero-mass bins", [3 * edge] * 3 + [3 * edge + 1] * 2 + [top] * 3),
        ("single bin", [top]),
        ("two rows", [[edge - 1, 9 * edge, 9 * edge + 5, top], [edge, edge + 1, 4095 * edge, top]]),
    ):
        thr = np.array(thr, dtype=np.uint64)
        cases.append((name, thr, mcsim._guide(thr)))
    return cases


def _check_guided(thr, guide, extra):
    """The guided draw of every uniform against every row of ``thr`` equals
    ``np.searchsorted``, and the guide splits exactly the buckets that hold
    a threshold.  Uniforms: every threshold +-1, both edges of every
    bucket, 0, 2^64 - 1 and ``extra``."""
    rows = np.atleast_2d(thr)
    lo = np.arange(1 << 12, dtype=np.uint64) << np.uint64(52)
    hi = lo + np.uint64((1 << 52) - 1)
    points = {0, 2**64 - 1, *extra}
    for t in rows.ravel().tolist():
        points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
    u = np.unique(np.concatenate([np.array(sorted(points), dtype=np.uint64), lo, hi]))
    for r, table in enumerate(rows):
        split = np.searchsorted(table, lo) != np.searchsorted(table, hi)
        assert np.array_equal(guide[r :: len(rows)] == mcsim._SPLIT, split)
    want = np.concatenate([np.searchsorted(table, u) for table in rows])
    if thr.ndim == 1:
        got = mcsim._sample(thr, u, guide=guide)
    else:
        row = np.repeat(np.arange(len(rows), dtype=np.uint8), u.size)
        index = np.empty(row.size, dtype=np.uint64)
        got = mcsim._sample(thr, np.tile(u, len(rows)), row, guide, index)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


class TestSampler:
    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(_sampler_tables()),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_equals_searchsorted(self, case, extra):
        _name, thr = case
        rows = np.atleast_2d(thr)
        # every lattice point next to a threshold pins the tie rule
        points = {0, 2**64 - 1}
        for t in rows.ravel().tolist():
            points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        u = np.array(sorted(points) + extra, dtype=np.uint64)
        if thr.ndim == 1:
            got = mcsim._sample(thr, u)
            want = np.searchsorted(thr, u, side="left")
        else:
            # each uniform against each row's table
            row = np.repeat(np.arange(len(rows), dtype=np.uint8), len(u))
            uu = np.tile(u, len(rows))
            got = mcsim._sample(thr, uu, row=row)
            want = np.concatenate([np.searchsorted(r, u, side="left") for r in rows])
        assert np.array_equal(got, want)


    @settings(max_examples=60, deadline=None)
    @given(link=st.sampled_from([LINK_B2B, LINK_75, LinkModel(
               channel_loss_db=0.0, receiver_loss_db=0.0, detector=DetectorModel(efficiency=0.9))]),
           photons=st.sets(st.integers(0, mcsim._PHOTON_CAP), min_size=1),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_survivor_gather_equals_searchsorted(self, link, photons, extra):
        thr = mcsim._SessionTables(ProtocolParams(), link).binom_thr
        # every lattice point next to a threshold, in every row drawn: ties
        points = {0, 2**64 - 1, *extra}
        for n in range(mcsim._PHOTON_CAP + 1):
            for t in thr[n, : n + 1].tolist():
                points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        u = np.array(sorted(points), dtype=np.uint64)
        rows = np.array(sorted(photons), dtype=np.uint8)
        got = mcsim._sample(thr, np.tile(u, rows.size), np.repeat(rows, u.size))
        want = np.concatenate([np.searchsorted(thr[n, : n + 1], u) for n in rows])
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(_guided_tables()),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_guide_equals_searchsorted(self, case, extra):
        _name, thr, guide = case
        _check_guided(thr, guide, extra)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(0.05, 1.5), nu_frac=st.floats(0.0, 0.99),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_guided_photon_number_equals_searchsorted(self, mu, nu_frac, extra):
        t = mcsim._SessionTables(ProtocolParams(mu=mu, nu=mu * nu_frac), LINK_75)
        _check_guided(t.pois_thr, t.pois_guide, extra)

    def test_guides_outlive_rotation_updates(self):
        t = mcsim._SessionTables(P_SMALL, LINK_75)
        guides = (t.prep_guide, t.pois_guide)
        t.set_rotation(P_SMALL, replace(LINK_75, rotation_angle=0.3))
        assert t.prep_guide is guides[0] and t.pois_guide is guides[1]
        assert np.array_equal(t.prep_guide, mcsim._guide(t.prep_thr))
        assert np.array_equal(t.pois_guide, mcsim._guide(t.pois_thr))

    @settings(max_examples=40, deadline=None)
    @given(angle=st.floats(0.0, math.pi / 2), p_z=st.sampled_from([0.5, 0.9, 0.95]),
           classes=st.lists(st.integers(0, 3), min_size=1, max_size=64),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_gathered_routing_equals_per_class_searchsorted(self, angle, p_z, classes, extra):
        thr = mcsim._SessionTables(ProtocolParams(p_z_bob=p_z),
                                   replace(LINK_75, rotation_angle=angle)).route_thr
        points = {0, 2**64 - 1, *extra}
        for t in thr.ravel().tolist():
            points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        u = np.array(sorted(points), dtype=np.uint64)
        # each uniform in every class, then the uniforms in a drawn class order
        row = np.concatenate([np.repeat(np.arange(4, dtype=np.uint8), u.size),
                              np.resize(np.array(classes, dtype=np.uint8), u.size)])
        uu = np.concatenate([np.tile(u, 4), u])
        want = np.array([np.searchsorted(thr[r], x) for r, x in zip(row, uu)])
        assert np.array_equal(mcsim._sample(thr, uu, row), want)

    @pytest.mark.parametrize("dark", [0.0, 1e-9, 8e-6, 3.3e-4, 1e-3, 0.37])
    def test_dark_pattern_table_equals_loop(self, dark):
        # the pattern pmf the dark-pattern draw used before it shared
        # rates.click_patterns; the thresholds, hence the stream, are equal
        pmf = []
        for mask in range(16):
            prob = 1.0
            for d in range(4):
                prob *= dark if mask >> d & 1 else 1.0 - dark
            pmf.append(prob)
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
        thr = mcsim._SessionTables(ProtocolParams(), link).dark_thr
        assert np.array_equal(thr, mcsim._cdf_u64(pmf))


class TestPhysics:
    def test_no_dark_infinite_loss_yields_nothing(self):
        det = DetectorModel(dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=math.inf, detector=det)
        res = run_session(P_SMALL, link, seed=1)
        assert res.counts == ObservedCounts()
        assert res.detection_gates == 0

    def test_quarter_rotation_scrambles_key_basis(self):
        det = DetectorModel(dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=0.0, rotation_angle=math.pi / 4,
                         e_mis_z=0.0, e_mis_x=0.0, detector=det)
        res = run_session(ProtocolParams(n_pulses=3 * 10**5), link, seed=2)
        c = res.counts
        e_z = c.m_total(Basis.Z) / c.n_total(Basis.Z)
        assert e_z == pytest.approx(0.5, abs=0.02)
        # circular test states ride through the rotation unchanged
        e_x = c.m_total(Basis.X) / c.n_total(Basis.X)
        assert e_x == pytest.approx(0.0, abs=0.01)

    def test_counts_within_5_sigma_of_exact_model(self):
        p = ProtocolParams(n_pulses=10**6)
        res = run_session(p, LINK_B2B, seed=9)
        exact = rates.expected_sifted_cells(p, LINK_B2B)
        for b in Basis:
            for k in Intensity:
                for attr, table in (("n", exact.sift), ("m", exact.err)):
                    prob = table[(b, k)]
                    mean = p.n_pulses * prob
                    sigma = max(1.0, math.sqrt(p.n_pulses * prob * (1 - prob)))
                    obs = getattr(res.counts, attr)(b, k)
                    assert abs(obs - mean) <= 5 * sigma

    def test_double_click_rate_matches_model(self, b2b_session_1e7):
        p = ProtocolParams(n_pulses=10**7)
        exact = rates.expected_sifted_cells(p, LINK_B2B)
        mean = p.n_pulses * exact.multi_click
        sigma = math.sqrt(p.n_pulses * exact.multi_click * (1 - exact.multi_click))
        assert abs(b2b_session_1e7.multi_click_gates - mean) <= 5 * sigma

    def test_conservation(self, b2b_session_1e7):
        res = b2b_session_1e7
        assert res.counts.total_sifted() <= res.detection_gates <= res.n_pulses
        assert res.detection_gates <= res.detector_clicks

    def test_ground_truth_consistency(self, b2b_session_1e7):
        gt = b2b_session_1e7.ground_truth
        c = b2b_session_1e7.counts
        assert gt.single_photon_errors_x <= gt.single_photon_detections_x
        assert gt.vacuum_detections + gt.single_photon_detections <= c.n_total(Basis.Z)

    def test_ground_truth_within_5_sigma_of_exact_model(self, b2b_session_1e7):
        p = ProtocolParams(n_pulses=10**7)
        exact = rates.expected_sifted_cells(p, LINK_B2B)
        gt = b2b_session_1e7.ground_truth
        for obs, prob in (
            (gt.vacuum_detections, exact.vacuum_z),
            (gt.single_photon_detections, exact.single_z),
            (gt.single_photon_detections_x, exact.single_x),
            (gt.single_photon_errors_x, exact.single_x_err),
        ):
            mean = p.n_pulses * prob
            sigma = math.sqrt(p.n_pulses * prob * (1 - prob))
            assert abs(obs - mean) <= 5 * sigma

    def test_no_dark_means_no_vacuum_detections(self):
        det = DetectorModel(dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=0.0, detector=det)
        res = run_session(P_SMALL, link, seed=4)
        assert res.ground_truth.vacuum_detections == 0

    def test_invalid_pulse_count_rejected(self):
        with pytest.raises(ValueError):
            run_session(P_SMALL, LINK_B2B, seed=1, n_pulses=0)


class TestPulseRecords:
    def test_deterministic_and_tagged(self):
        recs = pulse_records(ProtocolParams(), seed=5, gate_indices=[0, 1, 2, 99])
        again = pulse_records(ProtocolParams(), seed=5, gate_indices=[0, 1, 2, 99])
        assert recs == again
        for r in recs:
            assert r.photon_number >= 0
            assert r.alice_bit in (0, 1)

    def test_intensity_mix_matches_p_mu(self):
        recs = pulse_records(ProtocolParams(), seed=5, gate_indices=range(20000))
        frac = sum(r.intensity is Intensity.SIGNAL for r in recs) / len(recs)
        assert frac == pytest.approx(0.66, abs=0.02)

    def test_build_no_session_tables(self, monkeypatch):
        want = pulse_records(ProtocolParams(), seed=5, gate_indices=[0, 7, 2**64 - 1])

        def no_tables(*args):
            raise AssertionError("session tables built for pulse records")

        monkeypatch.setattr(mcsim, "_SessionTables", no_tables)
        assert pulse_records(ProtocolParams(), seed=5, gate_indices=[0, 7, 2**64 - 1]) == want

    @pytest.mark.filterwarnings("ignore:mu=")
    def test_refuse_clipped_photon_numbers(self):
        with pytest.raises(ValueError, match="photon number above 40"):
            pulse_records(ProtocolParams(mu=20.0, nu=0.1), seed=5, gate_indices=[0])


class TestStability:
    def test_window_count_48h(self):
        assert Schedule().n_windows == 576

    def test_zero_sigma_keeps_gain_ratio_flat(self):
        sched = Schedule(duration_h=2.0)  # 24 windows
        windows = run_stability(ProtocolParams(), LINK_B2B, DriftModel(),
                                sched, seed=6, pulses_per_window=2 * 10**5)
        assert len(windows) == 24
        ratios = [w.q_nu / w.q_mu for w in windows]
        assert np.std(ratios) < 0.02
        assert np.mean(ratios) == pytest.approx(0.254, abs=0.01)

    def test_windows_are_disjoint_gate_ranges(self):
        sched = Schedule(duration_h=1.0)
        a = run_stability(ProtocolParams(), LINK_B2B, DriftModel(), sched,
                          seed=6, pulses_per_window=10**4)
        b = run_stability(ProtocolParams(), LINK_B2B, DriftModel(), sched,
                          seed=6, pulses_per_window=10**4)
        assert [w.counts for w in a] == [w.counts for w in b]
        # different windows see different samples
        assert a[0].counts != a[1].counts

    def test_large_drift_scrambles_key_basis_on_average(self):
        det = DetectorModel(dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=0.0, e_mis_z=0.0, e_mis_x=0.0,
                         detector=det)
        sched = Schedule(duration_h=50 / 12)  # 50 windows
        windows = run_stability(ProtocolParams(), link, DriftModel(sigma=0.1),
                                sched, seed=8, pulses_per_window=5 * 10**4)
        mean_e_z = np.mean([w.e_z for w in windows])
        # wrapped random walk: sin^2(theta) time-averages to one half
        assert 0.3 < mean_e_z < 0.7

    @pytest.mark.parametrize("hours", [0.01, 150 / 3600])
    def test_schedule_without_windows_rejected(self, hours):
        # 36 s and 150 s at one window per 300 s round to no window
        with pytest.raises(ValueError, match="holds no window"):
            Schedule(duration_h=hours)
        assert Schedule(duration_h=151 / 3600).n_windows == 1

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            Schedule(window_s=0.0)
        with pytest.raises(ValueError):
            DriftModel(sigma=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (Schedule, "window_s"), (Schedule, "interval_s"), (Schedule, "duration_h"),
        (DriftModel, "sigma"), (DriftModel, "theta0"),
    ])
    def test_non_finite_value_rejected(self, make, field, value):
        with pytest.raises(ValueError, match="finite"):
            make(**{field: value})


class TestRecordFiles:
    def test_round_trip_identity(self, tmp_path):
        res = run_session(P_SMALL, LINK_B2B, seed=11, keep_records=True)
        path = str(tmp_path / "records.csv")
        write_records(res.records, path)
        records, counts = read_records(path, ProtocolParams(n_pulses=10**5),
                                       LINK_B2B, seed=11)
        assert records == res.records
        assert counts == res.counts

    def test_empty_set_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_records(RecordSet(), path)
        assert (tmp_path / "empty.csv").read_text() == "gate_index,detector_id,is_dark\n"
        records, counts = read_records(path)
        assert len(records) == 0
        assert counts is None

    def test_golden_file_hash(self, tmp_path):
        res = run_session(ProtocolParams(n_pulses=2 * 10**5), LINK_B2B,
                          seed=11, keep_records=True)
        path = str(tmp_path / "golden.csv")
        write_records(res.records, path)
        digest = hashlib.sha256((tmp_path / "golden.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_RECORDS_SHA256

    def test_bad_header_reports_line_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(FormatError, match="line 1"):
            read_records(str(path))

    def test_truncated_row_reports_line(self, tmp_path):
        path = tmp_path / "trunc.csv"
        path.write_text("gate_index,detector_id,is_dark\n12,3,0\n17,2\n")
        with pytest.raises(FormatError, match="line 3"):
            read_records(str(path))

    def test_out_of_range_detector_reports_line(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("gate_index,detector_id,is_dark\n12,7,0\n")
        with pytest.raises(FormatError, match="line 2"):
            read_records(str(path))

    def test_record_cap_enforced(self):
        with pytest.raises(BudgetExceeded):
            run_session(ProtocolParams(n_pulses=10**6), LINK_B2B, seed=11,
                        keep_records=True, record_cap=100)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_record_cap_stops_early(self, monkeypatch, threads):
        # 64 chunks of ~29 records each; the cap is passed in the second
        calls = []
        run_chunk = mcsim._run_chunk

        def counting(*args):
            calls.append(args[2])
            return run_chunk(*args)

        monkeypatch.setattr(mcsim, "_run_chunk", counting)
        with pytest.raises(BudgetExceeded, match=r"^\d+ detection records exceed record cap 30$"):
            run_session(P_SMALL, LINK_B2B, seed=11, n_pulses=64 * 1024, keep_records=True,
                        record_cap=30, chunk_size=1024, n_threads=threads)
        assert 2 <= len(calls) <= 2 + 4 * threads

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("gate_index,detector_id,is_dark\n9,1,0\n9,1,0\n3,2,1\n")
        with pytest.raises(FormatError, match="line 3"):
            read_records(str(path))

    def test_out_of_order_rows_rejected(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("gate_index,detector_id,is_dark\n3,2,1\n9,0,0\n\n9,3,0\n9,1,0\n")
        with pytest.raises(FormatError, match="line 6"):
            read_records(str(path))
        path.write_text("gate_index,detector_id,is_dark\n3,2,1\n9,0,0\n4,1,0\n")
        with pytest.raises(FormatError, match="line 4"):
            read_records(str(path))

    def test_same_gate_ascending_detectors_accepted(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text("gate_index,detector_id,is_dark\n3,2,1\n9,0,0\n9,3,0\n10,0,1\n")
        records, _ = read_records(str(path))
        assert records == RecordSet([3, 9, 9, 10], [2, 0, 3, 0], [True, False, False, True])

    def test_counts_of_empty_file_skip_tables(self, tmp_path, monkeypatch):
        path = str(tmp_path / "empty.csv")
        write_records(RecordSet(), path)

        def no_tables(*args):
            raise AssertionError("sampling tables built for an empty record set")

        monkeypatch.setattr(mcsim, "_SessionTables", no_tables)
        _, counts = read_records(path, ProtocolParams(), LINK_B2B, seed=1)
        assert counts == ObservedCounts()

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64, 1 << 16])
    def test_counts_walk_blocks_without_session_tables(self, tmp_path, monkeypatch, block):
        # multi-click gates straddle every small block edge
        p = ProtocolParams(mu=0.9, nu=0.3)
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=0.05))
        res = run_session(p, link, seed=7, n_pulses=4000, keep_records=True)
        assert res.multi_click_gates > 10
        path = str(tmp_path / "blocks.csv")
        write_records(res.records, path)

        def no_tables(*args):
            raise AssertionError("sampling tables built to recount records")

        monkeypatch.setattr(mcsim, "_SessionTables", no_tables)
        monkeypatch.setattr(mcsim.optics, "detection_weights", no_tables)
        monkeypatch.setattr(mcsim, "_BLOCK_ROWS", block)
        assert read_records(path, p, link, seed=7)[1] == res.counts

    def test_largest_gate_reads_back(self, tmp_path):
        path = tmp_path / "max.csv"
        path.write_text("gate_index,detector_id,is_dark\n00,1,0\n18446744073709551615,2,1\n")
        records, _ = read_records(str(path))
        assert records == RecordSet([0, 2**64 - 1], [1, 2], [False, True])
        assert int(records.gate_index[-1]) == 2**64 - 1

    @pytest.mark.parametrize("gate", ["18446744073709551616", "20000000000000000000",
                                      "99999999999999999999"])
    def test_gate_above_uint64_reports_line(self, tmp_path, gate):
        path = tmp_path / "over.csv"
        path.write_text(f"gate_index,detector_id,is_dark\n3,1,0\n\n{gate},1,0\n")
        with pytest.raises(FormatError, match=f"^line 4: gate {gate} exceeds 2\\^64 - 1$"):
            read_records(str(path))

    def test_detector_above_3_not_written(self, tmp_path):
        path = tmp_path / "det.csv"
        with pytest.raises(ValueError, match="detector id 4"):
            write_records(RecordSet([1], [4], [False]), str(path))
        assert not path.exists()

    def test_record_set_indexing(self):
        rs = RecordSet([5, 9], [1, 3], [False, True])
        assert rs[1] == DetectionRecord(9, 3, True)
        assert list(rs)[0].gate_index == 5


def _reference_bytes(records: RecordSet) -> bytes:
    """The record file as one f-string per row, the format's definition."""
    rows = "".join(f"{r.gate_index},{r.detector_id},{int(r.is_dark)}\n" for r in records)
    return ("gate_index,detector_id,is_dark\n" + rows).encode()


_GATES = st.one_of(
    st.sampled_from([0, 9, 10, 99, 100, 10**19 - 1, 10**19, 2**63, 2**64 - 1]),
    st.integers(0, 1000),
    st.integers(0, 2**64 - 1),
)


@st.composite
def _record_sets(draw):
    """RecordSets strictly increasing in (gate, detector)."""
    keys = sorted(draw(st.sets(st.tuples(_GATES, st.integers(0, 3)), max_size=60)))
    dark = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return RecordSet([k[0] for k in keys], [k[1] for k in keys], dark)


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


class TestRecordFileKernels:
    @settings(max_examples=200, deadline=None)
    @given(records=_record_sets(), block=st.sampled_from([1, 2, 3, 7, 1 << 16]),
           piece=st.sampled_from([1, 2, 3, 7, 64, 1 << 18]),
           blank_after=st.sets(st.integers(0, 60), max_size=5), final_lf=st.booleans())
    def test_matches_per_row_format_and_reads_back(self, record_dir, records, block, piece,
                                                   blank_after, final_lf):
        # pieces of a few bytes split the header, rows and blank lines
        path = record_dir / "kernel.csv"
        with mock.patch.object(mcsim, "_BLOCK_ROWS", block), \
                mock.patch.object(mcsim, "_READ_BYTES", piece):
            write_records(records, str(path))
            data = path.read_bytes()
            assert data == _reference_bytes(records)
            assert read_records(str(path))[0] == records
            # blank lines and a missing final LF do not change the rows
            lines = data.split(b"\n")[:-1]
            for i in sorted(blank_after, reverse=True):
                lines.insert(1 + min(i, len(lines) - 1), b"")
            path.write_bytes(b"\n".join(lines) + (b"\n" if final_lf else b""))
            assert read_records(str(path))[0] == records

    def test_blocks_span_digit_widths(self, record_dir):
        # widths 1 to 20 in every block of 7 rows
        gates = sorted({10**k + j for k in range(19) for j in (0, 1)} | {2**64 - 1, 0, 9})
        records = RecordSet(gates, [g % 4 for g in gates], [g % 3 == 0 for g in gates])
        path = record_dir / "widths.csv"
        with mock.patch.object(mcsim, "_BLOCK_ROWS", 7), mock.patch.object(mcsim, "_READ_BYTES", 7):
            write_records(records, str(path))
            assert path.read_bytes() == _reference_bytes(records)
            assert read_records(str(path))[0] == records

    @pytest.mark.parametrize("piece", [1, 2, 7])
    def test_order_checked_across_blocks(self, record_dir, piece):
        path = record_dir / "order.csv"
        for rows, line in ((b"3,2,1\n9,0,0\n\n9,0,1\n", 5), (b"3,2,1\n9,0,0\n4,1,0\n", 4),
                           (b"3,2,1\n9,2,0\n9,1,0\n", 4)):
            path.write_bytes(b"gate_index,detector_id,is_dark\n" + rows)
            with mock.patch.object(mcsim, "_READ_BYTES", piece):
                with pytest.raises(FormatError, match=f"^line {line}: row not after"):
                    read_records(str(path))

    @pytest.mark.parametrize("row", [
        b"7,1,0\r",  # CR
        b"7, 1,0",  # space
        b"+7,1,0",  # sign
        b"1_007,1,0",  # digit separator
        b"7,,0",  # empty field
        b",1,0",  # empty gate
        b"7,1",  # 2 fields
        b"7,1,0,0",  # 4 fields
        b"7,4,0",  # detector 4
        b"7,1,2",  # dark 2
        b"000000000000000000007,1,0",  # 21-digit gate
        b"7\xc3\xa9,1,0",  # non-ASCII
    ])
    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("piece", [1, 3, 1 << 16])
    def test_malformed_row_reports_line(self, record_dir, row, blank, piece):
        path = record_dir / "bad.csv"
        path.write_bytes(b"gate_index,detector_id,is_dark\n3,2,1\n"
                         + (b"\n" if blank else b"") + row + b"\n8,0,0\n")
        line = 4 if blank else 3
        with mock.patch.object(mcsim, "_READ_BYTES", piece):
            with pytest.raises(FormatError, match=f"^line {line}: ") as exc:
                read_records(str(path))
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: row {row!r} does not match [0-9]{{1,20}},[0-3],[01]"

    @pytest.mark.parametrize("piece", [1, 7, 1 << 18])
    @pytest.mark.parametrize("final_lf", [False, True])
    def test_long_line_quoted_to_its_limit(self, record_dir, piece, final_lf):
        # refused unread past the limit when it spans pieces, parsed whole
        # when it does not: the message is the same
        path = record_dir / "long.csv"
        long = b"1" * 1000 + b",1,0"
        path.write_bytes(b"gate_index,detector_id,is_dark\n3,2,1\n" + long
                         + (b"\n" if final_lf else b""))
        shown = repr(long[: mcsim._MAX_LINE]) + "..."
        with mock.patch.object(mcsim, "_READ_BYTES", piece):
            with pytest.raises(FormatError, match=f"^line 3: row {re.escape(shown)} does not"):
                read_records(str(path))

    @pytest.mark.parametrize("change, tail", [
        ("append", b"2222222,0,0\n"),  # grows by a row
        ("append", b"\n"),  # grows by a blank line
        ("rewrite", b"3,0,0\n4,0,0\n5,0,0\n"),  # same size, more rows than counted
        ("rewrite", b"3,0,0\n"),  # shrinks
    ])
    def test_file_changed_between_passes_refused(self, record_dir, monkeypatch, change, tail):
        path = record_dir / "changing.csv"
        header = b"gate_index,detector_id,is_dark\n"
        path.write_bytes(header + b"3,2,1\n1111111,3,0\n")
        count_lines = mcsim._count_lines

        def then_change(*args):
            counted = count_lines(*args)
            if change == "append":
                with open(path, "ab") as fh:
                    fh.write(tail)
            else:
                path.write_bytes(header + tail)
            return counted

        monkeypatch.setattr(mcsim, "_count_lines", then_change)
        with pytest.raises(mcsim.IoError, match="changed while its records were read"):
            read_records(str(path))

    def test_read_holds_one_piece_beside_the_columns(self, record_dir):
        # 250k rows, 2.8 MB: about 11 pieces of 256 KiB, each of which
        # takes about 2 MiB with its per-line temporaries.  A whole-file
        # parse holds the file, a newline mask, an offset per line and a
        # second copy of the columns: 8 MiB here.
        gates = np.arange(250_000, dtype=np.uint64) * 37
        records = RecordSet(gates, (gates % 4).astype(np.uint8), gates % 3 == 0)
        path = str(record_dir / "pieces.csv")
        write_records(records, path)
        columns = records.gate_index.nbytes + records.detector_id.nbytes + records.is_dark.nbytes
        tracemalloc.start()
        try:
            read = read_records(path)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == records
        assert peak < columns + (3 << 20)

    @pytest.mark.parametrize("every", [1_000_000, 10])
    def test_columns_sized_by_rows_not_lines(self, record_dir, every):
        # a million lines, one in ``every`` a row and the rest blank: the
        # columns take 10 bytes a row, not 10 bytes a line (10 MB)
        path = record_dir / "blank.csv"
        gates = range(1_000_000 // every)
        body = b"".join(b"\n" * (every - 1) + b"%d,1,0\n" % g for g in gates)
        path.write_bytes(b"gate_index,detector_id,is_dark\n" + body)
        tracemalloc.start()
        try:
            read = read_records(str(path))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read.gate_index.tolist() == list(gates)
        assert peak < len(gates) * 10 + (6 << 20)

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.sampled_from([b"", b"7,1,0", b"12345,0,1"]), max_size=40),
           final_lf=st.booleans(), piece=st.integers(min_value=1, max_value=9))
    def test_line_count_skips_blank_lines(self, tmp_path_factory, lines, final_lf, piece):
        body = b"\n".join(lines) + (b"\n" if final_lf and lines else b"")
        path = tmp_path_factory.mktemp("count") / "lines.csv"
        path.write_bytes(body)
        with mock.patch.object(mcsim, "_READ_BYTES", piece), open(path, "rb") as fh:
            size, rows = mcsim._count_lines(fh, bytearray(piece + mcsim._MAX_LINE))
        assert (size, rows) == (len(body), sum(1 for line in lines if line))
