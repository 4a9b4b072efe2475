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

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one_refused(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            run_session(P_SMALL, LINK_B2B, seed=5, n_pulses=1000, chunk_size=chunk_size)

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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_out_of_range_seed_refused(self, seed, tmp_path):
        # folded mod 2^64 such a seed would replay another seed's streams
        match = "not in 0 .. 2\\^64 - 1"
        with pytest.raises(ValueError, match=match):
            run_session(P_SMALL, LINK_B2B, seed=seed, n_pulses=1000)
        with pytest.raises(ValueError, match=match):
            run_stability(P_SMALL, LINK_B2B, DriftModel(), Schedule(duration_h=0.25), seed,
                          pulses_per_window=1000)
        with pytest.raises(ValueError, match=match):
            pulse_records(P_SMALL, seed, [0])
        # the recount, also of a file without rows
        for n_pulses in (1000, 1):
            path = str(tmp_path / "rec.csv")
            records = run_session(P_SMALL, LINK_B2B, seed=5, n_pulses=n_pulses,
                                  keep_records=True).records
            write_records(records, path)
            with pytest.raises(ValueError, match=match):
                read_records(path, P_SMALL, seed=seed)

    def test_seed_range_ends_are_streams(self):
        ends = [run_session(P_SMALL, LINK_B2B, seed=s, n_pulses=2**12).counts
                for s in (0, 2**64 - 1)]
        assert ends[0] != ends[1]


class TestReceiverRule:
    """The simulator resolves and sifts clicks, and draws Alice's classes,
    with the oracle's own tables, checked exactly over every click pattern
    and (basis, bit) class."""

    def test_choice_lists_the_share_detectors(self):
        for s in range(1, 16):
            members = np.flatnonzero(rates._SHARE[s])
            assert mcsim._POPCOUNT[s] == members.size
            np.testing.assert_array_equal(mcsim._CHOICE[s, : members.size], members)

    def test_resolved_flags_are_the_sifting_table(self):
        # every non-zero pattern with every class and intensity, 64 gates
        # each, so that each detector of a multi-click gets chosen
        s, c, k, _ = np.meshgrid(np.arange(1, 16), np.arange(4), np.arange(2), np.arange(64),
                                 indexing="ij")
        s, c, k = (a.ravel().astype(np.uint8) for a in (s, c, k))
        index = np.arange(s.size, dtype=np.int64) * 7919 + 3
        key = mcsim._folded_key(9, mcsim._SLOT_DCLICK)
        n_cells, m_cells, sifted, errors, multi = mcsim._resolve_clicks(
            key, index, s, k << 2 | c)
        # the chosen detector: the kth click of the pattern, k drawn from
        # the click-choice stream on multi-click gates only
        cpop = mcsim._POPCOUNT[s].astype(np.int64)
        u = mcsim._uniforms_at(key, index).astype(np.float64) * 2.0**-64
        kth = np.where(cpop > 1, np.minimum((u * cpop).astype(np.int64), cpop - 1), 0)
        chosen = np.array([np.flatnonzero(rates._SHARE[x])[j] for x, j in zip(s, kth)])
        assert {(x, d) for x, d in zip(s, chosen)} == set(zip(*np.nonzero(rates._SHARE)))
        np.testing.assert_array_equal(multi, cpop > 1)
        np.testing.assert_array_equal(sifted, rates._SIFTED[0, c, chosen])
        np.testing.assert_array_equal(errors, rates._SIFTED[1, c, chosen])
        cell = (c >> 1) * 2 + k
        np.testing.assert_array_equal(n_cells, np.bincount(cell[sifted], minlength=4))
        np.testing.assert_array_equal(m_cells, np.bincount(cell[errors], minlength=4))

    @pytest.mark.parametrize("conf", ["back_to_back.conf", "reference_75km.conf",
                                      "projection.conf"])
    def test_preparation_bins_are_the_class_weights(self, conf):
        p, _, _ = load_config(os.path.join(CONFIG_DIR, conf))
        thr = mcsim._prep_draw(p).thr
        weight = rates.preparation_weights(p)
        # bin (k << 2) | c is Alice's class c at intensity k
        widths = np.diff(thr, prepend=np.uint64(0)).astype(np.float64) * 2.0**-64
        np.testing.assert_allclose(widths, weight.T.ravel(), rtol=0, atol=2.0**-50)
        # and the thresholds are those of the factors multiplied one by one
        loop = [p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5
                for k in Intensity for b in Basis for _bit in (0, 1)]
        np.testing.assert_array_equal(thr, mcsim._cdf_u64(loop))


def _session_key(res):
    """Everything a session returns, records included, as comparable values."""
    return (res.counts, res.ground_truth, res.n_pulses, res.detection_gates,
            res.multi_click_gates, res.detector_clicks, res.sent, res.clicked,
            *(None if res.records is None else
              (res.records.gate_index.tolist(), res.records.detector_id.tolist(),
               res.records.is_dark.tolist()),))


def _largest_chunk(n, chunk_size):
    """The largest of the max(1, n // chunk_size) near-equal chunks of n
    gates."""
    return -(-n // max(1, n // chunk_size))


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
        got = mcsim._uniforms_at(mcsim._folded_key(seed, slot) + start, index, work)
        assert np.shares_memory(got, work[0])
        assert np.array_equal(got, mcsim._uniforms_at(mcsim._folded_key(seed, slot), gates))
        key = mcsim._stream_key(seed, slot)
        assert got.tolist() == [mcsim._mix_scalar((key + g) % 2**64) for g in gates.tolist()]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), slot=st.integers(0, 24), n=st.integers(1, 3000),
           carry=st.sampled_from(["first", "mid", "last", "top"]),
           lap=st.one_of(st.sampled_from([0, 1, 2**34 - 1]), st.integers(0, 2**34 - 1)))
    def test_range_uniforms_equal_gathered_and_scalar(self, seed, slot, n, carry, lap):
        # the hash input of gate g is c + g: place a multiple of 2^30 (2^64
        # at lap 0) on the range's first gate, a middle one or its last, or
        # end the range at gate 2^64 - 1
        c = mcsim._folded_key(seed, slot)
        if carry == "top":
            start = 2**64 - n
        else:
            at = {"first": 0, "mid": n // 2, "last": n - 1}[carry]
            start = (lap * 2**30 - c - at) % 2**64
        gates = [(start + i) % 2**64 for i in range(n)]
        work = (np.full(n + 7, 2**64 - 1, dtype=np.uint64), np.arange(n + 7, dtype=np.uint64))
        got = mcsim._hashes_range(c + start, n, work)
        assert np.shares_memory(got, work[0])
        assert np.array_equal(got, mcsim._hashes_at(c + start, np.arange(n, dtype=np.uint64)))
        got = mcsim._finish(got)
        want = mcsim._uniforms_at(c, np.array(gates, dtype=np.uint64))
        assert np.array_equal(got, want)
        key = mcsim._stream_key(seed, slot)
        assert got.tolist() == [mcsim._mix_scalar((key + g) % 2**64) for g in gates]

    def test_set_up_made_once_per_tables_and_seed(self, monkeypatch):
        # stream keys and draws: as many for 256 chunks as for one, and for
        # 6 stability windows at a fixed angle as for one
        calls = {"keys": 0, "draws": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mcsim, "_stream_key", counting("keys", mcsim._stream_key))
        monkeypatch.setattr(mcsim, "_Draw", counting("draws", mcsim._Draw))

        def made(n_pulses=None, windows=None):
            calls.update(keys=0, draws=0)
            if windows is None:
                run_session(P_SMALL, LINK_B2B, seed=4, n_pulses=n_pulses, chunk_size=256,
                            n_threads=1)
            else:
                run_stability(P_SMALL, LINK_B2B, DriftModel(), Schedule(duration_h=windows / 12),
                              seed=4, pulses_per_window=1000, n_threads=1)
            return dict(calls)

        once = {"keys": mcsim._SLOT_ROUTE0 + mcsim._MAX_ROUTED, "draws": 5}
        assert made(n_pulses=256) == made(n_pulses=256 * 256) == once
        assert made(windows=1) == made(windows=6) == once

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

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 10**5, 2**17 - 1, 2**17,
                                   2**17 + 1, 3 * 2**16 + 5])
    def test_default_chunks_have_no_short_tail(self, n, monkeypatch):
        # max(1, n // 2^16) contiguous chunks of 2^16 to 2^17 - 1 gates (all
        # n if fewer), their draws over every gate in near-equal pieces of
        # at most 2^16, the hash buffers' longest length; equal to 777-gate
        # chunks and to two workers
        kw = dict(n_pulses=n, gate_offset=10**9 + 3, keep_records=True)
        chunks, pieces = [], []
        run_chunk, every_gate = mcsim._run_chunk, mcsim._every_gate

        def chunk(tables, keys, start, stop, keep_records):
            chunks.append((start, stop))
            pieces.append([])
            return run_chunk(tables, keys, start, stop, keep_records)

        def piece(tables, keys, start, prep, nph):
            pieces[-1].append((start, start + prep.size))
            return every_gate(tables, keys, start, prep, nph)

        monkeypatch.setattr(mcsim, "_run_chunk", chunk)
        monkeypatch.setattr(mcsim, "_every_gate", piece)
        tables = mcsim._SessionTables(P_SMALL, LINK_B2B)
        want = _session_key(run_session(P_SMALL, LINK_B2B, seed=5, n_threads=1, _tables=tables,
                                        **kw))
        monkeypatch.undo()

        def sizes(bounds, first, last):
            starts, stops = zip(*bounds)
            assert starts[0] == first and stops[-1] == last and starts[1:] == stops[:-1]
            sizes = [b - a for a, b in bounds]
            assert max(sizes) - min(sizes) <= 1
            return sizes

        chunk_sizes = sizes(chunks, kw["gate_offset"], kw["gate_offset"] + n)
        assert len(chunk_sizes) == max(1, n // 2**16)
        assert min(n, 2**16) <= min(chunk_sizes) and max(chunk_sizes) <= 2**17 - 1
        piece_sizes = [sizes(p, *c) for p, c in zip(pieces, chunks)]
        assert [len(p) for p in piece_sizes] == [-(-c // 2**16) for c in chunk_sizes]
        assert max(max(p) for p in piece_sizes) <= 2**16
        assert [b.size for b in tables.work] == [min(max(chunk_sizes), 2**16)] * 2
        assert _session_key(run_session(P_SMALL, LINK_B2B, seed=5, chunk_size=777, **kw)) == want
        assert _session_key(run_session(P_SMALL, LINK_B2B, seed=5, n_threads=2, **kw)) == want

    def test_photon_gates_past_the_hash_buffers(self, monkeypatch):
        # one chunk of 2^17 - 1 gates on buffers of 2^16, of which more than
        # 2^16 have photons: the survival draw hashes them in buffers of its
        # own, and equals 777-gate chunks
        p = ProtocolParams(mu=1.0, nu=0.9)
        kw = dict(n_pulses=2**17 - 1, gate_offset=7, keep_records=True)
        lit = []
        real = mcsim._survivors

        def counting(tables, key, nph, work):
            lit.append(np.count_nonzero(nph))
            return real(tables, key, nph, work)

        monkeypatch.setattr(mcsim, "_survivors", counting)
        tables = mcsim._SessionTables(p, LINK_B2B)
        got = _session_key(run_session(p, LINK_B2B, seed=3, n_threads=1, _tables=tables, **kw))
        monkeypatch.undo()
        assert [b.size for b in tables.work] == [2**16] * 2 and lit[0] > 2**16
        assert got == _session_key(run_session(p, LINK_B2B, seed=3, chunk_size=777, **kw))

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10**5])
    @pytest.mark.parametrize("carry", [None, 0, 1, "mid", -1])
    def test_range_hashes_equal_gathered(self, n, carry):
        # the range's offsets are written, not read: any size, with a
        # multiple of 2^30 nowhere, on its first gate or its second, in its
        # middle, or on its last
        c = mcsim._folded_key(17, mcsim._SLOT_DARK)
        if carry is not None:
            at = {"mid": n // 2, -1: n - 1}.get(carry, carry)
            c = (5 * 2**30 - at) % 2**64
        work = (np.full(n + 3, 2**64 - 1, dtype=np.uint64), np.arange(n + 3, dtype=np.uint64))
        got = mcsim._hashes_range(c, n, work)
        assert got.size == n and np.shares_memory(got, work[0])
        np.testing.assert_array_equal(got, mcsim._hashes_at(c, np.arange(n, dtype=np.uint64)))

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
            for i, case in enumerate(order):
                assert run(case, tables) == fresh[cases.index(case)]
                # one buffer pair per tables object, as long as the largest
                # chunk run on it, or a piece of 2^16 gates if longer
                size = max(_largest_chunk(2 * 2**16 + 333, c) for _, c in order[: i + 1])
                assert [b.size for b in tables.work] == [min(size, 2**16)] * 2

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
        # the offsets, hash buffers and photon counts (4 x 512 KiB) come from
        # the first session
        tables = mcsim._SessionTables(P_SMALL, LINK_B2B)
        run_session(P_SMALL, LINK_B2B, seed=1, n_threads=1, _tables=tables)
        tracemalloc.start()
        try:
            run_session(P_SMALL, LINK_B2B, seed=2, n_threads=1, _tables=tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("conf", ["back_to_back.conf", "reference_75km.conf"])
    @pytest.mark.parametrize("keep_records", [False, True])
    def test_chunk_temporaries_bounded(self, conf, keep_records):
        # beside the work arrays, a warm 2^16-gate chunk allocates no more
        # than 641.6 KiB at once, the peak when the survival draw hashed
        # every gate and gathered its thresholds through an intp copy of the
        # photon counts
        p, link, _ = load_config(os.path.join(CONFIG_DIR, conf))
        tables, n = mcsim._SessionTables(p, link), 1 << 16
        tables.reserve(n)
        keys = tables.keys(7)
        mcsim._run_chunk(tables, keys, 0, n, keep_records)
        tracemalloc.start()
        try:
            mcsim._run_chunk(tables, keys, n, 2 * n, keep_records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 641.6 * 1024

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
        # a 1e5-pulse session is one default chunk
        run_session(P_SMALL, LINK_B2B, seed=1, n_threads=2)
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
    """(name, draw) for every table kind the simulator draws from."""
    cases = []
    for p_z in (0.5, 0.95):
        t = mcsim._SessionTables(ProtocolParams(p_z_alice=p_z, p_z_bob=p_z), LINK_75)
        cases += [(f"prep p_z={p_z}", t.prep), (f"route p_z={p_z}", t.route)]
    # at mu = 0.9 the leading bins leave a tail for the binary search
    for mu, nu in ((0.05, 0.01), (0.9, 0.3)):
        t = mcsim._SessionTables(ProtocolParams(mu=mu, nu=nu), LINK_75)
        cases.append((f"poisson mu={mu}", t.pois))
    for name, link in (("eta=0", LINK_ETA0), ("eta=1", LINK_ETA1), ("eta mid", LINK_B2B)):
        binom = mcsim._SessionTables(ProtocolParams(), link).binom.thr
        cases += [(f"binomial {name} n={n}", mcsim._Draw(binom[n])) for n in (0, 1, 2, 7, 40)]
    for dark in (0.0, 0.5):
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
        cases.append((f"dark={dark}", mcsim._SessionTables(ProtocolParams(), link).dark))
    return cases


def _guided_tables():
    """(name, guided draw) for the preparation draw, dark tables, and
    corner tables: thresholds next to bucket edges, repeated thresholds
    (zero-mass bins), a single bin, and two rows that differ."""
    cases = []
    for p_z, p_mu in itertools.product((0.5, 0.95), (0.1, 0.95)):
        t = mcsim._SessionTables(ProtocolParams(p_z_alice=p_z, p_mu=p_mu), LINK_75)
        cases.append((f"prep p_z={p_z} p_mu={p_mu}", t.prep))
    for dark in (0.0, 0.5):
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
        thr = mcsim._SessionTables(ProtocolParams(), link).dark.thr
        cases.append((f"dark={dark}", mcsim._Draw(thr, guided=True)))
    edge = 1 << 52
    top = 2**64 - 1
    corner = [0, 1] + [k * edge + d for k in (1, 2, 4095) for d in (-2, -1, 0, 1)]
    for name, thr in (
        ("bucket edges", [*corner, top]),
        ("zero-mass bins", [3 * edge] * 3 + [3 * edge + 1] * 2 + [top] * 3),
        ("single bin", [top]),
        ("two rows", [[edge - 1, 9 * edge, 9 * edge + 5, top], [edge, edge + 1, 4095 * edge, top]]),
    ):
        cases.append((name, mcsim._Draw(np.array(thr, dtype=np.uint64), guided=True)))
    return cases


def _unfinished(u):
    """The unfinished hashes whose uniforms are ``u``: x = u ^ (u >> 31) ^
    (u >> 62) inverts the finalizer's last xorshift u = x ^ (x >> 31)."""
    x = u ^ (u >> np.uint64(31)) ^ (u >> np.uint64(62))
    assert np.array_equal(mcsim._finish(x.copy()), u)
    return x


def _check_guided(draw, extra):
    """The guided draw of the unfinished hash of every uniform, against
    every row of the draw's thresholds, equals ``np.searchsorted`` of the
    uniform, and the guide splits exactly the buckets that hold a
    threshold.  Uniforms: every threshold +-1, both edges of every bucket,
    0, 2^64 - 1 and ``extra``."""
    thr, guide = draw.thr, draw.guide
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
    x = _unfinished(u)
    if thr.ndim == 1:
        got = draw.guided(x)
    else:
        row = np.repeat(np.arange(len(rows), dtype=np.uint8), u.size)
        index = np.empty(row.size, dtype=np.uint64)
        got = draw.guided(np.tile(x, len(rows)), row, index)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


class TestSampler:
    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(_sampler_tables()),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_equals_searchsorted(self, case, extra):
        _name, draw = case
        thr = draw.thr
        rows = np.atleast_2d(thr)
        # every lattice point next to a threshold pins the tie rule
        points = {0, 2**64 - 1}
        for t in rows.ravel().tolist():
            points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        u = np.array(sorted(points) + extra, dtype=np.uint64)
        if thr.ndim == 1:
            got = draw.bins(u)
            want = np.searchsorted(thr, u, side="left")
        else:
            # each uniform against each row's table
            row = np.repeat(np.arange(len(rows), dtype=np.uint8), len(u))
            uu = np.tile(u, len(rows))
            got = draw.bins(uu, row)
            want = np.concatenate([np.searchsorted(r, u, side="left") for r in rows])
        assert np.array_equal(got, want)


    @settings(max_examples=60, deadline=None)
    @given(link=st.sampled_from([LINK_B2B, LINK_75, LinkModel(
               channel_loss_db=0.0, receiver_loss_db=0.0, detector=DetectorModel(efficiency=0.9))]),
           photons=st.sets(st.integers(0, mcsim._PHOTON_CAP), min_size=1),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_survivor_gather_equals_searchsorted(self, link, photons, extra):
        draw = mcsim._SessionTables(ProtocolParams(), link).binom
        thr = draw.thr
        # every lattice point next to a threshold, in every row drawn: ties
        points = {0, 2**64 - 1, *extra}
        for n in range(mcsim._PHOTON_CAP + 1):
            for t in thr[n, : n + 1].tolist():
                points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        u = np.array(sorted(points), dtype=np.uint64)
        rows = np.array(sorted(photons), dtype=np.uint8)
        got = draw.bins(np.tile(u, rows.size), np.repeat(rows, u.size))
        want = np.concatenate([np.searchsorted(thr[n, : n + 1], u) for n in rows])
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(_guided_tables()),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_guide_equals_searchsorted(self, case, extra):
        _name, draw = case
        _check_guided(draw, extra)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(0.05, 1.5), nu_frac=st.floats(0.0, 0.99),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_guided_photon_number_equals_searchsorted(self, mu, nu_frac, extra):
        t = mcsim._SessionTables(ProtocolParams(mu=mu, nu=mu * nu_frac), LINK_75)
        _check_guided(t.pois, extra)

    @settings(max_examples=60, deadline=None)
    @given(dark=st.sampled_from([0.0, 1e-9, 8e-6, 3.3e-4, 0.37]),
           thr=st.one_of(st.none(), st.integers(0, 2**64 - 1),
                         st.integers(0, 2**31 - 1).map(lambda t: t << 33)),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_dark_rule_equals_exact_comparison(self, dark, thr, extra):
        # the dark gates of unfinished hashes are those whose uniform
        # exceeds P(no dark click), also where the top 31 bits tie
        if thr is None:
            link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
            thr = int(mcsim._SessionTables(ProtocolParams(), link).dark.thr[0])
        top = thr >> 33 << 33
        points = {0, 2**64 - 1, *extra}
        for t in (thr, top, top + (1 << 33) - 1, top + (1 << 33)):
            points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        # the tie: uniforms that share the threshold's top 31 bits
        points.update(top | (x & ((1 << 33) - 1)) for x in extra)
        u = np.array(sorted(points), dtype=np.uint64)
        index, got = mcsim._above(_unfinished(u), thr)
        want = np.flatnonzero(u > np.uint64(thr))
        assert np.array_equal(index, want)
        assert np.array_equal(got, u[want])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), start=st.sampled_from([0, 2**64 - 2**20]),
           angle=st.floats(0.0, 3.2),
           gates=st.lists(st.tuples(st.integers(1, mcsim._MAX_ROUTED), st.integers(0, 3)),
                          max_size=40))
    def test_photon_clicks_route_each_photon(self, seed, start, angle, gates):
        # photon j of each gate from routing slot j, up to 16 survivors
        t = mcsim._SessionTables(P_SMALL, replace(LINK_B2B, rotation_angle=angle))
        act = np.arange(len(gates), dtype=np.intp) * 37 + 5
        surv = np.array([s for s, _ in gates], dtype=np.uint8)
        cls = np.array([c for _, c in gates], dtype=np.uint8)
        got = mcsim._photon_clicks(t, t.keys(seed), start, act, surv, cls)
        want = []
        for g, s, c in zip(act.tolist(), surv.tolist(), cls.tolist()):
            gate = np.array([(start + g) % 2**64], dtype=np.uint64)
            dets = [np.searchsorted(t.route.thr[c], mcsim._uniforms_at(
                        mcsim._folded_key(seed, mcsim._SLOT_ROUTE0 + j), gate))[0]
                    for j in range(s)]
            want.append(np.bitwise_or.reduce([1 << int(d) for d in dets]))
        assert got.tolist() == want

    def test_guides_outlive_rotation_updates(self):
        t = mcsim._SessionTables(P_SMALL, LINK_75)
        guided = (t.prep, t.pois)
        t.set_rotation(P_SMALL, replace(LINK_75, rotation_angle=0.3))
        assert t.prep is guided[0] and t.pois is guided[1]
        assert np.array_equal(t.prep.guide, mcsim._Draw(t.prep.thr, guided=True).guide)
        assert np.array_equal(t.pois.guide, mcsim._Draw(t.pois.thr, guided=True).guide)

    @settings(max_examples=40, deadline=None)
    @given(angle=st.floats(0.0, math.pi / 2), p_z=st.sampled_from([0.5, 0.9, 0.95]),
           classes=st.lists(st.integers(0, 3), min_size=1, max_size=64),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_gathered_routing_equals_per_class_searchsorted(self, angle, p_z, classes, extra):
        draw = mcsim._SessionTables(ProtocolParams(p_z_bob=p_z),
                                    replace(LINK_75, rotation_angle=angle)).route
        thr = draw.thr
        points = {0, 2**64 - 1, *extra}
        for t in thr.ravel().tolist():
            points.update(x for x in (t - 1, t, t + 1) if 0 <= x < 2**64)
        u = np.array(sorted(points), dtype=np.uint64)
        # each uniform in every class, then the uniforms in a drawn class order
        row = np.concatenate([np.repeat(np.arange(4, dtype=np.uint8), u.size),
                              np.resize(np.array(classes, dtype=np.uint8), u.size)])
        uu = np.concatenate([np.tile(u, 4), u])
        want = np.array([np.searchsorted(thr[r], x) for r, x in zip(row, uu)])
        assert np.array_equal(draw.bins(uu, row), want)

    @pytest.mark.parametrize("tables", ["one table", "per-row tables"])
    def test_bins_are_uint8_also_when_empty(self, tables):
        # a guided draw with no split bucket draws no uniform at all
        t = mcsim._SessionTables(ProtocolParams(), LINK_75)
        draw, row = (t.dark, None) if tables == "one table" else (t.binom, np.uint8)
        u = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        for uu in (u, u[:0]):
            rows = None if row is None else np.full(uu.size, mcsim._PHOTON_CAP, dtype=row)
            got = draw.bins(uu, rows)
            want = [np.searchsorted(np.atleast_2d(draw.thr)[-1], x) for x in uu]
            assert got.dtype == np.uint8
            assert got.tolist() == want

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
        thr = mcsim._SessionTables(ProtocolParams(), link).dark.thr
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

    @pytest.mark.parametrize("p, link", [
        (ProtocolParams(),
         LinkModel(channel_loss_db=0.0, detector=DetectorModel(dark_prob_per_gate=0.0))),
        (ProtocolParams(), LinkModel(channel_loss_db=14.6, rotation_angle=math.pi / 4)),
        (ProtocolParams(p_z_alice=0.5, p_z_bob=0.5), LINK_B2B),
        (ProtocolParams(p_z_alice=0.95, p_z_bob=0.95), LINK_75),
        (ProtocolParams(), LinkModel(channel_loss_db=0.0, receiver_loss_db=0.0,
                                     detector=DetectorModel(efficiency=1.0))),
    ], ids=["dark-0", "rotation-pi/4", "p_z-0.5", "p_z-0.95", "eta-1"])
    def test_cells_within_5_sigma_of_exact_model_across_links(self, p, link):
        # every sifted and error cell of a 2^21-pulse session
        n_pulses = 2**21
        res = run_session(p, link, seed=5, n_pulses=n_pulses)
        exact = rates.expected_sifted_cells(p, link)
        for (b, k), prob in exact.sift.items():
            for obs, q in ((res.counts.n(b, k), prob), (res.counts.m(b, k), exact.err[(b, k)])):
                sigma = max(1.0, math.sqrt(n_pulses * q * (1 - q)))
                assert abs(obs - n_pulses * q) <= 5 * sigma, (b, k, obs, n_pulses * q)

    def test_double_click_rate_matches_model(self, b2b_session_1e7):
        p = ProtocolParams(n_pulses=10**7)
        exact = rates.expected_sifted_cells(p, LINK_B2B)
        mean = p.n_pulses * exact.multi_click
        sigma = math.sqrt(p.n_pulses * exact.multi_click * (1 - exact.multi_click))
        assert abs(b2b_session_1e7.multi_click_gates - mean) <= 5 * sigma

    def test_conservation(self, b2b_session_1e7):
        res = b2b_session_1e7
        assert res.counts.sift.sum() <= res.detection_gates <= res.n_pulses
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

    @pytest.mark.parametrize("conf", ["back_to_back.conf", "reference_75km.conf",
                                      "projection.conf"])
    @pytest.mark.parametrize("seed", [5, 2**64 - 1])
    def test_classes_and_photons_equal_searchsorted(self, conf, seed):
        # each gate's class and photon number are np.searchsorted of the
        # finished hash of (seed, slot, gate), made here by the scalar mixer
        p, _, _ = load_config(os.path.join(CONFIG_DIR, conf))
        rng = np.random.default_rng(17)
        gates = [0, 1, 2**63, 2**64 - 1, *(int(g) for g in rng.integers(
            0, 2**64 - 1, 500, dtype=np.uint64, endpoint=True))]

        def uniforms(slot):
            key = mcsim._stream_key(seed, slot)
            return np.array([mcsim._mix_scalar((key + g) % 2**64) for g in gates],
                            dtype=np.uint64)

        prep = np.searchsorted(mcsim._cdf_u64(rates.preparation_weights(p).T.ravel()),
                               uniforms(mcsim._SLOT_PREP))
        pois = mcsim._cdf_u64(mcsim._photon_pmfs(p))
        nph = [np.searchsorted(pois[k >> 2], u)
               for k, u in zip(prep, uniforms(mcsim._SLOT_NPHOT))]
        got = [(r.gate_index, r.intensity is Intensity.DECOY, r.alice_basis is Basis.X,
                r.alice_bit, r.photon_number) for r in pulse_records(p, seed, gates)]
        assert got == [(g, bool(k >> 2), bool(k >> 1 & 1), int(k & 1), int(n))
                       for g, k, n in zip(gates, prep, nph)]
        assert {k >> 2 for k in prep} == {0, 1}

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

    def test_recount_needs_no_link(self, tmp_path):
        # the recount reads only the params and the seed; without a link it
        # once returned no counts
        res = run_session(P_SMALL, LINK_B2B, seed=11, keep_records=True)
        path = str(tmp_path / "records.csv")
        write_records(res.records, path)
        assert read_records(path, P_SMALL, seed=11)[1] == res.counts

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
        path.write_text("gate_index,detector_id,is_dark\n3,2,1\n9,0,0\n9,3,0\n9,1,0\n")
        with pytest.raises(FormatError, match="line 5"):
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
        path.write_text(f"gate_index,detector_id,is_dark\n3,1,0\n{gate},1,0\n")
        with pytest.raises(FormatError, match=f"^line 3: gate {gate} exceeds 2\\^64 - 1$"):
            read_records(str(path))

    def test_detector_above_3_not_written(self, tmp_path):
        path = tmp_path / "det.csv"
        with pytest.raises(ValueError, match="detector id 4"):
            write_records(RecordSet([1], [4], [False]), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("block", [2, 1 << 16])
    @pytest.mark.parametrize("gates, dets, k", [
        ([5, 3], [0, 0], 1),  # gates out of order
        ([5, 5], [2, 1], 1),  # detectors out of order
        ([1, 5, 5], [0, 1, 1], 2),  # duplicate row, across a block edge at 2
        ([1, 5, 4], [0, 1, 3], 2),  # out of order across a block edge at 2
    ])
    def test_rows_out_of_order_not_written(self, tmp_path, block, gates, dets, k):
        # rows the reader would refuse are not written
        path = tmp_path / "order.csv"
        with mock.patch.object(mcsim, "_BLOCK_ROWS", block):
            with pytest.raises(ValueError, match=f"^record {k} \\(gate {gates[k]}, detector "
                                                 f"{dets[k]}\\) is not after the one before it"):
                write_records(RecordSet(gates, dets, [False] * len(gates)), str(path))
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_raises_io_error(self, tmp_path):
        path = tmp_path / "missing" / "records.csv"
        with pytest.raises(mcsim.IoError, match="cannot write records to"):
            write_records(RecordSet([1], [0], [False]), str(path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        # refused in the second block, after the first is written
        path = tmp_path / "kept.csv"
        path.write_bytes(b"gate_index,detector_id,is_dark\n1,0,0\n")
        monkeypatch.setattr(mcsim, "_BLOCK_ROWS", 2)
        with pytest.raises(ValueError, match="not after the one before it"):
            write_records(RecordSet([1, 2, 9, 3], [0, 0, 0, 0], [False] * 4), str(path))
        assert path.read_bytes() == b"gate_index,detector_id,is_dark\n1,0,0\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_special_file_written_in_place(self):
        write_records(RecordSet([1, 2], [0, 3], [False, True]), os.devnull)
        assert not os.path.exists(f"{os.devnull}.{os.getpid()}.tmp")

    def test_record_set_indexing(self):
        rs = RecordSet([5, 9], [1, 3], [False, True])
        assert len(rs) == 2
        assert (int(rs.gate_index[1]), int(rs.detector_id[1]), bool(rs.is_dark[1])) == (9, 3, True)
        assert int(rs.gate_index[0]) == 5
        assert (rs.gate_index.dtype, rs.detector_id.dtype, rs.is_dark.dtype) == (
            np.uint64, np.uint8, np.bool_)


def _reference_bytes(records: RecordSet) -> bytes:
    """The record file as one f-string per row, the format's definition."""
    rows = "".join(
        f"{gate},{det},{int(dark)}\n"
        for gate, det, dark in zip(records.gate_index.tolist(), records.detector_id.tolist(),
                                   records.is_dark.tolist())
    )
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
           piece=st.sampled_from([1, 2, 3, 7, 64, 1 << 18]), blank_after=st.integers(0, 60))
    def test_matches_per_row_format_and_reads_back(self, record_dir, records, block, piece,
                                                   blank_after):
        # pieces of a few bytes split the header and rows
        path = record_dir / "kernel.csv"
        with mock.patch.object(mcsim, "_BLOCK_ROWS", block), \
                mock.patch.object(mcsim, "_READ_BYTES", piece):
            write_records(records, str(path))
            data = path.read_bytes()
            assert data == _reference_bytes(records)
            assert read_records(str(path))[0] == records
            # a blank line, or a last line without LF, is refused at its line
            lines = data.split(b"\n")[:-1]
            at = 1 + min(blank_after, len(lines) - 1)
            for bad, line in ((b"\n".join(lines[:at] + [b""] + lines[at:]) + b"\n", at + 1),
                              (data[:-1], len(lines))):
                path.write_bytes(bad)
                with pytest.raises(FormatError, match=f"^line {line}: ") as exc:
                    read_records(str(path))
                assert exc.value.line == line

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
        for rows, line in ((b"3,2,1\n9,0,0\n9,0,1\n", 4), (b"3,2,1\n9,0,0\n4,1,0\n", 4),
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
        b"",  # blank line
    ])
    @pytest.mark.parametrize("last", [False, True])  # the row ends the file
    @pytest.mark.parametrize("piece", [1, 3, 1 << 16])
    def test_malformed_row_reports_line(self, record_dir, row, last, piece):
        path = record_dir / "bad.csv"
        path.write_bytes(b"gate_index,detector_id,is_dark\n3,2,1\n" + row + b"\n"
                         + (b"" if last else b"8,0,0\n"))
        line = 3
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

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.sampled_from([b"\n", b"7,1,0\n", b"12345,0,1", b"\n\n"]),
                          max_size=40),
           piece=st.integers(min_value=1, max_value=9))
    def test_line_count_is_lf_count(self, tmp_path_factory, parts, piece):
        body = b"".join(parts)
        path = tmp_path_factory.mktemp("count") / "lines.csv"
        path.write_bytes(body)
        with mock.patch.object(mcsim, "_READ_BYTES", piece), open(path, "rb") as fh:
            size, lfs = mcsim._count_lines(fh, bytearray(piece + mcsim._MAX_LINE))
        assert (size, lfs) == (len(body), body.count(b"\n"))

    @pytest.mark.parametrize("piece", [1, 2, 3, 7, 64, 1 << 18])
    @pytest.mark.parametrize("body, line, message", [
        (b"", 1, "expected header"),
        (b"gate_index,detector_id,is_dark", 1, "expected header"),
        (b"gate_index,detector_id,is_dark\n3,2,1", 2, "last line does not end with LF"),
        (b"gate_index,detector_id,is_dark\n3,2,1\n9,0,0", 3, "last line does not end with LF"),
        (b"gate_index,detector_id,is_dark\n\n3,2,1\n", 2, "row b'' does not match"),
        (b"gate_index,detector_id,is_dark\n3,2,1\n\n", 3, "row b'' does not match"),
        (b"gate_index,detector_id,is_dark\n3,2,1\n\n9,0,0\n", 3, "row b'' does not match"),
    ])
    def test_every_line_is_a_row_ended_by_lf(self, record_dir, body, line, message, piece):
        path = record_dir / "lf.csv"
        path.write_bytes(body)
        with mock.patch.object(mcsim, "_READ_BYTES", piece):
            with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}") as exc:
                read_records(str(path))
        assert exc.value.line == line
