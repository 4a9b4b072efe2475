"""Pulse-level Monte Carlo engine for the one-decoy protocol.

Alice's preparation, the channel, and Bob's passive receiver are simulated
gate by gate.  All randomness is counter-based: every decision for gate g
is a pure function of (seed, g, decision slot), so results are identical
for any chunking or worker count and sessions can be re-derived after the
fact (e.g. to recompute sifted tallies from a detection-record file).

Photon counts are sampled per pulse (ground-truth tags for the finite-key
bound audits), survivors are binomially thinned by the system
transmittance, and each surviving photon routes to one detector through
the splitter-plus-analyzer weights.  Dark counts fire independently per
detector per gate.  Multi-detector gates resolve to a uniformly random
click, which also fixes Bob's basis.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Basis,
    Intensity,
    LinkModel,
    ObservedCounts,
    ProtocolParams,
    validate_params,
)
from . import optics, rates


class BudgetExceeded(RuntimeError):
    """Record retention would exceed the configured cap."""


class FormatError(ValueError):
    """Malformed detection-record file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IoError(OSError):
    pass


@dataclass(frozen=True)
class DriftModel:
    """Random-walk polarization drift: theta steps by N(0, sigma^2 dt)."""

    sigma: float = 0.0
    theta0: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma={self.sigma} must be >= 0 and finite")
        if not math.isfinite(self.theta0):
            raise ValueError(f"theta0={self.theta0} must be finite")


@dataclass(frozen=True)
class Schedule:
    """Stability-measurement schedule: short windows at a fixed interval."""

    window_s: float = 5.0
    interval_s: float = 300.0
    duration_h: float = 48.0

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.window_s, self.interval_s, self.duration_h)):
            raise ValueError("schedule durations must be positive and finite")
        if self.n_windows < 1:
            raise ValueError(
                f"{self.duration_h:g} h at one window per {self.interval_s:g} s holds no window"
            )

    @property
    def n_windows(self) -> int:
        return int(round(self.duration_h * 3600.0 / self.interval_s))


@dataclass(frozen=True)
class PulseRecord:
    gate_index: int
    alice_basis: Basis
    alice_bit: int
    intensity: Intensity
    photon_number: int


@dataclass(frozen=True)
class DetectionRecord:
    gate_index: int
    detector_id: int
    is_dark: bool


class RecordSet:
    """Column store of detection records (one row per detector click)."""

    def __init__(self, gate_index=None, detector_id=None, is_dark=None):
        self.gate_index = np.asarray(gate_index if gate_index is not None else [], dtype=np.uint64)
        self.detector_id = np.asarray(detector_id if detector_id is not None else [], dtype=np.uint8)
        self.is_dark = np.asarray(is_dark if is_dark is not None else [], dtype=bool)

    def __len__(self) -> int:
        return len(self.gate_index)

    def __getitem__(self, i: int) -> DetectionRecord:
        return DetectionRecord(int(self.gate_index[i]), int(self.detector_id[i]), bool(self.is_dark[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RecordSet)
            and np.array_equal(self.gate_index, other.gate_index)
            and np.array_equal(self.detector_id, other.detector_id)
            and np.array_equal(self.is_dark, other.is_dark)
        )


@dataclass
class GroundTruth:
    """Photon-number-tagged tallies of sifted events (simulation oracle)."""

    vacuum_detections: int = 0
    single_photon_detections: int = 0
    single_photon_detections_x: int = 0
    single_photon_errors_x: int = 0


@dataclass
class SessionResult:
    counts: ObservedCounts
    ground_truth: GroundTruth
    n_pulses: int
    detection_gates: int
    multi_click_gates: int
    detector_clicks: int
    sent: dict
    clicked: dict
    records: RecordSet | None = None


# --- counter-based randomness ----------------------------------------------

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_MIX_GOLD = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB


def _mix_scalar(x: int) -> int:
    x = (x + _MIX_GOLD) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_M1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_M2) & _MASK64
    return x ^ (x >> 31)


def _stream_key(seed: int, slot: int) -> int:
    return _mix_scalar((seed & _MASK64) ^ _mix_scalar(slot * 0xD1B54A32D192ED03))


_NP_M1, _NP_M2 = _U64(_MIX_M1), _U64(_MIX_M2)


def _uniforms_u64(seed: int, slot: int, index: np.ndarray, start: int = 0, work=None) -> np.ndarray:
    """64-bit uniforms for (seed, slot, gate), gate = start + index (an
    int64 or uint64 array); pure and order-independent.

    The splitmix64 finalizer of (gate + key), computed in place.  With
    ``work``, a pair of uint64 buffers at least ``index.size`` long, the
    result is a view of the first buffer, valid until the next call on it;
    without, it is a new array."""
    n = index.size
    if work is None:
        work = (np.empty(n, _U64), np.empty(n, _U64))
    x, t = work[0][:n], work[1][:n]
    # fold key + golden gamma + start mod 2^64 as a Python int: the sum of
    # np.uint64 scalars would raise an overflow warning
    np.add(index.view(_U64), (_stream_key(seed, slot) + _MIX_GOLD + start) & _MASK64, out=x)
    np.right_shift(x, 30, out=t)
    x ^= t
    x *= _NP_M1
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _NP_M2
    np.right_shift(x, 31, out=t)
    x ^= t
    return x


_UINT64_MAX = _U64(_MASK64)


def _cdf_u64(probs) -> np.ndarray:
    """Cumulative thresholds on the 64-bit lattice; final bin absorbs the
    rounding remainder."""
    cum = np.clip(np.cumsum(np.asarray(probs, dtype=np.float64)), 0.0, 1.0)
    scaled = cum * float(2**64)
    thr = np.empty(len(cum), dtype=np.uint64)
    top = scaled >= float(2**64)
    thr[~top] = scaled[~top].astype(np.uint64)
    thr[top] = _UINT64_MAX
    thr[-1] = _UINT64_MAX
    return thr


# A guide table splits the uniforms into 2^12 buckets by their top bits; an
# entry holds the bin of its bucket, or _SPLIT where a threshold cuts it.
_GUIDE_BITS = 12
_GUIDE_SHIFT = 64 - _GUIDE_BITS
_SPLIT = 255


def _guide(thr: np.ndarray) -> np.ndarray:
    """Guide table of ``thr`` (one table, or one per row of a 2-D ``thr``,
    each of fewer than 255 bins) for ``_sample``: entry ``bucket * rows +
    row``.  Bucket b holds the uniforms b 2^52 .. (b + 1) 2^52 - 1; the
    bin rises past each threshold t, so the bucket is split iff
    b 2^52 <= t < (b + 1) 2^52 - 1."""
    rows = np.atleast_2d(thr)
    lo = np.arange(1 << _GUIDE_BITS, dtype=_U64) << _U64(_GUIDE_SHIFT)
    hi = lo | _U64((1 << _GUIDE_SHIFT) - 1)
    guide = np.empty((lo.size, len(rows)), dtype=np.uint8)
    for r, table in enumerate(rows):
        first = np.searchsorted(table, lo)
        guide[:, r] = np.where(first == np.searchsorted(table, hi), first, _SPLIT)
    return guide.ravel()


def _sample(thr, u, row=None, guide=None, scratch=None) -> np.ndarray:
    """Bin of each uniform: the number of thresholds below it, which is
    ``np.searchsorted(thr, u, side="left")``, as uint8.

    A 2-D ``thr`` stacks one table per row and ``row`` picks the table of
    each uniform.  Two modes, both exact:

    - with ``guide = _guide(thr)``, for draws over every gate: the bin is
      the entry of the uniform's bucket, and only the uniforms in split
      buckets (about 0.2 % of them) are compared.  ``scratch``, a uint64
      buffer as long as ``u`` if given, holds the entry indices;
    - without, for sparse draws and the guide's fix-up: one gathered
      comparison of each uniform with its table's thresholds, up to the
      last one below 2^64 - 1 in any table drawn from (no uniform exceeds
      2^64 - 1, the last threshold and the padding of every table).
    """
    if guide is not None:
        idx = np.right_shift(u, _GUIDE_SHIFT, out=scratch)
        if row is not None:
            idx *= len(thr)
            idx += row
        # every index is in range; "wrap" is the fastest mode that skips
        # take's bounds error
        out = np.take(guide, idx.view(np.int64), mode="wrap")
        split = np.flatnonzero(out == _SPLIT)
        out[split] = _sample(thr, u[split], None if row is None else row[split])
        return out
    below = np.count_nonzero(thr < _UINT64_MAX, axis=-1)
    if row is None:
        table = thr[:below]
    else:
        table = np.take(thr[:, : np.take(below, row).max(initial=0)], row, axis=0)
    # a product with ones sums the short rows of comparisons faster than np.sum
    return (u[:, None] > table).view(np.uint8) @ np.ones(table.shape[-1], dtype=np.uint8)


# decision slots
_SLOT_PREP = 0
_SLOT_NPHOT = 1
_SLOT_DARK = 2
_SLOT_SURV = 3
_SLOT_DCLICK = 4
_SLOT_DRIFT_A = 5
_SLOT_DRIFT_B = 6
_SLOT_ROUTE0 = 8
_MAX_ROUTED = 16  # photons routed per gate
_PHOTON_CAP = 40  # photons per pulse
# largest probability, per intensity, that a gate's draw lands past either
# cap (and would be clipped to it); tables beyond it are refused
_CAP_TOLERANCE = 1e-12

_DETECTORS = np.arange(4, dtype=np.uint8)
_POPCOUNT = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)
# k-th set bit of each 4-bit mask, padded by repeating the last member
_CHOICE = np.zeros((16, 4), dtype=np.uint8)
for _mask in range(1, 16):
    _members = [d for d in range(4) if _mask >> d & 1]
    for _k in range(4):
        _CHOICE[_mask, _k] = _members[min(_k, len(_members) - 1)]


def _prep_thr(p: ProtocolParams) -> np.ndarray:
    """Thresholds of Alice's joint (intensity, basis, bit) choice,
    index = (k << 2) | (basis << 1) | bit."""
    prep = []
    for k in Intensity:
        for b in Basis:
            for _bit in (0, 1):
                prep.append(p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5)
    return _cdf_u64(prep)


def _photon_pmfs(p: ProtocolParams) -> list[list[float]]:
    """Poisson photon-number pmf over 0.._PHOTON_CAP, one per intensity
    index (0 signal, 1 decoy).  Raises ValueError if the draw would be
    clipped at the cap for more than ``_CAP_TOLERANCE`` of the gates."""
    pmfs = []
    for k in Intensity:
        mean = p.mean_photons(k)
        pmf = [math.exp(-mean) * mean**n / math.factorial(n) for n in range(_PHOTON_CAP + 1)]
        beyond = 1.0 - math.fsum(pmf)
        if beyond > _CAP_TOLERANCE:
            raise ValueError(
                f"{k.value} intensity {mean:g}: probability {beyond:.3g} of photon number "
                f"above {_PHOTON_CAP} exceeds {_CAP_TOLERANCE:g}"
            )
        pmfs.append(pmf)
    return pmfs


class _SessionTables:
    """Precomputed sampling tables for one (params, link) pair, and the
    chunk work arrays of every session run on them.

    The tables are the thresholds of every draw and, beside the two drawn
    over every gate, their guides (``prep_guide``, ``pois_guide``; see
    ``_sample``).  ``set_rotation`` rebuilds only the routing thresholds,
    whose sparse draw needs no guide, so the guides are made once.  The
    work arrays are the gate offsets ``iota`` (0, 1, ...) and ``work``, one
    pair of uint64 hash buffers: a process runs one chunk at a time, and a
    forked worker writes to its own copy.  ``reserve`` grows them.  They
    live exactly as long as the tables, so the windows of a stability run,
    which share one set, map and fault them in once.

    Raises ValueError if the photon or routed-photon cap would clip more
    than ``_CAP_TOLERANCE`` of the gates of either intensity."""

    def __init__(self, p: ProtocolParams, link: LinkModel):
        eta = link.eta_sys
        dark = link.detector.dark_prob_per_gate
        self.prep_thr = _prep_thr(p)
        # survivors out of n photons, row n of one table (n = 0 has one
        # bin); row n's n + 1 bins are padded with 2^64 - 1 past its last
        binom = [
            [math.comb(n, m) * eta**m * (1 - eta) ** (n - m) for m in range(n + 1)]
            for n in range(_PHOTON_CAP + 1)
        ]
        self.binom_thr = np.full((_PHOTON_CAP + 1, _PHOTON_CAP + 1), _UINT64_MAX)
        for n, pmf in enumerate(binom):
            self.binom_thr[n, : n + 1] = _cdf_u64(pmf)
        self.binom_zero = self.binom_thr[:, 0].copy()
        # photon number, one row per intensity index (0 signal, 1 decoy)
        pmfs = _photon_pmfs(p)
        for k, pmf in zip(Intensity, pmfs):
            routed_over = math.fsum(
                pmf[n] * math.fsum(binom[n][_MAX_ROUTED + 1 :])
                for n in range(_MAX_ROUTED + 1, _PHOTON_CAP + 1)
            )
            if routed_over > _CAP_TOLERANCE:
                raise ValueError(
                    f"{k.value} intensity {p.mean_photons(k):g}: probability {routed_over:.3g} "
                    f"of more than {_MAX_ROUTED} surviving photons exceeds {_CAP_TOLERANCE:g}"
                )
        self.pois_thr = np.stack([_cdf_u64(pmf) for pmf in pmfs])
        # dark click pattern over the 4 detectors, bitmask-indexed
        self.dark_thr = _cdf_u64(rates.click_patterns(np.full(4, dark)))
        self.prep_guide = _guide(self.prep_thr)
        self.pois_guide = _guide(self.pois_thr)
        self.set_rotation(p, link)
        self.iota = np.arange(0, dtype=_U64)
        self.work = (self.iota, self.iota)

    def reserve(self, n: int) -> None:
        """Grow the work arrays to hold chunks of ``n`` gates."""
        if self.iota.size < n:
            self.iota = np.arange(n, dtype=_U64)
            self.work = (np.empty(n, _U64), np.empty(n, _U64))

    def set_rotation(self, p: ProtocolParams, link: LinkModel) -> None:
        """Recompute the rotation-dependent routing tables only; everything
        else is unchanged by a channel-angle update."""
        # photon routing per (basis, bit) class, after channel rotation
        rho = optics.routing_weights(link.rotation_angle, p.p_z_bob, link.e_mis_z, link.e_mis_x)
        self.route_thr = np.stack([_cdf_u64(w) for w in rho])


def _resolve_clicks(seed, index, cmask, prep, start=0, work=None):
    """Click resolution and sifting for gates with at least one click, the
    gates ``start + index`` (uniforms drawn as by ``_uniforms_u64``).

    ``cmask`` is each gate's 4-bit click pattern and ``prep`` Alice's
    (intensity, basis, bit) choice.  A multi-click gate resolves to one of
    its clicks, drawn uniformly; the chosen detector fixes Bob's basis and
    bit.  Returns the sifted and error tallies per (basis, intensity) cell,
    cell = (basis << 1) | intensity, then the per-gate sifted, error and
    multi-click masks."""
    cpop = _POPCOUNT[cmask]
    kth = np.zeros(index.size, dtype=np.uint8)
    multi = cpop > 1
    if multi.any():
        uc = _uniforms_u64(seed, _SLOT_DCLICK, index[multi], start, work)
        kf = (uc.astype(np.float64) * 2.0**-64 * cpop[multi]).astype(np.int64)
        kth[multi] = np.minimum(kf, cpop[multi] - 1)
    chosen = _CHOICE[cmask, kth]

    abasis = (prep >> 1) & 1  # 0 Z, 1 X
    bob_x = (chosen >= 2).astype(np.uint8)
    sifted = bob_x == abasis
    errors = sifted & ((chosen & 1) != (prep & 1))

    cell = (abasis << 1) | (prep >> 2)
    n_cells = np.bincount(cell[sifted], minlength=4)
    m_cells = np.bincount(cell[errors], minlength=4)
    return n_cells, m_cells, sifted, errors, multi


# A chunk's tallies, one int64 vector that chunks, shards and sessions sum:
# n cells (4), m cells (4), the GroundTruth fields (4), detection gates,
# multi-click gates, detector clicks, then sent (2) and clicked (2) per
# intensity index.  A cell is (basis << 1) | intensity.
_TALLY = 19


def _run_chunk(tables, seed, start, stop, keep_records):
    """Gates ``start .. stop - 1``, each addressed by its offset from
    ``start`` on the tables' work arrays (at least ``stop - start`` long):
    only the gates kept as records are formed.  Returns the ``_TALLY``
    vector and, with ``keep_records``, the (gate, detector, dark) record
    columns, else None."""
    n = stop - start
    every, work = tables.iota[:n], tables.work

    def uniforms(slot, index):
        return _uniforms_u64(seed, slot, index, start, work)

    def draw(thr, guide, slot, row=None):
        # a guided draw over every gate; its entry indices go to the second
        # hash buffer, free once the uniforms are hashed
        return _sample(thr, uniforms(slot, every), row, guide, work[1][:n])

    prep = draw(tables.prep_thr, tables.prep_guide, _SLOT_PREP)
    # photon number from the table of the gate's intensity, prep >> 2
    nph = draw(tables.pois_thr, tables.pois_guide, _SLOT_NPHOT, prep >> 2)

    # gates with at least one surviving photon, and their survivor counts:
    # uniforms at or below P(no survivor | n) fall in bin 0, as every one
    # does at n = 0.  The thresholds go to the free second hash buffer
    # (mode "clip" writes there directly; n <= _PHOTON_CAP is in range).
    us = uniforms(_SLOT_SURV, every)
    act = np.flatnonzero(us > np.take(tables.binom_zero, nph, out=work[1][:n], mode="clip"))
    surv = _sample(tables.binom_thr, us[act], nph[act])
    np.minimum(surv, _MAX_ROUTED, out=surv)

    pclick = np.zeros(n, dtype=np.uint8)
    for j in range(int(surv.max(initial=0))):
        sub = act[surv > j]
        ur = uniforms(_SLOT_ROUTE0 + j, sub)
        # routing class = (basis << 1) | bit, the low bits of prep
        pclick[sub] |= np.uint8(1) << _sample(tables.route_thr, ur, row=prep[sub] & 3)

    # dark click pattern: uniforms at or below P(no dark click) fall in bin 0
    ud = uniforms(_SLOT_DARK, every)
    dark = np.flatnonzero(ud > tables.dark_thr[0])
    dpat = np.zeros(n, dtype=np.uint8)
    dpat[dark] = _sample(tables.dark_thr, ud[dark])

    clicks = pclick | dpat
    any_idx = np.flatnonzero(clicks != 0)
    cmask, prep_any, nph_any = clicks[any_idx], prep[any_idx], nph[any_idx]
    n_cells, m_cells, sifted, errors, multi = _resolve_clicks(
        seed, any_idx, cmask, prep_any, start, work
    )

    abasis = (prep_any >> 1) & 1  # 0 Z, 1 X
    z_sift = sifted & (abasis == 0)
    x_sift = sifted & (abasis == 1)
    decoys = np.count_nonzero(prep >= 4)  # intensity 1, decoy
    # slots, not a list: _POPCOUNT's uint64 sum beside int64 would make floats
    tally = np.empty(_TALLY, np.int64)
    tally[0:4], tally[4:8] = n_cells, m_cells
    tally[8:12] = (
        np.count_nonzero(z_sift & (nph_any == 0)),
        np.count_nonzero(z_sift & (nph_any == 1)),
        np.count_nonzero(x_sift & (nph_any == 1)),
        np.count_nonzero(errors & x_sift & (nph_any == 1)),
    )
    tally[12] = any_idx.size
    tally[13] = np.count_nonzero(multi)
    tally[14] = _POPCOUNT[cmask].sum()
    tally[15:17] = n - decoys, decoys
    tally[17:19] = np.bincount(prep_any >> 2, minlength=2)

    columns = None
    if keep_records:
        # one row per click; row-major nonzero sorts by gate, then detector
        hit, det = np.nonzero((cmask[:, None] >> _DETECTORS) & 1)
        dark_only = dpat[any_idx] & ~pclick[any_idx]
        columns = (any_idx[hit].astype(np.uint64) + start, det.astype(np.uint8),
                   (dark_only[hit] >> det) & 1 == 1)
    return tally, columns


# 2^16 gates keep a chunk's working set in cache; smaller chunks spend
# the time in per-chunk Python glue.  Its uint64 arrays (512 KiB: the gate
# offsets and the two hash buffers) are over glibc's 128 KiB mmap
# threshold, so every fresh one is mapped and page-faulted in; they live
# on _SessionTables and are made once per tables object, not per chunk or
# per stability window.
_DEFAULT_CHUNK = 1 << 16


def _n_threads(explicit: int | None) -> int:
    """Worker process count: ``explicit`` if given, else QKD_THREADS, else
    1.  Raises ValueError on anything but an integer >= 1, and on more than
    one where the "fork" start method is unavailable."""
    if explicit is not None:
        source, value = "n_threads", explicit
    else:
        source, value = "QKD_THREADS", os.environ.get("QKD_THREADS")
        if not value:
            return 1
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{source}={value!r} must be an integer >= 1")
    if n > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"{source}={value!r}: worker processes need the 'fork' start method, "
            "which this platform lacks"
        )
    return n


def _child(job, arg, conn) -> None:
    try:
        reply = (True, job(arg))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)


def _result(proc, conn):
    try:
        ok, value = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"worker process exited with code {proc.exitcode} before sending its result"
        ) from None
    if not ok:
        raise value
    return value


def _in_workers(job, n: int, n_threads: int | None) -> list:
    """``job(block)`` for each of at most ``_n_threads(n_threads)``
    near-equal contiguous blocks of ``range(n)``, ``n >= 1``; returns the
    results in block order.

    A child process is forked for each block after the first, then this
    process runs block 0.  A child inherits ``job`` and everything it refers
    to, so nothing is pickled on the way in; the result, or the exception
    ``job`` raised, is pickled on the way back and re-raised here.  Every
    child is stopped and reaped on return, also when a block raises."""
    parts = min(_n_threads(n_threads), n)
    cuts = [n * k // parts for k in range(parts + 1)]
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    children = []
    try:
        for block in blocks[1:]:
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(job, block, send))
            proc.start()
            # the child holds the only sending end, so its exit ends the pipe
            send.close()
            children.append((proc, recv))
        return [job(blocks[0])] + [_result(proc, recv) for proc, recv in children]
    finally:
        for proc, recv in children:
            proc.terminate()
            proc.join()
            recv.close()


def run_session(
    p: ProtocolParams,
    link: LinkModel,
    seed: int,
    n_pulses: int | None = None,
    keep_records: bool = False,
    record_cap: int = 1_000_000,
    gate_offset: int = 0,
    n_threads: int | None = None,
    chunk_size: int = _DEFAULT_CHUNK,
    _tables: "_SessionTables | None" = None,
) -> SessionResult:
    """Simulate a full session of ``n_pulses`` gates (default: p.n_pulses).

    Deterministic in (seed, params, link, gate_offset) regardless of chunk
    size or worker count.  The gates are ``gate_offset`` onwards; a range
    outside 0 .. 2^64 - 1 raises ValueError.

    With ``n_threads`` (else QKD_THREADS) above 1 the chunks are split into
    that many contiguous shards at most: this process runs the first, a
    forked child process each other one.  Each shard stops once its own
    records pass ``record_cap``; once every shard has returned,
    BudgetExceeded is raised with the number of records kept up to the
    chunk, in gate order, that passes it.
    """
    validate_params(p)
    n_total = int(n_pulses if n_pulses is not None else p.n_pulses)
    if n_total < 1:
        raise ValueError(f"n_pulses={n_total} must be >= 1")
    gate_offset = int(gate_offset)
    if gate_offset < 0 or gate_offset + n_total > 1 << 64:
        raise ValueError(
            f"gates {gate_offset} .. {gate_offset + n_total - 1} are not all in 0 .. 2^64 - 1"
        )
    tables = _tables if _tables is not None else _SessionTables(p, link)
    tables.reserve(min(chunk_size, n_total))
    stop = gate_offset + n_total

    def shard(chunks):
        # a shard stops after the chunk that brings its records past the cap
        total, kept, n_kept = np.zeros(_TALLY, np.int64), [], 0
        for c in chunks:
            s = gate_offset + c * chunk_size
            tally, columns = _run_chunk(tables, seed, s, min(s + chunk_size, stop), keep_records)
            total += tally
            if keep_records:
                kept.append(columns)
                n_kept += columns[0].size
                if n_kept > record_cap:
                    break
        return total, kept

    shards = _in_workers(shard, -(-n_total // chunk_size), n_threads)
    # the cap is checked again in gate order, so the message names the same
    # count for any worker count
    kept, n_kept = [], 0
    for _, shard_kept in shards:
        for columns in shard_kept:
            n_kept += columns[0].size
            if n_kept > record_cap:
                raise BudgetExceeded(f"{n_kept} detection records exceed record cap {record_cap}")
            kept.append(columns)

    total = sum(tally for tally, _ in shards)
    n_cells, m_cells, gt, (gates, multi, clicks), sent, clicked = np.split(
        total, [4, 8, 12, 15, 17])
    return SessionResult(
        counts=_observed(n_cells, m_cells),
        ground_truth=GroundTruth(*(int(c) for c in gt)),
        n_pulses=n_total,
        detection_gates=int(gates),
        multi_click_gates=int(multi),
        detector_clicks=int(clicks),
        sent={Intensity.SIGNAL: int(sent[0]), Intensity.DECOY: int(sent[1])},
        clicked={Intensity.SIGNAL: int(clicked[0]), Intensity.DECOY: int(clicked[1])},
        records=RecordSet(*(np.concatenate(c) for c in zip(*kept))) if keep_records else None,
    )


def pulse_records(p: ProtocolParams, seed: int, gate_indices) -> list[PulseRecord]:
    """Re-derive Alice-side pulse records for specific gates.

    Uses the same counter-based draws as run_session, so tags agree with
    any session run under the same (seed, params)."""
    pois_thr = np.stack([_cdf_u64(pmf) for pmf in _photon_pmfs(p)])
    g = np.asarray(gate_indices, dtype=np.uint64)
    prep = _sample(_prep_thr(p), _uniforms_u64(seed, _SLOT_PREP, g))
    nph = _sample(pois_thr, _uniforms_u64(seed, _SLOT_NPHOT, g), row=prep >> 2)
    return [
        PulseRecord(
            gate_index=int(gi),
            alice_basis=Basis.X if pr >> 1 & 1 else Basis.Z,
            alice_bit=int(pr & 1),
            intensity=Intensity.DECOY if pr >> 2 else Intensity.SIGNAL,
            photon_number=int(k),
        )
        for gi, pr, k in zip(g, prep, nph)
    ]


# --- stability experiment ---------------------------------------------------


@dataclass(frozen=True)
class WindowStats:
    window_start_s: float
    q_mu: float
    q_nu: float
    e_z: float
    e_x: float
    counts: ObservedCounts


def _gauss(seed: int, index: int) -> float:
    """Standard normal from two counter-based uniforms (Box-Muller)."""
    idx = np.array([index], dtype=np.uint64)
    u1 = float(_uniforms_u64(seed, _SLOT_DRIFT_A, idx)[0]) * 2.0**-64
    u2 = float(_uniforms_u64(seed, _SLOT_DRIFT_B, idx)[0]) * 2.0**-64
    u1 = max(u1, 2.0**-64)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def run_stability(
    p: ProtocolParams,
    link: LinkModel,
    drift: DriftModel,
    schedule: Schedule,
    seed: int,
    pulses_per_window: int | None = None,
    n_threads: int | None = None,
) -> list[WindowStats]:
    """Long-run stability experiment: one short measurement window per
    interval, with the channel rotation angle performing a random walk
    between windows.  Returns per-window gains and QBERs.

    With ``n_threads`` (else QKD_THREADS) above 1 the windows are split
    into that many contiguous blocks at most: this process runs the first,
    a forked child process each other one, each window on one worker."""
    ppw = int(pulses_per_window if pulses_per_window is not None else round(schedule.window_s * p.f_rep))
    if ppw < 1:
        raise ValueError(f"pulses_per_window={ppw} must be >= 1")
    step_scale = drift.sigma * math.sqrt(schedule.interval_s)
    thetas = [drift.theta0]
    for w in range(1, schedule.n_windows):
        theta = thetas[-1]
        if step_scale > 0.0:
            theta += step_scale * _gauss(seed, w)
        thetas.append(theta)
    # the sampling tables depend on the angle only through the routing
    # thresholds, so each block reuses them across its windows and
    # refreshes just that part
    tables = _SessionTables(p, replace(link, rotation_angle=thetas[0]))

    def block(windows):
        out = []
        last_theta = thetas[0]
        for w in windows:
            lk = replace(link, rotation_angle=thetas[w])
            if thetas[w] != last_theta:
                tables.set_rotation(p, lk)
                last_theta = thetas[w]
            res = run_session(p, lk, seed, n_pulses=ppw, gate_offset=w * ppw, n_threads=1,
                              _tables=tables)
            (n_z, n_x), (m_z, m_x) = res.counts.sift.sum(axis=1), res.counts.err.sum(axis=1)
            out.append(
                WindowStats(
                    window_start_s=w * schedule.interval_s,
                    q_mu=res.clicked[Intensity.SIGNAL] / max(1, res.sent[Intensity.SIGNAL]),
                    q_nu=res.clicked[Intensity.DECOY] / max(1, res.sent[Intensity.DECOY]),
                    e_z=m_z / n_z if n_z else 0.0,
                    e_x=m_x / n_x if n_x else 0.0,
                    counts=res.counts,
                )
            )
        return out

    return [stats for part in _in_workers(block, len(thetas), n_threads) for stats in part]


# --- detection-record files -------------------------------------------------

_RECORD_HEADER = b"gate_index,detector_id,is_dark\n"
# a row: the gate in decimal (2^64 - 1 has 20 digits), detector, dark flag
_ROW_GRAMMAR = "[0-9]{1,20},[0-3],[01]"
_MAX_DIGITS = 20
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
# a 20-digit gate fits in uint64 iff it leads with 0, or with 1 and the
# other 19 digits are at most this
_TOP_REST = _MASK64 - 10**19
# Rows per block of the writer and of the recount: a block's per-row
# temporaries stay at or under 512 KiB.
_BLOCK_ROWS = 1 << 16
# Bytes per read of a record file.  The reader parses the complete lines of
# each piece together, so beside the columns it holds a few times this.
_READ_BYTES = 1 << 18
# A line longer than this cannot be a row (at most 24 bytes): the reader
# refuses it once it has seen this much of it, and a message quotes no more.
_MAX_LINE = 64
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")


def _format_rows(gate, det, dark) -> np.ndarray:
    """The file bytes of one block of rows, ``f"{gate},{det},{dark:d}\\n"``
    each: digits right-aligned in a fixed-width buffer, then the zero pad
    left of each gate's leading digit masked out."""
    width = len(str(int(gate.max())))
    buf = np.empty((gate.size, width + 5), dtype=np.uint8)
    q, digit = gate.copy(), np.empty_like(gate)
    for col in range(width - 1, -1, -1):
        np.divmod(q, 10, out=(q, digit))
        buf[:, col] = digit
    buf[:, :width] += _ZERO
    buf[:, width] = _COMMA
    buf[:, width + 1] = det + _ZERO
    buf[:, width + 2] = _COMMA
    buf[:, width + 3] = dark.view(np.uint8) + _ZERO
    buf[:, width + 4] = _NEWLINE
    keep = np.ones(buf.shape, dtype=bool)
    for col in range(width - 1):
        np.greater_equal(gate, _POW10[width - 1 - col], out=keep[:, col])
    return buf[keep]


def write_records(records: RecordSet, path: str) -> None:
    """Write a ``RecordSet`` as CSV: the header line
    ``gate_index,detector_id,is_dark``, then one row per record in the
    set's order, matching ``[0-9]{1,20},[0-3],[01]`` (gate without leading
    zeros, detector, dark flag), every line ended by LF.  The bytes are the
    same on every platform.

    The file is written beside ``path`` and renamed onto it once complete,
    so a failed write leaves no partial file; a special file such as
    ``/dev/null`` is written in place.  Raises ValueError for a detector id
    above 3, IoError if the file cannot be written."""
    det = records.detector_id
    if det.size and int(det.max()) > 3:
        raise ValueError(f"detector id {int(det.max())} is not in 0..3")
    special = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if special else f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_RECORD_HEADER)
            for s in range(0, len(records), _BLOCK_ROWS):
                blk = slice(s, s + _BLOCK_ROWS)
                fh.write(_format_rows(records.gate_index[blk], det[blk], records.is_dark[blk]))
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write records to {path}: {exc}") from exc
    finally:
        if not special and os.path.exists(tmp):
            os.unlink(tmp)


def _parse_rows(body: np.ndarray, start: np.ndarray, end: np.ndarray, gate, det, dark):
    """Parse the rows ``body[start:end]`` (no newline) into the gate,
    detector and dark columns ``gate``, ``det`` and ``dark``, one element
    per row.  Returns a mask of rows that match the grammar and a mask of
    gates below 2^64; values of rows outside the grammar are garbage."""

    def at(i):
        # bytes of short rows lie before them, or before the body's start
        return np.take(body, i, mode="clip")

    comma = end - 4  # the comma after the gate of a row that matches
    width = comma - start
    np.subtract(at(comma + 1), _ZERO, out=det)  # uint8: bytes below "0" wrap above 9
    flag = at(comma + 3) - _ZERO
    np.equal(flag, 1, out=dark)
    ok = (width >= 1) & (width <= _MAX_DIGITS) & (det <= 3) & (flag <= 1)
    ok &= (at(comma) == _COMMA) & (at(comma + 2) == _COMMA)
    gate[:] = 0
    fits = np.ones(start.size, dtype=bool)
    for j in range(min(int(width.max()), _MAX_DIGITS)):  # j-th digit from the right
        has = width > j
        d = at(comma - 1 - j) - _ZERO
        ok &= (d <= 9) | ~has
        d[~has] = 0
        if j == _MAX_DIGITS - 1:
            fits = (d == 0) | ((d == 1) & (gate <= _TOP_REST))
        gate += np.multiply(d, _POW10[j], dtype=np.uint64)
    return ok, fits


def _bad_row(row: bytes) -> str:
    shown = repr(row[:_MAX_LINE]) + ("..." if len(row) > _MAX_LINE else "")
    return f"row {shown} does not match {_ROW_GRAMMAR}"


def _count_lines(fh, buf) -> tuple[int, int]:
    """Bytes and non-blank lines from ``fh``'s position, just past a LF, to
    its end, read into ``buf`` ``_READ_BYTES`` at a time; a last line
    without LF counts."""
    size = lines = 0
    last = _NEWLINE
    view = memoryview(buf)[:_READ_BYTES]
    while got := fh.readinto(view):
        size += got
        # a line ends at a LF, and is blank if the byte before is a LF too
        lf = np.frombuffer(buf, np.uint8, got) == _NEWLINE
        lines += int(np.count_nonzero(lf[1:] > lf[:-1])) + bool(lf[0] and last != _NEWLINE)
        last = buf[got - 1]
    return size, lines + (last != _NEWLINE)


def _read_rows(fh, path: str) -> RecordSet:
    """The rows from ``fh``'s position, just past the header, to its end.

    Pass 1 counts the non-blank lines, which sizes the columns.  Pass 2
    parses the complete lines of each piece into them, and carries a
    partial last line over to the front of the next piece."""
    buf = bytearray(_MAX_LINE + _READ_BYTES)
    body_start = fh.tell()
    size, capacity = _count_lines(fh, buf)
    fh.seek(body_start)
    columns = (np.empty(capacity, np.uint64), np.empty(capacity, np.uint8),
               np.empty(capacity, bool))
    n = 0  # rows stored
    line = 2  # file line of the line at buf[0]
    held = seen = 0  # bytes of the partial line at buf[0]; bytes read
    last = None  # (gate, detector) of the last row read
    while True:
        got = fh.readinto(memoryview(buf)[held : held + _READ_BYTES])
        seen += got
        if seen > size or (not got and seen < size):
            raise IoError(f"{path} changed while its records were read")
        end = held + got
        if not got:  # end of file: the last line may lack its LF
            buf[end] = _NEWLINE
            end += 1
        cut = buf.rfind(b"\n", 0, end) + 1
        if cut:
            body = np.frombuffer(buf, np.uint8, cut)
            # body line k, file line line + k, ends at ends[k]
            ends = np.flatnonzero(body == _NEWLINE)
            start = np.empty_like(ends)
            start[0] = 0
            np.add(ends[:-1], 1, out=start[1:])
            rows = np.flatnonzero(ends != start)
            if n + rows.size > capacity:
                raise IoError(f"{path} changed while its records were read")
            if rows.size:
                gate, det, dark = (c[n : n + rows.size] for c in columns)
                ok, fits = _parse_rows(body, start[rows], ends[rows], gate, det, dark)
                later = np.empty(rows.size, dtype=bool)
                later[1:] = (gate[1:] > gate[:-1]) | ((gate[1:] == gate[:-1]) & (det[1:] > det[:-1]))
                later[0] = last is None or (int(gate[0]), int(det[0])) > last
                bad = ~(ok & fits & later)
                if bad.any():
                    k = int(np.argmax(bad))
                    row = body[start[rows[k]] : ends[rows[k]]].tobytes()
                    if not ok[k]:
                        message = _bad_row(row)
                    elif not fits[k]:
                        message = f"gate {row.split(b',')[0].decode()} exceeds 2^64 - 1"
                    else:
                        message = "row not after the previous one in (gate, detector) order"
                    raise FormatError(message, line + int(rows[k]))
                last = (int(gate[-1]), int(det[-1]))
                n += rows.size
            line += ends.size
            del ends, start  # before the next piece makes its own
            buf[: end - cut] = buf[cut:end]
        held = end - cut
        if held > _MAX_LINE:
            raise FormatError(_bad_row(bytes(buf[:held])), line)
        if not got:
            return RecordSet(*(c[:n] for c in columns))


def read_records(
    path: str,
    p: ProtocolParams | None = None,
    link: LinkModel | None = None,
    seed: int | None = None,
) -> tuple[RecordSet, ObservedCounts | None]:
    """Read a detection-record file back.

    The file is the header line ``gate_index,detector_id,is_dark``, then one
    row per line matching ``[0-9]{1,20},[0-3],[01]`` with a gate below 2^64,
    rows strictly increasing in (gate, detector) as ``run_session`` keeps
    them.  Lines end with LF, the last one optionally; blank lines are
    skipped but counted.  Anything else (CR, spaces, signs, non-ASCII
    bytes) raises FormatError naming the file line of the first bad row,
    and quoting at most ``_MAX_LINE`` bytes of it.

    The file is read in pieces of ``_READ_BYTES``, twice: once to count its
    non-blank lines, which sizes the columns at 10 bytes a row, then to
    parse each piece's complete lines into them.  Beside the columns a read
    holds one piece and its per-line temporaries, about 2 MiB for a file
    that ``write_records`` wrote and 4.5 MiB for one of blank lines, and
    the recount as much for its block of ``_BLOCK_ROWS`` rows; neither
    grows with the file.  The file must be
    seekable.  IoError is raised if it cannot be read, or if it changes
    between the two passes.

    When (params, link, seed) of the originating session are supplied, the
    sifted tallies are recomputed by re-deriving Alice's per-gate choices
    and the multi-click resolution from the counter-based streams; they
    equal the original session counts.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_RECORD_HEADER))
            if head == _RECORD_HEADER:
                records = _read_rows(fh, path)
            elif head == _RECORD_HEADER[:-1]:  # the whole file
                records = RecordSet()
            else:
                raise FormatError(f"expected header {_RECORD_HEADER[:-1].decode()!r}", 1)
    except IoError:
        raise
    except OSError as exc:
        raise IoError(f"cannot read records from {path}: {exc}") from exc
    counts = None
    if p is not None and link is not None and seed is not None:
        counts = _counts_from_clicks(records, p, seed)
    return records, counts


def _observed(n_cells, m_cells) -> ObservedCounts:
    # the flat cell (basis << 1) | intensity is ObservedCounts' layout
    return ObservedCounts(n_cells.reshape(2, 2), m_cells.reshape(2, 2))


def _counts_from_clicks(records: RecordSet, p, seed) -> ObservedCounts:
    """Sifted tallies of the session that produced ``records``, which are
    sorted by gate.  Walks the rows in blocks of at most ``_BLOCK_ROWS``,
    each ending at a gate boundary."""
    if len(records) == 0:
        return ObservedCounts()
    prep_thr = _prep_thr(p)
    prep_guide = _guide(prep_thr)
    g = records.gate_index
    n_cells, m_cells = np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
    s = 0
    while s < g.size:
        e = min(s + _BLOCK_ROWS, g.size)
        if e < g.size:
            # end before the rows of the gate that row e belongs to, unless
            # the block holds nothing else
            cut = s + int(np.searchsorted(g[s:e], g[e]))
            e = cut if cut > s else s + int(np.searchsorted(g[s:], g[e], side="right"))
        block = g[s:e]
        first = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1])))
        gates = block[first]
        cmask = np.bitwise_or.reduceat(np.uint8(1) << records.detector_id[s:e], first)
        del first  # freed before the hashing, where the block peaks
        prep = _sample(prep_thr, _uniforms_u64(seed, _SLOT_PREP, gates), guide=prep_guide)
        n, m, *_ = _resolve_clicks(seed, gates, cmask, prep)
        n_cells += n
        m_cells += m
        s = e
    return _observed(n_cells, m_cells)
