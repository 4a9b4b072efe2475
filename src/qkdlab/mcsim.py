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

import functools
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


class RecordSet:
    """Column store of detection records (one row per detector click)."""

    def __init__(self, gate_index=None, detector_id=None, is_dark=None):
        self.gate_index = np.asarray(gate_index if gate_index is not None else [], dtype=np.uint64)
        self.detector_id = np.asarray(detector_id if detector_id is not None else [], dtype=np.uint8)
        self.is_dark = np.asarray(is_dark if is_dark is not None else [], dtype=bool)

    def __len__(self) -> int:
        return len(self.gate_index)

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
    # every stream folds its seed here: refuse one that would alias mod 2^64
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is not in 0 .. 2^64 - 1")
    return _mix_scalar(seed ^ _mix_scalar(slot * 0xD1B54A32D192ED03))


def _folded_key(seed: int, slot: int) -> int:
    """The stream key plus the golden gamma mod 2^64: the hash input of
    gate 0, to which a gate's index is added."""
    return (_stream_key(seed, slot) + _MIX_GOLD) & _MASK64


_NP_M1, _NP_M2 = _U64(_MIX_M1), _U64(_MIX_M2)
_RUN = 1 << 30  # the first xorshift's x >> 30 is constant on aligned runs of this many


def _hash_buffers(n: int, work):
    # the first n of each work buffer, or new buffers past their length
    if work is None or work[0].size < n:
        work = (np.empty(n, _U64), np.empty(n, _U64))
    return work[0][:n], work[1][:n]


def _mix(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer's rounds after its first xorshift and
    before its last, in place on ``x``, with ``t`` as scratch: the
    unfinished hash, whose uniform is u = x ^ (x >> 31) (``_finish``).
    u's top 31 bits are x's."""
    x *= _NP_M1
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _NP_M2
    return x


def _finish(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """The finalizer's last xorshift, in place on ``x``, with ``t`` as
    scratch if given: x becomes its uniform."""
    x ^= np.right_shift(x, 31, out=t)
    return x


def _hashes_at(c: int, index: np.ndarray, work=None) -> np.ndarray:
    """Unfinished hashes (see ``_mix``) of the inputs ``c + index`` mod
    2^64, ``index`` an int64 or uint64 array.  With ``work``, a pair of
    uint64 buffers at least ``index.size`` long, the result is a view of
    the first buffer, valid until the next call on it; without, or with
    shorter ones, it is a new array."""
    x, t = _hash_buffers(index.size, work)
    np.add(index.view(_U64), c & _MASK64, out=x)
    np.right_shift(x, 30, out=t)
    x ^= t
    return _mix(x, t)


def _uniforms_at(c: int, index: np.ndarray, work=None) -> np.ndarray:
    """64-bit uniforms of the hash inputs ``c + index`` mod 2^64: the
    splitmix64 finalizer, computed in place as ``_hashes_at`` is."""
    work = _hash_buffers(index.size, work)
    return _finish(_hashes_at(c, index, work), work[1])


@functools.cache
def _offsets() -> np.ndarray:
    """The offsets 0 .. 4,095, made on first use: a process that never
    simulates allocates nothing here at import, which would shift the
    heap that the optimizer's large arrays come and go from."""
    block = np.arange(1 << 12, dtype=_U64)
    block.flags.writeable = False
    return block


def _hashes_range(c: int, n: int, work=None) -> np.ndarray:
    """``_hashes_at(c, index, work)`` for the offsets ``index`` = 0, 1,
    ..., n - 1, written into the first buffer: ``_offsets()`` plus c, then
    each filled prefix plus its length after it.  The inputs x = c + index
    mod 2^64 share x >> 30 on each run between multiples of 2^30, so the
    first xorshift is one XOR with that constant per run: one run, or two,
    for a chunk of up to 2^30 gates."""
    x, t = _hash_buffers(n, work)
    c &= _MASK64
    block = _offsets()
    m = min(n, block.size)
    np.add(block[:m], c, out=x[:m])
    while m < n:
        k = min(m, n - m)
        np.add(x[:k], _U64(m), out=x[m : m + k])
        m += k
    a = 0
    while a < x.size:
        v = (c + a) & _MASK64
        b = a + _RUN - (v & (_RUN - 1))
        x[a:b] ^= _U64(v >> 30)
        a = b
    return _mix(x, t)


_UINT64_MAX = _U64(_MASK64)


def _cdf_u64(probs) -> np.ndarray:
    """Cumulative thresholds on the 64-bit lattice, of one pmf or of each
    row of a 2-D ``probs``; each last bin absorbs the rounding remainder."""
    cum = np.clip(np.cumsum(np.asarray(probs, dtype=np.float64), axis=-1), 0.0, 1.0)
    scaled = cum * float(2**64)
    thr = np.empty(cum.shape, dtype=np.uint64)
    top = scaled >= float(2**64)
    thr[~top] = scaled[~top].astype(np.uint64)
    thr[top] = _UINT64_MAX
    thr[..., -1] = _UINT64_MAX
    return thr


# A guide table splits the uniforms into 2^12 buckets by their top bits; an
# entry holds the bin of its bucket, or _SPLIT where a threshold cuts it.
_GUIDE_BITS = 12
_GUIDE_SHIFT = 64 - _GUIDE_BITS
_SPLIT = 255


class _Draw:
    """A draw from the thresholds ``thr`` (``_cdf_u64``): one table, or one
    per row of a 2-D ``thr``, each of fewer than 255 bins.  The bin of a
    uniform is the number of thresholds below it, which is
    ``np.searchsorted(thr, u, side="left")``, as uint8; with a 2-D ``thr``,
    ``row`` picks the table of each uniform.

    It holds the sparse-draw width of each table (``below``, the number of
    its thresholds below 2^64 - 1), the bits of a row index (``bits``),
    and, made with ``guided`` for the draws over every gate, the guide
    table (``guide``): entry ``bucket << bits | row``, the rows padded to
    2^bits, so that a shift, not a product, makes the entry index.  Bucket
    c holds the uniforms c 2^52 .. (c + 1) 2^52 - 1; the bin rises past
    each threshold t, so the bucket is split iff c 2^52 <= t < (c + 1)
    2^52 - 1.  Both draws, ``bins`` and ``guided``, are exact."""

    def __init__(self, thr: np.ndarray, guided: bool = False):
        rows = np.atleast_2d(thr)
        self.thr = thr
        self.below = np.count_nonzero(thr < _UINT64_MAX, axis=-1)
        self.bits = (len(rows) - 1).bit_length()
        self.guide = None
        if guided:
            lo = np.arange(1 << _GUIDE_BITS, dtype=_U64) << _U64(_GUIDE_SHIFT)
            hi = lo | _U64((1 << _GUIDE_SHIFT) - 1)
            guide = np.full((lo.size, 1 << self.bits), _SPLIT, dtype=np.uint8)
            for r, table in enumerate(rows):
                first = np.searchsorted(table, lo)
                guide[:, r] = np.where(first == np.searchsorted(table, hi), first, _SPLIT)
            self.guide = guide.ravel()

    def bins(self, u: np.ndarray, row=None) -> np.ndarray:
        """The bins of the uniforms ``u``, for sparse draws and the guide's
        fix-up: with one table, its binary search; with one per row, one
        comparison of each uniform with its table's threshold per column,
        up to the last one below 2^64 - 1 in any table drawn from (no
        uniform exceeds 2^64 - 1, the last threshold and the padding of
        every table)."""
        if row is None:
            return np.searchsorted(self.thr, u).astype(np.uint8)
        out = np.zeros(u.size, dtype=np.uint8)
        for column in self.thr.T[: np.take(self.below, row).max(initial=0)]:
            out += u > column.take(row)
        return out

    def guided(self, x: np.ndarray, row=None, scratch=None, out=None) -> np.ndarray:
        """The bins of the unfinished hashes ``x`` (see ``_mix``), whose top
        bits are the uniforms', with the guide: the bin is the entry of the
        uniform's bucket, and only the hashes in split buckets (about 0.2 %
        of them) are finished and drawn by ``bins``.  ``scratch``, a uint64
        buffer as long as ``x`` if given, holds the entry indices, and
        ``out``, a uint8 array as long, the bins if given."""
        idx = np.right_shift(x, _GUIDE_SHIFT, out=scratch)
        if row is not None:
            idx <<= self.bits
            idx += row
        # every index is in range; "wrap" is the fastest mode that skips
        # take's bounds error
        out = np.take(self.guide, idx.view(np.int64), mode="wrap", out=out)
        split = np.flatnonzero(out == _SPLIT)
        out[split] = self.bins(_finish(x[split]), None if row is None else row[split])
        return out


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

# clicks of each pattern of rates._FIRES, and its k-th click at _CHOICE[s, k]
# for k below that count: the detectors that rates._SHARE resolves it to
_POPCOUNT = rates._FIRES.sum(axis=1).astype(np.uint8)
_CHOICE = np.argsort(~rates._FIRES, axis=1, kind="stable").astype(np.uint8)


def _prep_draw(p: ProtocolParams) -> _Draw:
    """Alice's joint (intensity, basis, bit) choice from
    ``rates.preparation_weights``, index = (k << 2) | (basis << 1) | bit,
    guided: it is drawn over every gate."""
    return _Draw(_cdf_u64(rates.preparation_weights(p).T.ravel()), guided=True)


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
    chunk work arrays and stream keys of every session run on them.

    The tables are five draws (``_Draw``): ``prep`` and ``pois``, drawn
    over every gate and so guided, and ``binom``, ``dark`` and ``route``,
    drawn sparse, beside ``binom_zero``, each row's P(no survivor).
    ``set_rotation`` rebuilds only ``route``, so the guides are made once.
    The work arrays are ``work``, one pair of uint64 hash buffers as long
    as the largest chunk run on the tables, up to ``_PIECE`` gates (a
    longer chunk runs its draws over every gate in pieces,
    ``_run_chunk``): a process runs one chunk at a time, and a forked
    worker writes to its own copy.  ``reserve`` grows them.  They live
    exactly as long as the tables, so the windows of a stability run,
    which share one set, map and fault them in once.  ``keys`` folds the
    stream keys of a seed once, for every chunk and window run with it.

    Raises ValueError if the photon or routed-photon cap would clip more
    than ``_CAP_TOLERANCE`` of the gates of either intensity."""

    def __init__(self, p: ProtocolParams, link: LinkModel):
        eta = link.eta_sys
        dark = link.detector.dark_prob_per_gate
        self.prep = _prep_draw(p)
        # survivors out of n photons, row n of one table (n = 0 has one
        # bin); row n's n + 1 bins are padded with 2^64 - 1 past its last
        binom = [
            [math.comb(n, m) * eta**m * (1 - eta) ** (n - m) for m in range(n + 1)]
            for n in range(_PHOTON_CAP + 1)
        ]
        thr = np.full((_PHOTON_CAP + 1, _PHOTON_CAP + 1), _UINT64_MAX)
        for n, pmf in enumerate(binom):
            thr[n, : n + 1] = _cdf_u64(pmf)
        self.binom, self.binom_zero = _Draw(thr), thr[:, 0].copy()
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
        self.pois = _Draw(_cdf_u64(pmfs), guided=True)
        # dark click pattern over the 4 detectors, bitmask-indexed
        self.dark = _Draw(_cdf_u64(rates.click_patterns(np.full(4, dark))))
        self.set_rotation(p, link)
        self.work = (np.empty(0, _U64),) * 2
        self._seed, self._keys = None, None

    def reserve(self, n: int) -> None:
        """Grow the work arrays to hold ``n`` gates."""
        if self.work[0].size < n:
            self.work = (np.empty(n, _U64), np.empty(n, _U64))

    def keys(self, seed: int) -> list[int]:
        """``_folded_key(seed, slot)`` of every slot below the last routing
        slot, made once per seed in a row."""
        if self._seed != seed:
            self._keys = [_folded_key(seed, s) for s in range(_SLOT_ROUTE0 + _MAX_ROUTED)]
            self._seed = seed
        return self._keys

    def set_rotation(self, p: ProtocolParams, link: LinkModel) -> None:
        """Recompute the rotation-dependent routing tables only; everything
        else is unchanged by a channel-angle update."""
        # photon routing per (basis, bit) class, after channel rotation
        rho = optics.routing_weights(link.rotation_angle, p.p_z_bob, link.e_mis_z, link.e_mis_x)
        self.route = _Draw(_cdf_u64(rho))


def _resolve_clicks(key, index, cmask, prep, start=0, work=None):
    """Click resolution and sifting for gates with at least one click, the
    gates ``start + index``; ``key`` is the click-choice slot's
    ``_folded_key``.

    ``cmask`` is each gate's 4-bit click pattern and ``prep`` Alice's
    (intensity, basis, bit) choice.  A gate resolves to one of its clicks
    as ``rates._SHARE`` has it, drawn uniformly, and is sifted and errs as
    ``rates._SIFTED`` has it.  Returns the sifted and error tallies per
    (basis, intensity) cell, cell = (basis << 1) | intensity, then the
    per-gate sifted, error and multi-click masks."""
    cpop = _POPCOUNT[cmask]
    kth = np.zeros(index.size, dtype=np.uint8)
    multi = cpop > 1
    if multi.any():
        uc = _uniforms_at(key + start, index[multi], work)
        kf = (uc.astype(np.float64) * 2.0**-64 * cpop[multi]).astype(np.int64)
        kth[multi] = np.minimum(kf, cpop[multi] - 1)
    # _CHOICE[cmask, kth] and rates._SIFTED[:, prep & 3, chosen] at flat
    # indices: a take is several times faster than a fancy index by uint8s
    chosen = _CHOICE.take(cmask << 2 | kth)
    sifted, errors = rates._SIFTED.reshape(2, 16).take((prep & 3) << 2 | chosen, axis=1)

    cell = prep & 2 | prep >> 2  # (basis << 1) | intensity
    n_cells = np.bincount(cell[sifted], minlength=4)
    m_cells = np.bincount(cell[errors], minlength=4)
    return n_cells, m_cells, sifted, errors, multi


# A chunk's tallies, one int64 vector that chunks, shards and sessions sum:
# n cells (4), m cells (4), the GroundTruth fields (4), detection gates,
# multi-click gates, detector clicks, then sent (2) and clicked (2) per
# intensity index.  A cell is (basis << 1) | intensity.
_TALLY = 19


def _above(x: np.ndarray, thr: int):
    """The offsets, and the uniforms, of the unfinished hashes ``x`` whose
    uniform u exceeds ``thr``.  u's top 31 bits are x's, so u > thr holds
    where x >> 33 > thr >> 33 and fails where it is below: only the hashes
    at or above ``(thr >> 33) << 33`` are finished and compared."""
    cand = np.flatnonzero(x >= _U64(thr >> 33 << 33))
    u = _finish(x[cand])
    over = u > thr
    return cand[over], u[over]


def _survivors(tables, key, nph, work):
    """The offsets of the gates with at least one surviving photon, and
    their survivor counts, at most ``_MAX_ROUTED``; ``key`` is the survival
    slot's ``_folded_key`` plus the chunk's first gate.

    Only the gates with photons are hashed: a gate without one has no
    survivor, its bin-0 threshold being 2^64 - 1.  Their photon counts
    pass as intp through the second hash buffer, free once the uniforms
    are made, and the threshold gather writes over them in place (each
    index is read before its element is written), so it makes no intp
    copy; uniforms at or below P(no survivor | n) fall in bin 0."""
    lit = np.flatnonzero(nph != 0)  # of the bool mask: several times faster
    work = _hash_buffers(lit.size, work)
    us = _uniforms_at(key, lit, work)
    n_lit = nph.take(lit)
    rows = work[1]
    rows.view(np.intp)[...] = n_lit
    # survivors by index, not by bool mask: a masked copy scans the whole
    # mask each time
    live = np.flatnonzero(us > np.take(tables.binom_zero, rows.view(np.intp), out=rows,
                                       mode="clip"))
    act, u, n_live = lit.take(live), us.take(live), n_lit.take(live)
    del lit, n_lit, live  # before the survivor counts, where the chunk peaks
    surv = tables.binom.bins(u, n_live)
    return act, np.minimum(surv, _MAX_ROUTED, out=surv)


def _photon_clicks(tables, keys, start, act, surv, cls):
    """The photon click pattern of each gate ``start + act``, from its
    ``surv`` survivors and its routing class ``cls`` = (basis << 1) | bit.
    Photon j of a gate is routed by routing slot j, drawn at once for
    every gate with more than j survivors: slot 0 for all of them, and
    each later slot for the few gates left.  A gate's pattern ORs its
    photons' clicks."""

    def clicks(j, gates, c):
        u = _uniforms_at(keys[_SLOT_ROUTE0 + j] + start, gates)
        return np.uint8(1) << tables.route.bins(u, c)

    pclick = clicks(0, act, cls)
    left = np.flatnonzero(surv > 1)  # the gates with more than j survivors
    for j in range(1, int(surv.max(initial=0))):
        pclick[left] |= clicks(j, act.take(left), cls.take(left))
        left = left.take(np.flatnonzero(surv.take(left) > j + 1))
    return pclick


def _every_gate(tables, keys, start, prep, nph):
    """The draws over every gate of gates ``start .. start + prep.size -
    1``, a piece no longer than the tables' hash buffers: Alice's choice
    into ``prep`` and the photon number into ``nph``.  Returns the decoy
    count, then the offsets and the uniforms of the gates past P(no dark
    click)."""
    n, work = prep.size, tables.work

    def draw(d, slot, row, out):
        # a guided draw on the unfinished hashes; its entry indices go to
        # the second hash buffer, free once the hashes are made
        return d.guided(_hashes_range(keys[slot] + start, n, work), row, work[1][:n], out)

    draw(tables.prep, _SLOT_PREP, None, prep)
    # photon number from the table of the gate's intensity, prep >> 2 (1 is
    # the decoy)
    decoy = prep >> 2
    draw(tables.pois, _SLOT_NPHOT, decoy, nph)
    # dark click pattern: uniforms at or below P(no dark click) fall in bin 0
    return (np.count_nonzero(decoy),
            *_above(_hashes_range(keys[_SLOT_DARK] + start, n, work), int(tables.dark.thr[0])))


def _run_chunk(tables, keys, start, stop, keep_records):
    """Gates ``start .. stop - 1``, each addressed by its offset from
    ``start``: only the gates kept as records are formed.  The draws over
    every gate run in near-equal pieces of at most ``_PIECE`` gates
    (``_every_gate``), which the tables' hash buffers must hold, and the
    sparse draws once over the chunk.  ``keys`` is ``tables.keys(seed)``.
    Returns the ``_TALLY`` vector and, with ``keep_records``, the (gate,
    detector, dark) record columns, else None."""
    n = stop - start
    prep, nph = np.empty(n, np.uint8), np.empty(n, np.uint8)
    k = -(-n // _PIECE)
    cuts = [n * j // k for j in range(k + 1)]
    decoys, dark, ud = 0, [], []
    for a, b in zip(cuts, cuts[1:]):
        d, off, u = _every_gate(tables, keys, start + a, prep[a:b], nph[a:b])
        decoys += d
        dark.append(off + a)
        ud.append(u)
    dark, ud = np.concatenate(dark), np.concatenate(ud)

    act, surv = _survivors(tables, keys[_SLOT_SURV] + start, nph, tables.work)
    # routing class = (basis << 1) | bit, the low bits of prep
    pclick = _photon_clicks(tables, keys, start, act, surv, prep.take(act) & 3)
    dpat = tables.dark.bins(ud)

    # the clicked gates: the dark gates without photon clicks inserted in
    # order among the gates with them, on arrays as long as these, not the
    # chunk
    at = np.searchsorted(act, dark)
    new = at == act.size
    new[~new] = act[at[~new]] != dark[~new]
    pos = at[new] + np.arange(np.count_nonzero(new))  # their places
    keep = np.ones(act.size + pos.size, dtype=bool)
    keep[pos] = False
    any_idx = np.empty(keep.size, dtype=act.dtype)
    any_idx[pos], any_idx[keep] = dark[new], act
    cmask = np.zeros(keep.size, dtype=np.uint8)
    cmask[keep] = pclick
    at = np.searchsorted(any_idx, dark)
    dark_only = dpat & ~cmask[at]
    cmask[at] |= dpat
    prep_any, nph_any = prep.take(any_idx), nph.take(any_idx)
    n_cells, m_cells, sifted, errors, multi = _resolve_clicks(
        keys[_SLOT_DCLICK], any_idx, cmask, prep_any, start, tables.work
    )

    # slots, not a list: _POPCOUNT's uint64 sum beside int64 would make floats
    tally = np.empty(_TALLY, np.int64)
    tally[0:4], tally[4:8] = n_cells, m_cells
    # ground truth: sifted Z gates of 0 and 1 photons, X of 1, X errors of 1
    x, one = prep_any & 2 == 2, nph_any == 1
    z_sift, x_one = sifted & ~x, x & one
    tally[8:12] = [np.count_nonzero(g) for g in
                   (z_sift & (nph_any == 0), z_sift & one, sifted & x_one, errors & x_one)]
    tally[12] = any_idx.size
    tally[13] = np.count_nonzero(multi)
    tally[14] = _POPCOUNT[cmask].sum()
    tally[15:17] = n - decoys, decoys
    tally[17:19] = np.bincount(prep_any >> 2, minlength=2)

    columns = None
    if keep_records:
        # one row per click; row-major nonzero sorts by gate, then detector.
        # rates._FIRES[s, d] is taken at its flat index (s << 2) | d; the
        # dark gates are among any_idx, in order
        hit, det = np.nonzero(rates._FIRES.take(cmask, axis=0))
        only = np.zeros(any_idx.size, dtype=np.uint8)
        only[at] = dark_only
        columns = (any_idx[hit].astype(np.uint64) + start, det.astype(np.uint8),
                   rates._FIRES.ravel().take(only[hit] << 2 | det))
    return tally, columns


# The least chunk size: run_session runs max(1, n // 2^16) near-equal
# chunks of 2^16 to 2^17 - 1 gates, so no chunk is a short tail and a
# 1e5-pulse stability window is one chunk, not a 2^16-gate chunk and a
# 34,464-gate tail that paid a second chunk's sparse draws, click
# resolution and glue.  Smaller chunks spend the time in per-chunk Python
# glue.  In-process medians on a 2-vCPU Xeon (numpy 2.4.6), chunks of
# 2^15 / 2^16 / 2^17 gates alternated, ranges over two runs: a 2^22-pulse
# session 138-152 / 123-133 / 120-126 ms back-to-back and 112-128 /
# 102-112 / 103-107 ms at 14.6 dB.
_DEFAULT_CHUNK = 1 << 16
# A chunk's draws over every gate run in near-equal pieces of at most this
# many gates, the length of the two uint64 hash buffers: a chunk of up to
# 2^17 - 1 gates holds the 1 MiB of buffers of a 2^16-gate one, not up to
# twice that.  The buffers are over glibc's 128 KiB mmap threshold, so
# every fresh one is mapped and page-faulted in; they live on
# _SessionTables and are made once per tables object, not per chunk or
# per stability window.
_PIECE = 1 << 16


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

    ``chunk_size``, at least 1, is the least chunk size: the gates run as
    ``max(1, n_pulses // chunk_size)`` near-equal contiguous chunks, each
    of ``chunk_size`` to ``2 * chunk_size - 1`` gates (one chunk of all of
    them if there are fewer), so no chunk is a short tail.

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
    if chunk_size < 1:
        raise ValueError(f"chunk_size={chunk_size} must be >= 1")
    n_chunks = max(1, n_total // chunk_size)
    tables = _tables if _tables is not None else _SessionTables(p, link)
    tables.reserve(min(-(-n_total // n_chunks), _PIECE))
    keys = tables.keys(seed)

    def shard(chunks):
        # a shard stops after the chunk that brings its records past the cap
        total, kept, n_kept = np.zeros(_TALLY, np.int64), [], 0
        for c in chunks:
            tally, columns = _run_chunk(tables, keys, gate_offset + n_total * c // n_chunks,
                                        gate_offset + n_total * (c + 1) // n_chunks, keep_records)
            total += tally
            if keep_records:
                kept.append(columns)
                n_kept += columns[0].size
                if n_kept > record_cap:
                    break
        return total, kept

    shards = _in_workers(shard, n_chunks, n_threads)
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
    # slices and a list, not np.split, whose glue took about 15 us of a
    # 1e5-pulse window
    *gt, gates, multi, clicks, sent_mu, sent_nu, clicked_mu, clicked_nu = total[8:].tolist()
    return SessionResult(
        counts=_observed(total[0:4], total[4:8]),
        ground_truth=GroundTruth(*gt),
        n_pulses=n_total,
        detection_gates=gates,
        multi_click_gates=multi,
        detector_clicks=clicks,
        sent={Intensity.SIGNAL: sent_mu, Intensity.DECOY: sent_nu},
        clicked={Intensity.SIGNAL: clicked_mu, Intensity.DECOY: clicked_nu},
        records=RecordSet(*(np.concatenate(c) for c in zip(*kept))) if keep_records else None,
    )


def pulse_records(p: ProtocolParams, seed: int, gate_indices) -> list[PulseRecord]:
    """Re-derive Alice-side pulse records for specific gates.

    Uses the same counter-based draws as run_session, so tags agree with
    any session run under the same (seed, params)."""
    pois = _Draw(_cdf_u64(_photon_pmfs(p)), guided=True)
    g = np.asarray(gate_indices, dtype=np.uint64)
    prep = _prep_draw(p).guided(_hashes_at(_folded_key(seed, _SLOT_PREP), g))
    nph = pois.guided(_hashes_at(_folded_key(seed, _SLOT_NPHOT), g), prep >> 2)
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
    u1 = float(_uniforms_at(_folded_key(seed, _SLOT_DRIFT_A), idx)[0]) * 2.0**-64
    u2 = float(_uniforms_at(_folded_key(seed, _SLOT_DRIFT_B), idx)[0]) * 2.0**-64
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
# Rows per block of the writer and of the recount.  A block's temporaries
# grow with its rows and, for the writer, with the gates' digits: its
# digit buffer, keep mask, quotient and digit columns and packed bytes took
# 3.26 MiB beside the 2.38 MiB of columns of 249,964 rows of 7-digit
# gates, the recount 1.94 MiB (tracemalloc peaks).
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


def _later(gate, det, last) -> np.ndarray:
    """Mask of the rows after the row before them in (gate, detector)
    order; ``last`` is the (gate, detector) before the first, or None."""
    later = np.empty(gate.size, dtype=bool)
    later[1:] = (gate[1:] > gate[:-1]) | ((gate[1:] == gate[:-1]) & (det[1:] > det[:-1]))
    later[0] = last is None or (int(gate[0]), int(det[0])) > last
    return later


def write_records(records: RecordSet, path: str) -> None:
    """Write a ``RecordSet`` as CSV: the header line
    ``gate_index,detector_id,is_dark``, then one row per record in the
    set's order, matching ``[0-9]{1,20},[0-3],[01]`` (gate without leading
    zeros, detector, dark flag), every line ended by LF: the file that
    ``read_records`` reads.  The bytes are the same on every platform.

    The file is written beside ``path`` and renamed onto it once complete,
    so a failed write leaves no partial file and an existing one as it
    was; a special file such as ``/dev/null`` is written in place.  Raises
    ValueError for a detector id above 3 or for records not strictly
    increasing in (gate, detector), as ``run_session`` keeps them; IoError
    if the file cannot be written."""
    det = records.detector_id
    if det.size and int(det.max()) > 3:
        raise ValueError(f"detector id {int(det.max())} is not in 0..3")
    special = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if special else f"{path}.{os.getpid()}.tmp"
    last = None  # (gate, detector) of the last row written
    try:
        with open(tmp, "wb") as fh:
            fh.write(_RECORD_HEADER)
            for s in range(0, len(records), _BLOCK_ROWS):
                blk = slice(s, s + _BLOCK_ROWS)
                gate, d = records.gate_index[blk], det[blk]
                later = _later(gate, d, last)
                if not later.all():
                    k = int(np.argmin(later))
                    raise ValueError(f"record {s + k} (gate {int(gate[k])}, detector {int(d[k])}) "
                                     f"is not after the one before it in (gate, detector) order")
                last = (int(gate[-1]), int(d[-1]))
                fh.write(_format_rows(gate, d, records.is_dark[blk]))
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
    """Bytes and LFs from ``fh``'s position to its end, read into ``buf``
    ``_READ_BYTES`` at a time."""
    size = lines = 0
    view = memoryview(buf)[:_READ_BYTES]
    while got := fh.readinto(view):
        size += got
        lines += int(np.count_nonzero(np.frombuffer(buf, np.uint8, got) == _NEWLINE))
    return size, lines


def _read_rows(fh, path: str) -> RecordSet:
    """The rows from ``fh``'s position, just past the header, to its end.

    Pass 1 counts the LFs, each of which ends a row, which sizes the
    columns.  Pass 2 parses the complete lines of each piece into them, and
    carries a partial last line over to the front of the next piece."""
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
        cut = buf.rfind(b"\n", 0, end) + 1
        if cut:
            body = np.frombuffer(buf, np.uint8, cut)
            ends = np.flatnonzero(body == _NEWLINE)
            rows = ends.size
            if n + rows > capacity:
                raise IoError(f"{path} changed while its records were read")
            start = np.empty_like(ends)
            start[0] = 0
            start[1:] = ends[:-1] + 1
            gate, det, dark = (c[n : n + rows] for c in columns)
            ok, fits = _parse_rows(body, start, ends, gate, det, dark)
            bad = ~(ok & fits & _later(gate, det, last))
            if bad.any():
                k = int(np.argmax(bad))
                row = body[start[k] : ends[k]].tobytes()
                if not ok[k]:
                    message = _bad_row(row)
                elif not fits[k]:
                    message = f"gate {row.split(b',')[0].decode()} exceeds 2^64 - 1"
                else:
                    message = "row not after the previous one in (gate, detector) order"
                raise FormatError(message, line + k)
            last = (int(gate[-1]), int(det[-1]))
            n += rows
            line += rows
            del ends, start  # before the next piece makes its own
            buf[: end - cut] = buf[cut:end]
        held = end - cut
        if held > _MAX_LINE:
            raise FormatError(_bad_row(bytes(buf[:held])), line)
        if not got:
            if held:
                raise FormatError("last line does not end with LF", line)
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
    them, every line ended by LF: the file that ``write_records`` writes.
    Anything else (a blank line, a last line without LF, CR, spaces, signs,
    non-ASCII bytes) raises FormatError naming the file line of the first
    bad row, and quoting at most ``_MAX_LINE`` bytes of it.

    The file, which must be seekable, is read in pieces of ``_READ_BYTES``,
    twice: once to count its LFs, one a row, which sizes the columns at 10
    bytes a row, then to parse each piece's complete lines into them.
    Beside the columns a read holds one piece and the offsets of its rows,
    about 1.5 MiB for a file that ``write_records`` wrote, and the recount
    about 2 MiB for its block of ``_BLOCK_ROWS`` rows; neither grows with
    the file.  IoError is raised if it cannot be read, or if it changes
    between the two passes.

    When the params ``p`` and ``seed`` of the originating session are
    supplied, the sifted tallies are recomputed by re-deriving Alice's
    per-gate choices and the multi-click resolution from the counter-based
    streams; they equal the original session counts.  The recount does not
    read ``link``, which is accepted for callers that pass it positionally.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_RECORD_HEADER)) != _RECORD_HEADER:
                raise FormatError(f"expected header {_RECORD_HEADER.decode()!r}", 1)
            records = _read_rows(fh, path)
    except IoError:
        raise
    except OSError as exc:
        raise IoError(f"cannot read records from {path}: {exc}") from exc
    counts = None
    if p is not None and seed is not None:
        counts = _counts_from_clicks(records, p, seed)
    return records, counts


def _observed(n_cells, m_cells) -> ObservedCounts:
    # the flat cell (basis << 1) | intensity is ObservedCounts' layout
    return ObservedCounts(n_cells.reshape(2, 2), m_cells.reshape(2, 2))


def _counts_from_clicks(records: RecordSet, p, seed) -> ObservedCounts:
    """Sifted tallies of the session that produced ``records``, which are
    sorted by gate.  Walks the rows in blocks of at most ``_BLOCK_ROWS``,
    each ending at a gate boundary."""
    prep_key, click_key = _folded_key(seed, _SLOT_PREP), _folded_key(seed, _SLOT_DCLICK)
    if len(records) == 0:
        return ObservedCounts()
    prep_draw = _prep_draw(p)
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
        prep = prep_draw.guided(_hashes_at(prep_key, gates))
        n, m, *_ = _resolve_clicks(click_key, gates, cmask, prep)
        n_cells += n
        m_cells += m
        s = e
    return _observed(n_cells, m_cells)
