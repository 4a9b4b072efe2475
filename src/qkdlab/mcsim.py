"""Pulse-level Monte Carlo engine for the one-decoy protocol.

Alice's preparation, the channel, and Bob's passive receiver are simulated
gate by gate.  All randomness is counter-based: every decision for gate g
is a pure function of (seed, g, decision slot), so results are identical
for any chunking or thread count and sessions can be re-derived after the
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
import os
from concurrent.futures import ThreadPoolExecutor
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
from . import optics


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
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class Schedule:
    """Stability-measurement schedule: short windows at a fixed interval."""

    window_s: float = 5.0
    interval_s: float = 300.0
    duration_h: float = 48.0

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.interval_s <= 0 or self.duration_h <= 0:
            raise ValueError("schedule durations must be positive")

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


def _uniforms_u64(seed: int, slot: int, index: np.ndarray) -> np.ndarray:
    """64-bit uniforms for (seed, slot, index); pure and order-independent.

    The splitmix64 finalizer of (index + key), computed in place."""
    # fold key + golden gamma mod 2^64 as a Python int: the sum of two
    # np.uint64 scalars would raise an overflow warning
    x = index + ((_stream_key(seed, slot) + _MIX_GOLD) & _MASK64)
    t = np.empty_like(x)
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


# leading bins are counted by comparison until the mass above them drops
# below 2^-6; the rarer uniforms beyond are binary-searched
_HEAD_LEVEL = _U64(_MASK64 - (_MASK64 >> 6))


def _sample(thr: np.ndarray, u: np.ndarray, row: np.ndarray | None = None) -> np.ndarray:
    """Bin of each uniform: the number of thresholds below it, which is
    ``np.searchsorted(thr, u, side="left")``.

    A 2-D ``thr`` stacks one table per row and ``row`` picks the table of
    each uniform.  The high-mass leading bins are counted as ``u > thr[i]``
    over the whole array; only uniforms past them are binary-searched.
    """
    if row is not None:
        out = np.zeros(u.shape, dtype=np.uint8)
        for r, table in enumerate(thr):
            out += (row == r) * _sample(table, u)
        return out
    # the last threshold is 2^64 - 1, which no uniform exceeds
    head = min(len(thr) - 1, int(np.searchsorted(thr, _HEAD_LEVEL)) + 1)
    out = np.zeros(u.shape, dtype=np.uint8)
    for t in thr[:head]:
        above = u > t
        out += above
    if head < len(thr) - 1:
        tail = np.flatnonzero(above)
        out[tail] = head + np.searchsorted(thr[head:], u[tail])
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

_DETECTORS = np.arange(4, dtype=np.uint8)
_POPCOUNT = np.array([bin(i).count("1") for i in range(16)], dtype=np.uint8)
# k-th set bit of each 4-bit mask, padded by repeating the last member
_CHOICE = np.zeros((16, 4), dtype=np.uint8)
for _mask in range(1, 16):
    _members = [d for d in range(4) if _mask >> d & 1]
    for _k in range(4):
        _CHOICE[_mask, _k] = _members[min(_k, len(_members) - 1)]


class _SessionTables:
    """Precomputed sampling tables for one (params, link) pair.

    Raises ValueError if the photon or routed-photon cap would clip more
    than ``_CAP_TOLERANCE`` of the gates of either intensity."""

    def __init__(self, p: ProtocolParams, link: LinkModel):
        eta = link.eta_sys
        dark = link.detector.dark_prob_per_gate
        # joint (intensity, basis, bit) preparation choice,
        # index = (k << 2) | (basis << 1) | bit
        prep = []
        for k in Intensity:
            for b in Basis:
                for _bit in (0, 1):
                    prep.append(p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5)
        self.prep_thr = _cdf_u64(prep)
        # survivors out of n photons, one table per n (n = 0 has one bin)
        binom = [
            [math.comb(n, m) * eta**m * (1 - eta) ** (n - m) for m in range(n + 1)]
            for n in range(_PHOTON_CAP + 1)
        ]
        self.binom_thr = [_cdf_u64(pmf) for pmf in binom]
        self.binom_zero = np.array([thr[0] for thr in self.binom_thr], dtype=np.uint64)
        # photon number, one row per intensity index (0 signal, 1 decoy)
        pois = []
        for k in Intensity:
            mean = p.mean_photons(k)
            pmf = [math.exp(-mean) * mean**n / math.factorial(n) for n in range(_PHOTON_CAP + 1)]
            beyond = 1.0 - math.fsum(pmf)
            routed_over = math.fsum(
                pmf[n] * math.fsum(binom[n][_MAX_ROUTED + 1 :])
                for n in range(_MAX_ROUTED + 1, _PHOTON_CAP + 1)
            )
            for what, mass in (
                (f"photon number above {_PHOTON_CAP}", beyond),
                (f"more than {_MAX_ROUTED} surviving photons", routed_over),
            ):
                if mass > _CAP_TOLERANCE:
                    raise ValueError(
                        f"{k.value} intensity {mean:g}: probability {mass:.3g} of {what} "
                        f"exceeds {_CAP_TOLERANCE:g}"
                    )
            pois.append(_cdf_u64(pmf))
        self.pois_thr = np.stack(pois)
        # dark click pattern over the 4 detectors, bitmask-indexed
        dpmf = []
        for mask in range(16):
            prob = 1.0
            for d in range(4):
                prob *= dark if mask >> d & 1 else 1.0 - dark
            dpmf.append(prob)
        self.dark_thr = _cdf_u64(dpmf)
        self.set_rotation(p, link)

    def set_rotation(self, p: ProtocolParams, link: LinkModel) -> None:
        """Recompute the rotation-dependent routing tables only; everything
        else is unchanged by a channel-angle update."""
        # photon routing per (basis, bit) class, after channel rotation
        route = []
        for b in Basis:
            for bit in (0, 1):
                state = optics.apply_channel(optics.prepare_state(b, bit), link.rotation_angle)
                w = optics.detection_weights(state, p.p_z_bob, link.e_mis_z, link.e_mis_x)
                route.append(_cdf_u64(w))
        self.route_thr = np.stack(route)


def _run_chunk(tables, seed, start, stop, keep_records):
    g = np.arange(start, stop, dtype=np.uint64)
    n = len(g)
    prep = _sample(tables.prep_thr, _uniforms_u64(seed, _SLOT_PREP, g))
    intensity = prep >> 2  # 0 signal, 1 decoy
    abasis = (prep >> 1) & 1  # 0 Z, 1 X
    abit = prep & 1

    nph = _sample(tables.pois_thr, _uniforms_u64(seed, _SLOT_NPHOT, g), row=intensity)

    # gates with at least one surviving photon, and their survivor counts
    has = np.flatnonzero(nph != 0)
    us = _uniforms_u64(seed, _SLOT_SURV, g[has])
    nh = nph[has]
    # uniforms at or below P(no survivor | n) fall in bin 0
    live = np.flatnonzero(us > tables.binom_zero[nh])
    act, us, nh = has[live], us[live], nh[live]
    surv = np.empty(act.size, dtype=np.uint8)
    for nv in np.unique(nh):
        sel = nh == nv
        surv[sel] = _sample(tables.binom_thr[nv], us[sel])
    np.minimum(surv, _MAX_ROUTED, out=surv)

    pclick = np.zeros(n, dtype=np.uint8)
    for j in range(int(surv.max(initial=0))):
        sub = act[surv > j]
        ur = _uniforms_u64(seed, _SLOT_ROUTE0 + j, g[sub])
        # routing class = (basis << 1) | bit, the low bits of prep
        pclick[sub] |= np.uint8(1) << _sample(tables.route_thr, ur, row=prep[sub] & 3)

    dpat = _sample(tables.dark_thr, _uniforms_u64(seed, _SLOT_DARK, g))

    clicks = pclick | dpat
    any_idx = np.flatnonzero(clicks != 0)
    cmask = clicks[any_idx]
    cpop = _POPCOUNT[cmask]
    kth = np.zeros(any_idx.size, dtype=np.int64)
    multi = cpop > 1
    if multi.any():
        uc = _uniforms_u64(seed, _SLOT_DCLICK, g[any_idx[multi]])
        kf = (uc.astype(np.float64) * 2.0**-64 * cpop[multi]).astype(np.int64)
        kth[multi] = np.minimum(kf, cpop[multi] - 1)
    chosen = _CHOICE[cmask, kth]

    bob_x = (chosen >= 2).astype(np.uint8)
    sifted = bob_x == abasis[any_idx]
    errors = sifted & ((chosen & 1) != abit[any_idx])

    cell = (abasis[any_idx].astype(np.int64) << 1) | intensity[any_idx]
    n_cells = np.bincount(cell[sifted], minlength=4)
    m_cells = np.bincount(cell[errors], minlength=4)

    nph_any = nph[any_idx]
    z_sift = sifted & (abasis[any_idx] == 0)
    x_sift = sifted & (abasis[any_idx] == 1)
    gt = GroundTruth(
        vacuum_detections=int(np.count_nonzero(z_sift & (nph_any == 0))),
        single_photon_detections=int(np.count_nonzero(z_sift & (nph_any == 1))),
        single_photon_detections_x=int(np.count_nonzero(x_sift & (nph_any == 1))),
        single_photon_errors_x=int(np.count_nonzero(errors & x_sift & (nph_any == 1))),
    )

    decoys = np.count_nonzero(intensity)
    sent = np.array([n - decoys, decoys])
    clicked = np.bincount(intensity[any_idx], minlength=2)

    records = None
    if keep_records:
        # one row per click; row-major nonzero sorts by gate, then detector
        hit, det = np.nonzero((cmask[:, None] >> _DETECTORS) & 1)
        dark_only = dpat[any_idx] & ~pclick[any_idx]
        records = RecordSet(
            g[any_idx[hit]], det.astype(np.uint8), (dark_only[hit] >> det) & 1 == 1
        )

    return {
        "n_cells": n_cells,
        "m_cells": m_cells,
        "gt": gt,
        "detection_gates": int(any_idx.size),
        "multi_click_gates": int(np.count_nonzero(multi)),
        "detector_clicks": int(_POPCOUNT[cmask].sum()),
        "sent": sent,
        "clicked": clicked,
        "records": records,
    }


# 2^16 gates keep a chunk's working set in cache; smaller chunks spend
# the time in per-chunk Python glue, which holds the GIL and stops
# threads from scaling
_DEFAULT_CHUNK = 1 << 16


def _n_threads(explicit: int | None) -> int:
    """Worker count: ``explicit`` if given, else QKD_THREADS, else 1.
    Raises ValueError on anything but an integer >= 1."""
    if explicit is not None:
        source, value = "n_threads", explicit
    else:
        source, value = "QKD_THREADS", os.environ.get("QKD_THREADS")
        if not value:
            return 1
    try:
        n = int(value)
        if n >= 1:
            return n
    except ValueError:
        pass
    raise ValueError(f"{source}={value!r} must be an integer >= 1")


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
    size or thread count.  Raises BudgetExceeded if record retention would
    exceed ``record_cap``.
    """
    validate_params(p)
    n_total = int(n_pulses if n_pulses is not None else p.n_pulses)
    if n_total < 1:
        raise ValueError(f"n_pulses={n_total} must be >= 1")
    workers = _n_threads(n_threads)
    tables = _tables if _tables is not None else _SessionTables(p, link)
    bounds = [
        (gate_offset + s, gate_offset + min(s + chunk_size, n_total))
        for s in range(0, n_total, chunk_size)
    ]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda se: _run_chunk(tables, seed, se[0], se[1], keep_records), bounds)
            )
    else:
        results = [_run_chunk(tables, seed, s, e, keep_records) for s, e in bounds]

    n_cells = sum(r["n_cells"] for r in results)
    m_cells = sum(r["m_cells"] for r in results)
    gt = GroundTruth()
    for r in results:
        gt.vacuum_detections += r["gt"].vacuum_detections
        gt.single_photon_detections += r["gt"].single_photon_detections
        gt.single_photon_detections_x += r["gt"].single_photon_detections_x
        gt.single_photon_errors_x += r["gt"].single_photon_errors_x
    counts = ObservedCounts(
        n_z_mu=int(n_cells[0]), n_z_nu=int(n_cells[1]),
        n_x_mu=int(n_cells[2]), n_x_nu=int(n_cells[3]),
        m_z_mu=int(m_cells[0]), m_z_nu=int(m_cells[1]),
        m_x_mu=int(m_cells[2]), m_x_nu=int(m_cells[3]),
    )
    records = None
    if keep_records:
        total_rows = sum(len(r["records"]) for r in results)
        if total_rows > record_cap:
            raise BudgetExceeded(
                f"{total_rows} detection records exceed record cap {record_cap}"
            )
        records = RecordSet(
            np.concatenate([r["records"].gate_index for r in results]),
            np.concatenate([r["records"].detector_id for r in results]),
            np.concatenate([r["records"].is_dark for r in results]),
        )
    sent = sum(r["sent"] for r in results)
    clicked = sum(r["clicked"] for r in results)
    return SessionResult(
        counts=counts,
        ground_truth=gt,
        n_pulses=n_total,
        detection_gates=sum(r["detection_gates"] for r in results),
        multi_click_gates=sum(r["multi_click_gates"] for r in results),
        detector_clicks=sum(r["detector_clicks"] for r in results),
        sent={Intensity.SIGNAL: int(sent[0]), Intensity.DECOY: int(sent[1])},
        clicked={Intensity.SIGNAL: int(clicked[0]), Intensity.DECOY: int(clicked[1])},
        records=records,
    )


def pulse_records(p: ProtocolParams, seed: int, gate_indices) -> list[PulseRecord]:
    """Re-derive Alice-side pulse records for specific gates.

    Uses the same counter-based draws as run_session, so tags agree with
    any session run under the same (seed, params)."""
    tables = _SessionTables(p, LinkModel())
    g = np.asarray(gate_indices, dtype=np.uint64)
    prep = _sample(tables.prep_thr, _uniforms_u64(seed, _SLOT_PREP, g))
    nph = _sample(tables.pois_thr, _uniforms_u64(seed, _SLOT_NPHOT, g), row=prep >> 2)
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
    between windows.  Returns per-window gains and QBERs."""
    ppw = int(pulses_per_window if pulses_per_window is not None else round(schedule.window_s * p.f_rep))
    if ppw < 1:
        raise ValueError(f"pulses_per_window={ppw} must be >= 1")
    theta = drift.theta0
    step_scale = drift.sigma * math.sqrt(schedule.interval_s)
    out = []
    tables = None
    last_theta = None
    for w in range(schedule.n_windows):
        if w > 0 and step_scale > 0.0:
            theta += step_scale * _gauss(seed, w)
        lk = replace(link, rotation_angle=theta)
        # the sampling tables depend on the angle only through the routing
        # thresholds, so reuse them across windows and refresh just that part
        if tables is None:
            tables = _SessionTables(p, lk)
        elif theta != last_theta:
            tables.set_rotation(p, lk)
        last_theta = theta
        res = run_session(
            p,
            lk,
            seed,
            n_pulses=ppw,
            gate_offset=w * ppw,
            n_threads=n_threads,
            _tables=tables,
        )
        c = res.counts
        n_z, m_z = c.n_total(Basis.Z), c.m_total(Basis.Z)
        n_x, m_x = c.n_total(Basis.X), c.m_total(Basis.X)
        out.append(
            WindowStats(
                window_start_s=w * schedule.interval_s,
                q_mu=res.clicked[Intensity.SIGNAL] / max(1, res.sent[Intensity.SIGNAL]),
                q_nu=res.clicked[Intensity.DECOY] / max(1, res.sent[Intensity.DECOY]),
                e_z=m_z / n_z if n_z else 0.0,
                e_x=m_x / n_x if n_x else 0.0,
                counts=c,
            )
        )
    return out


# --- detection-record files -------------------------------------------------

_RECORD_HEADER = "gate_index,detector_id,is_dark"


def write_records(records, path: str) -> None:
    """Write detection records as CSV with fixed field order and LF
    endings; byte-stable across platforms."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(_RECORD_HEADER + "\n")
            for rec in records:
                fh.write(f"{rec.gate_index},{rec.detector_id},{int(rec.is_dark)}\n")
    except OSError as exc:
        raise IoError(f"cannot write records to {path}: {exc}") from exc


def read_records(
    path: str,
    p: ProtocolParams | None = None,
    link: LinkModel | None = None,
    seed: int | None = None,
) -> tuple[RecordSet, ObservedCounts | None]:
    """Read a detection-record file back.

    When (params, link, seed) of the originating session are supplied, the
    sifted tallies are recomputed by re-deriving Alice's per-gate choices
    and the multi-click resolution from the counter-based streams; they
    equal the original session counts.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise IoError(f"cannot read records from {path}: {exc}") from exc
    if not lines or lines[0] != _RECORD_HEADER:
        raise FormatError(f"expected header {_RECORD_HEADER!r}", 1)
    gates, dets, darks = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"expected 3 fields, got {len(parts)}", i)
        try:
            gate, det, dark = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"non-integer field in {line!r}", i) from None
        if gate < 0 or not 0 <= det <= 3 or dark not in (0, 1):
            raise FormatError(f"field out of range in {line!r}", i)
        gates.append(gate)
        dets.append(det)
        darks.append(bool(dark))
    records = RecordSet(gates, dets, darks)
    counts = None
    if p is not None and link is not None and seed is not None:
        counts = _counts_from_clicks(records, p, link, seed)
    return records, counts


def _counts_from_clicks(records: RecordSet, p, link, seed) -> ObservedCounts:
    tables = _SessionTables(p, link)
    if len(records) == 0:
        return ObservedCounts()
    uniq, inverse = np.unique(records.gate_index, return_inverse=True)
    clicks = np.zeros(len(uniq), dtype=np.uint8)
    np.bitwise_or.at(clicks, inverse, np.uint8(1) << records.detector_id)
    prep = _sample(tables.prep_thr, _uniforms_u64(seed, _SLOT_PREP, uniq))
    intensity = prep >> 2
    abasis = (prep >> 1) & 1
    abit = prep & 1
    cpop = _POPCOUNT[clicks]
    kth = np.zeros(len(uniq), dtype=np.int64)
    multi = cpop > 1
    if multi.any():
        uc = _uniforms_u64(seed, _SLOT_DCLICK, uniq[multi])
        kf = (uc.astype(np.float64) * 2.0**-64 * cpop[multi]).astype(np.int64)
        kth[multi] = np.minimum(kf, cpop[multi] - 1)
    chosen = _CHOICE[clicks, kth]
    bob_x = (chosen >= 2).astype(np.uint8)
    sifted = bob_x == abasis
    errors = sifted & ((chosen & 1) != abit)
    cell = (abasis.astype(np.int64) << 1) | intensity
    n_cells = np.bincount(cell[sifted], minlength=4)
    m_cells = np.bincount(cell[errors], minlength=4)
    return ObservedCounts(
        n_z_mu=int(n_cells[0]), n_z_nu=int(n_cells[1]),
        n_x_mu=int(n_cells[2]), n_x_nu=int(n_cells[3]),
        m_z_mu=int(m_cells[0]), m_z_nu=int(m_cells[1]),
        m_x_mu=int(m_cells[2]), m_x_nu=int(m_cells[3]),
    )
