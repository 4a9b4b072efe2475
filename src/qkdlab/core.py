"""Domain types, parameter validation, and configuration I/O.

Every other module builds on the immutable value types defined here.  All
types are frozen dataclasses and safe to share between concurrent tasks.
"""

from __future__ import annotations

import configparser
import enum
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np


class ParamError(ValueError):
    """Base class for parameter validation failures."""


class InvalidIntensityOrder(ParamError):
    """Raised when the decoy intensity is not strictly below the signal."""


class ProbabilityOutOfRange(ParamError):
    pass


class NonPositivePulseCount(ParamError):
    pass


class ConfigError(ValueError):
    """Raised on malformed or incomplete configuration files."""


class Basis(enum.Enum):
    """Measurement basis: Z generates key, X tests the channel."""

    Z = "Z"
    X = "X"


class Intensity(enum.Enum):
    """Pulse intensity class; mean photon numbers live in ProtocolParams."""

    SIGNAL = "signal"
    DECOY = "decoy"


@dataclass(frozen=True)
class ProtocolParams:
    """All protocol knobs: intensities, probabilities, pulse budget, clock.

    ``mu``/``nu`` are mean photons per pulse of the signal/decoy state,
    ``p_mu`` the probability of emitting the signal intensity, ``p_z_alice``
    and ``p_z_bob`` the Z-basis probabilities on either side.  ``f_ec`` is
    the error-correction efficiency (>= 1) and ``eps_sec``/``eps_cor`` the
    secrecy/correctness failure budgets.
    """

    mu: float = 0.56
    nu: float = 0.14
    p_mu: float = 0.66
    p_z_alice: float = 0.9
    p_z_bob: float = 0.9
    n_pulses: int = 10_000_000_000
    f_rep: float = 50e6
    f_ec: float = 1.16
    eps_sec: float = 1e-9
    eps_cor: float = 1e-9

    @property
    def p_nu(self) -> float:
        return 1.0 - self.p_mu

    def mean_photons(self, k: Intensity) -> float:
        return self.mu if k is Intensity.SIGNAL else self.nu

    def intensity_prob(self, k: Intensity) -> float:
        return self.p_mu if k is Intensity.SIGNAL else self.p_nu

    def basis_prob_alice(self, b: Basis) -> float:
        return self.p_z_alice if b is Basis.Z else 1.0 - self.p_z_alice


@dataclass(frozen=True)
class DetectorModel:
    """Threshold single-photon detector bank at the receiver: one detector
    per analyzer output (four), a multi-click resolving uniformly among
    the detectors that fired."""

    efficiency: float = 0.10
    dark_prob_per_gate: float = 8e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ProbabilityOutOfRange(f"efficiency={self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_prob_per_gate <= 1.0:
            raise ProbabilityOutOfRange(
                f"dark_prob_per_gate={self.dark_prob_per_gate} outside [0, 1]"
            )


# Intra-basis flip probabilities calibrated so the exact pulse-level
# back-to-back QBERs (channel 0 dB, receiver 1.4 dB, efficiency 0.10, dark
# 8e-6/gate) reproduce the measured e_Z = 0.61 % and e_X = 0.87 %.  The
# passive 90:10 splitter routes only 10 % of the light to the X port, so the
# relative dark-count contribution there is an order of magnitude larger
# than a symmetric closed-form model suggests; calibrating against the exact
# click-pattern enumeration keeps simulated QBERs on the measured values.
# See calibrate_misalignment().
E_MIS_Z_DEFAULT = 0.0058078
E_MIS_X_DEFAULT = 0.0060901


@dataclass(frozen=True)
class LinkModel:
    """Channel loss/rotation, receiver loss, misalignment, detector bank."""

    channel_loss_db: float = 14.6
    receiver_loss_db: float = 1.4
    e_mis_z: float = E_MIS_Z_DEFAULT
    e_mis_x: float = E_MIS_X_DEFAULT
    rotation_angle: float = 0.0
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self) -> None:
        for name in ("channel_loss_db", "receiver_loss_db"):
            v = getattr(self, name)
            # +inf is a blocked link; the comparison is false for NaN
            if not v >= 0:
                raise ParamError(f"{name}={v} must be non-negative")
        if not math.isfinite(self.rotation_angle):
            raise ParamError(f"rotation_angle={self.rotation_angle} must be finite")
        for name in ("e_mis_z", "e_mis_x"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ProbabilityOutOfRange(f"{name}={v} outside [0, 0.5]")

    def e_mis(self, b: Basis) -> float:
        return self.e_mis_z if b is Basis.Z else self.e_mis_x

    @property
    def eta_sys(self) -> float:
        """Overall transmittance: fiber + receiver loss + detector efficiency."""
        total_db = self.channel_loss_db + self.receiver_loss_db
        return 10.0 ** (-total_db / 10.0) * self.detector.efficiency

    def with_channel_loss(self, loss_db: float) -> "LinkModel":
        return replace(self, channel_loss_db=loss_db)


# Tally arrays are indexed [basis, intensity] in Basis and Intensity order,
# so the flat cell of (b, k) is (b << 1) | k; these are the names the
# cells carry in JSON, in that order.
_CELL_NAMES = ("z_mu", "z_nu", "x_mu", "x_nu")
_INDEX = {m: i for kind in (Basis, Intensity) for i, m in enumerate(kind)}


def _read_only(a) -> np.ndarray:
    a = np.asarray(a).view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ObservedCounts:
    """Sifted detection (``sift``, n) and error (``err``, m) tallies: two
    read-only arrays indexed [basis, intensity] in ``Basis`` and
    ``Intensity`` order.

    Axes after the first two, if any, are a parameter grid with one tally
    per point; ``sift`` and ``err`` then broadcast against each other like
    the parameters they were computed from.
    """

    sift: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=np.int64))
    err: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=np.int64))

    def __post_init__(self) -> None:
        n, m = _read_only(self.sift), _read_only(self.err)
        object.__setattr__(self, "sift", n)
        object.__setattr__(self, "err", m)
        # 0 <= m <= n also rules out n < 0
        bad = np.logical_or(m < 0, m > n).reshape(4, -1).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            cell = divmod(i, 2)
            raise ParamError(f"invalid cell {_CELL_NAMES[i]}: n={n[cell]}, m={m[cell]}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservedCounts):
            return NotImplemented
        return bool(np.array_equal(self.sift, other.sift) and np.array_equal(self.err, other.err))

    def n(self, b: Basis, k: Intensity):
        return self.sift[_INDEX[b], _INDEX[k]]

    def m(self, b: Basis, k: Intensity):
        return self.err[_INDEX[b], _INDEX[k]]

    def n_total(self, b: Basis):
        n = self.sift[_INDEX[b]]
        return n[0] + n[1]

    def m_total(self, b: Basis):
        m = self.err[_INDEX[b]]
        return m[0] + m[1]

    def total_sifted(self):
        return self.n_total(Basis.Z) + self.n_total(Basis.X)

    def as_dict(self) -> dict:
        """The eight tallies as ints, named ``n_z_mu`` ... ``m_x_nu``."""
        return {
            f"{tally}_{cell}": int(v)
            for tally, a in (("n", self.sift), ("m", self.err))
            for cell, v in zip(_CELL_NAMES, a.reshape(4))
        }


@dataclass(frozen=True)
class KeyRateReport:
    """Secure-length evaluation with every intermediate bound retained."""

    s_z0_low: float
    s_z0_up: float
    s_z1_low: float
    s_x1_low: float
    v_x1_up: float
    phi_z_up: float
    lambda_ec: float
    l_bits: float
    skr_bps: float
    n_z: int
    m_z: int
    eps_sec: float
    eps_cor: float
    eps_pe: float
    insufficient_test_statistics: bool = False

    def __post_init__(self) -> None:
        if self.l_bits < 0:
            raise ParamError("l_bits must be clamped non-negative")
        if not 0.0 <= self.phi_z_up <= 0.5:
            raise ParamError(f"phi_z_up={self.phi_z_up} outside [0, 0.5]")


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs that belong to the simulator rather than the protocol."""

    seed: int = 1
    sigma: float = 0.0
    theta0: float = 0.0
    record_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ParamError(f"sigma={self.sigma} must be non-negative and finite")
        if not math.isfinite(self.theta0):
            raise ParamError(f"theta0={self.theta0} must be finite")
        if self.record_cap < 0:
            raise ParamError("record_cap must be non-negative")


def validate_params(p: ProtocolParams) -> ProtocolParams:
    """Check every ProtocolParams invariant; returns the same values.

    Pure and idempotent.  A signal intensity above one photon per pulse is
    legal but suspicious, so it only warns.  Every float must be finite.
    """
    for name in ("mu", "nu", "f_rep", "f_ec"):
        v = getattr(p, name)
        if not math.isfinite(v):
            raise ParamError(f"{name}={v} must be finite")
    if not p.nu < p.mu:
        raise InvalidIntensityOrder(f"need nu < mu, got nu={p.nu}, mu={p.mu}")
    if p.nu < 0:
        raise InvalidIntensityOrder(f"nu={p.nu} must be >= 0")
    for name in ("p_mu", "p_z_alice", "p_z_bob"):
        v = getattr(p, name)
        if not 0.0 < v < 1.0:
            raise ProbabilityOutOfRange(f"{name}={v} outside (0, 1)")
    for name in ("eps_sec", "eps_cor"):
        v = getattr(p, name)
        if not 0.0 < v < 1.0:
            raise ProbabilityOutOfRange(f"{name}={v} outside (0, 1)")
    if p.n_pulses < 1:
        raise NonPositivePulseCount(f"n_pulses={p.n_pulses} must be >= 1")
    if p.f_rep <= 0:
        raise ParamError(f"f_rep={p.f_rep} must be positive")
    if p.f_ec < 1.0:
        raise ParamError(f"f_ec={p.f_ec} must be >= 1")
    if p.mu > 1.0:
        warnings.warn(f"mu={p.mu} exceeds one photon per pulse", stacklevel=2)
    return p


def calibrate_misalignment(
    target_e: float,
    basis: Basis,
    link: LinkModel,
    p: ProtocolParams,
) -> float:
    """Solve for the intra-basis flip probability that makes the exact
    pulse-level intensity-pooled QBER of ``basis`` at this link equal
    ``target_e`` (bisection; the pooled QBER is monotone in the flip
    probability)."""
    from . import rates  # deferred: rates imports this module

    def pooled(e_mis: float) -> float:
        lk = replace(link, e_mis_z=e_mis, e_mis_x=e_mis)
        cells = rates.expected_sifted_cells(p, lk)
        n = sum(v for (b, _), v in cells.sift.items() if b is basis)
        m = sum(v for (b, _), v in cells.err.items() if b is basis)
        return m / n

    lo, hi = 0.0, 0.5
    if not pooled(lo) <= target_e <= pooled(hi):
        raise ParamError(f"target QBER {target_e} unreachable by misalignment alone")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if pooled(mid) < target_e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- configuration files ----------------------------------------------------
#
# Plain-text key = value files with sections [protocol], [link], [detector]
# and [simulation]; keys are case-sensitive and named exactly as the dataclass
# fields above.

_PROTOCOL_FIELDS = (
    "mu", "nu", "p_mu", "p_z_alice", "p_z_bob",
    "n_pulses", "f_rep", "f_ec", "eps_sec", "eps_cor",
)
_LINK_FIELDS = ("channel_loss_db", "receiver_loss_db", "e_mis_z", "e_mis_x", "rotation_angle")
_DETECTOR_FIELDS = ("efficiency", "dark_prob_per_gate")
_SIMULATION_FIELDS = ("seed", "sigma", "theta0", "record_cap")
_SECTIONS = {
    "protocol": _PROTOCOL_FIELDS,
    "link": _LINK_FIELDS,
    "detector": _DETECTOR_FIELDS,
    "simulation": _SIMULATION_FIELDS,
}


def _parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep keys case-sensitive
    return cp


def _refuse_unknown(cp: configparser.ConfigParser) -> None:
    """Raise ConfigError on the first section or key that no field reads,
    so a misspelling cannot fall back to a default.  A key under [DEFAULT]
    counts as unknown: configparser would copy it into every section."""
    for key in cp.defaults():
        raise ConfigError(f"unknown key [{cp.default_section}] {key}")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")


def _int(raw: str) -> int:
    # accept 1e10-style counts
    v = float(raw)
    if v != int(v):
        raise ValueError(raw)
    return int(v)


def _section(cp: configparser.ConfigParser, section: str, default):
    """``default`` with the fields that ``section`` sets replaced; a field
    with an int default reads as a count."""
    values = {}
    for key in _SECTIONS[section]:
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            conv = _int if isinstance(getattr(default, key), int) else float
            try:
                values[key] = conv(raw)
            # int() of an infinite count overflows
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return replace(default, **values)


def load_config(path: str) -> tuple[ProtocolParams, LinkModel, SimulationSettings]:
    """Parse a configuration file into validated parameter objects; a
    missing key keeps its dataclass default.

    Raises ConfigError on an unreadable or malformed file, on a bad value
    and on a section or key that is not a field of ``_SECTIONS``."""
    cp = _parser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    _refuse_unknown(cp)
    p = _section(cp, "protocol", ProtocolParams())
    det = _section(cp, "detector", DetectorModel())
    link = _section(cp, "link", LinkModel(detector=det))
    sim = _section(cp, "simulation", SimulationSettings())
    validate_params(p)
    return p, link, sim


def save_config(
    path: str,
    p: ProtocolParams,
    link: LinkModel,
    sim: SimulationSettings = SimulationSettings(),
) -> None:
    """Write a config file that round-trips every numeric field bit-exactly."""
    cp = _parser()
    cp["protocol"] = {f: repr(getattr(p, f)) for f in _PROTOCOL_FIELDS}
    cp["link"] = {f: repr(getattr(link, f)) for f in _LINK_FIELDS}
    cp["detector"] = {f: repr(getattr(link.detector, f)) for f in _DETECTOR_FIELDS}
    cp["simulation"] = {f: repr(getattr(sim, f)) for f in _SIMULATION_FIELDS}
    with open(path, "w", newline="\n") as fh:
        cp.write(fh)


def resolved_config_dict(
    p: ProtocolParams, link: LinkModel, sim: SimulationSettings | None = None
) -> dict:
    """Fully-resolved configuration for embedding into report output."""
    out = {
        "protocol": {f: getattr(p, f) for f in _PROTOCOL_FIELDS},
        "link": {f: getattr(link, f) for f in _LINK_FIELDS},
        "detector": {f: getattr(link.detector, f) for f in _DETECTOR_FIELDS},
    }
    if sim is not None:
        out["simulation"] = {f: getattr(sim, f) for f in _SIMULATION_FIELDS}
    return out
