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


class DoubleClickPolicy(enum.Enum):
    """How a multi-detector click resolves to a single sifted bit."""

    RANDOM_BIT = "RandomBit"


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
    """Threshold single-photon detector bank at the receiver."""

    efficiency: float = 0.10
    dark_prob_per_gate: float = 8e-6
    n_detectors: int = 4
    double_click_policy: DoubleClickPolicy = DoubleClickPolicy.RANDOM_BIT

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ProbabilityOutOfRange(f"efficiency={self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_prob_per_gate <= 1.0:
            raise ProbabilityOutOfRange(
                f"dark_prob_per_gate={self.dark_prob_per_gate} outside [0, 1]"
            )
        if self.n_detectors != 4:
            raise ParamError(f"n_detectors must be 4, got {self.n_detectors}")


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
        if self.channel_loss_db < 0 or self.receiver_loss_db < 0:
            raise ParamError("losses must be non-negative")
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


@dataclass(frozen=True)
class ObservedCounts:
    """Sifted detection (n) and error (m) tallies per basis x intensity.

    A cell may be a numpy array, one tally per point of a parameter grid;
    the cells then broadcast against each other like the parameters they
    were computed from.
    """

    n_z_mu: int = 0
    n_z_nu: int = 0
    n_x_mu: int = 0
    n_x_nu: int = 0
    m_z_mu: int = 0
    m_z_nu: int = 0
    m_x_mu: int = 0
    m_x_nu: int = 0

    def __post_init__(self) -> None:
        for cell in ("z_mu", "z_nu", "x_mu", "x_nu"):
            n, m = getattr(self, "n_" + cell), getattr(self, "m_" + cell)
            # 0 <= m <= n also rules out n < 0
            if np.logical_or(m < 0, m > n).any():
                raise ParamError(f"invalid cell {cell}: n={n}, m={m}")

    def n(self, b: Basis, k: Intensity) -> int:
        if b is Basis.Z:
            return self.n_z_mu if k is Intensity.SIGNAL else self.n_z_nu
        return self.n_x_mu if k is Intensity.SIGNAL else self.n_x_nu

    def m(self, b: Basis, k: Intensity) -> int:
        if b is Basis.Z:
            return self.m_z_mu if k is Intensity.SIGNAL else self.m_z_nu
        return self.m_x_mu if k is Intensity.SIGNAL else self.m_x_nu

    def n_total(self, b: Basis) -> int:
        return self.n(b, Intensity.SIGNAL) + self.n(b, Intensity.DECOY)

    def m_total(self, b: Basis) -> int:
        return self.m(b, Intensity.SIGNAL) + self.m(b, Intensity.DECOY)

    def total_sifted(self) -> int:
        return self.n_total(Basis.Z) + self.n_total(Basis.X)

    def as_dict(self) -> dict:
        return {
            f: getattr(self, f)
            for f in (
                "n_z_mu", "n_z_nu", "n_x_mu", "n_x_nu",
                "m_z_mu", "m_z_nu", "m_x_mu", "m_x_nu",
            )
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

    def as_dict(self) -> dict:
        return {
            "s_z0_low": self.s_z0_low,
            "s_z0_up": self.s_z0_up,
            "s_z1_low": self.s_z1_low,
            "s_x1_low": self.s_x1_low,
            "v_x1_up": self.v_x1_up,
            "phi_z_up": self.phi_z_up,
            "lambda_ec": self.lambda_ec,
            "l_bits": self.l_bits,
            "skr_bps": self.skr_bps,
            "n_z": self.n_z,
            "m_z": self.m_z,
            "eps_sec": self.eps_sec,
            "eps_cor": self.eps_cor,
            "eps_pe": self.eps_pe,
            "insufficient_test_statistics": self.insufficient_test_statistics,
        }


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs that belong to the simulator rather than the protocol."""

    seed: int = 1
    sigma: float = 0.0
    theta0: float = 0.0
    record_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ParamError("sigma must be non-negative")
        if self.record_cap < 0:
            raise ParamError("record_cap must be non-negative")


def validate_params(p: ProtocolParams) -> ProtocolParams:
    """Check every ProtocolParams invariant; returns the same values.

    Pure and idempotent.  A signal intensity above one photon per pulse is
    legal but suspicious, so it only warns.
    """
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
_DETECTOR_FIELDS = ("efficiency", "dark_prob_per_gate", "n_detectors", "double_click_policy")
_SIMULATION_FIELDS = ("seed", "sigma", "theta0", "record_cap")


def _parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep keys case-sensitive
    return cp


def _get(cp, section, key, conv, default):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _int(raw: str) -> int:
    # accept 1e10-style counts
    v = float(raw)
    if v != int(v):
        raise ValueError(raw)
    return int(v)


def load_config(path: str) -> tuple[ProtocolParams, LinkModel, SimulationSettings]:
    """Parse a configuration file into validated parameter objects."""
    cp = _parser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    pdef = ProtocolParams()
    p = ProtocolParams(
        mu=_get(cp, "protocol", "mu", float, pdef.mu),
        nu=_get(cp, "protocol", "nu", float, pdef.nu),
        p_mu=_get(cp, "protocol", "p_mu", float, pdef.p_mu),
        p_z_alice=_get(cp, "protocol", "p_z_alice", float, pdef.p_z_alice),
        p_z_bob=_get(cp, "protocol", "p_z_bob", float, pdef.p_z_bob),
        n_pulses=_get(cp, "protocol", "n_pulses", _int, pdef.n_pulses),
        f_rep=_get(cp, "protocol", "f_rep", float, pdef.f_rep),
        f_ec=_get(cp, "protocol", "f_ec", float, pdef.f_ec),
        eps_sec=_get(cp, "protocol", "eps_sec", float, pdef.eps_sec),
        eps_cor=_get(cp, "protocol", "eps_cor", float, pdef.eps_cor),
    )
    ddef = DetectorModel()
    det = DetectorModel(
        efficiency=_get(cp, "detector", "efficiency", float, ddef.efficiency),
        dark_prob_per_gate=_get(cp, "detector", "dark_prob_per_gate", float, ddef.dark_prob_per_gate),
        n_detectors=_get(cp, "detector", "n_detectors", _int, ddef.n_detectors),
        double_click_policy=_get(
            cp, "detector", "double_click_policy", DoubleClickPolicy, ddef.double_click_policy
        ),
    )
    ldef = LinkModel()
    link = LinkModel(
        channel_loss_db=_get(cp, "link", "channel_loss_db", float, ldef.channel_loss_db),
        receiver_loss_db=_get(cp, "link", "receiver_loss_db", float, ldef.receiver_loss_db),
        e_mis_z=_get(cp, "link", "e_mis_z", float, ldef.e_mis_z),
        e_mis_x=_get(cp, "link", "e_mis_x", float, ldef.e_mis_x),
        rotation_angle=_get(cp, "link", "rotation_angle", float, ldef.rotation_angle),
        detector=det,
    )
    sdef = SimulationSettings()
    sim = SimulationSettings(
        seed=_get(cp, "simulation", "seed", _int, sdef.seed),
        sigma=_get(cp, "simulation", "sigma", float, sdef.sigma),
        theta0=_get(cp, "simulation", "theta0", float, sdef.theta0),
        record_cap=_get(cp, "simulation", "record_cap", _int, sdef.record_cap),
    )
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
    det = link.detector
    cp["detector"] = {
        "efficiency": repr(det.efficiency),
        "dark_prob_per_gate": repr(det.dark_prob_per_gate),
        "n_detectors": repr(det.n_detectors),
        "double_click_policy": det.double_click_policy.value,
    }
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
        "detector": {
            "efficiency": link.detector.efficiency,
            "dark_prob_per_gate": link.detector.dark_prob_per_gate,
            "n_detectors": link.detector.n_detectors,
            "double_click_policy": link.detector.double_click_policy.value,
        },
    }
    if sim is not None:
        out["simulation"] = {f: getattr(sim, f) for f in _SIMULATION_FIELDS}
    return out
