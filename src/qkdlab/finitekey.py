"""Finite-key secure length for the one-decoy protocol.

Statistical bounds (vacuum, single-photon, phase-error) are derived from
the observed sifted tallies with Hoeffding concentration, then composed
into the secure length of Rusca et al., APL 112, 171104 (2018),

    l = s_Z0 + s_Z1 (1 - h(phi_Z)) - lambda_EC
        - 6 log2(19 / eps_sec) - log2(2 / eps_cor)

clamped at zero.  Every intermediate bound is clamped into its physical
range before entering the composition and retained in the report.

Every bound broadcasts: the tallies and the protocol intensities and
probabilities may be numpy arrays, one element per parameter point.
``key_length`` evaluates one sample and raises when it has no key-basis
detections; the optimizer scores whole grid blocks through the same
composition and masks such points instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Basis, Intensity, KeyRateReport, ObservedCounts, ProtocolParams
from .rates import binary_entropy, tau_n


class IntensityDegenerate(ValueError):
    """Raised when mu - nu is too small for the decoy estimators."""


class EmptyKeyBasis(ValueError):
    """Raised when there are no sifted key-basis detections at all."""


_MIN_INTENSITY_GAP = 1e-9

# The concentration budget defaults to eps_sec / 19, matching the 19-way
# composition term in the secure-length formula.
_EPS_PE_SHARE = 19.0


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability apportionment for the finite-key bounds."""

    eps_sec: float
    eps_cor: float
    eps_pe: float

    def __post_init__(self) -> None:
        for name in ("eps_sec", "eps_cor", "eps_pe"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name}={v} outside (0, 1)")

    @classmethod
    def from_params(cls, p: ProtocolParams) -> "EpsilonBudget":
        return cls(eps_sec=p.eps_sec, eps_cor=p.eps_cor, eps_pe=p.eps_sec / _EPS_PE_SHARE)


def hoeffding_delta(n_total, eps: float):
    """Two-point Hoeffding deviation sqrt((n/2) ln(1/eps)) in counts."""
    if np.less(n_total, 0).any():
        raise ValueError(f"n_total={n_total} must be >= 0")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    return np.sqrt(n_total / 2.0 * math.log(1.0 / eps))


class DecoyFactors:
    """The factors of the decoy-state bounds that depend only on the
    intensities and their probabilities in ``p``, computed once so that
    the bounds of both bases share them.

    Raises IntensityDegenerate unless mu - nu clears the minimum gap and
    nu > 0.
    """

    def __init__(self, p: ProtocolParams) -> None:
        if np.less(p.mu - p.nu, _MIN_INTENSITY_GAP).any():
            raise IntensityDegenerate(f"mu - nu = {p.mu - p.nu} too small")
        if np.less_equal(p.nu, 0.0).any():
            raise IntensityDegenerate("decoy intensity must be positive")
        self.p = p
        self.tau0 = tau_n(0, p)
        self.tau1 = tau_n(1, p)
        # e^k / p_k, the Poisson rescaling of each intensity's tallies
        self.scale_mu = np.exp(p.mu) / p.p_mu
        self.scale_nu = np.exp(p.nu) / p.p_nu
        # the single-photon bound's weights of the signal estimator and of
        # the vacuum term, and its overall scale tau1 mu / (nu (mu - nu))
        mu2, nu2 = p.mu * p.mu, p.nu * p.nu
        self.signal_weight = nu2 / mu2
        self.vacuum_weight = (mu2 - nu2) / mu2
        self.single_photon_scale = self.tau1 * (p.mu / (p.nu * (p.mu - p.nu)))


def _estimator(tally: str, k: Intensity, lower: bool) -> cached_property:
    """A ScaledCountBounds field: (e^k / p_k)(x - delta), clamped at zero,
    if ``lower``, else (e^k / p_k)(x + delta), for the tally x ("n" or "m")
    of intensity k."""
    tag = "mu" if k is Intensity.SIGNAL else "nu"
    scale_name, x_name, delta_name = "scale_" + tag, f"{tally}_{tag}", "d_" + tally

    def value(self):
        scale = getattr(self.factors, scale_name)
        x, delta = getattr(self, x_name), getattr(self, delta_name)
        return np.maximum(0.0, scale * (x - delta)) if lower else scale * (x + delta)

    return cached_property(value)


@dataclass(frozen=True)
class ScaledCountBounds:
    """Poisson-rescaled count estimators (e^k / p_k)(x +- delta) for the
    tallies x of one basis; lower estimators clamp at zero.

    The deviation delta uses the basis totals (detections for n, errors for
    m), as the whole basis sample fluctuates jointly.  The error deviation
    and the estimators are computed on first read and then kept, so the
    bounds built on one instance share them and skip those they never read.
    """

    factors: DecoyFactors
    eps: float
    n_mu: object  # the basis's tallies
    n_nu: object
    m_mu: object
    m_nu: object
    n_total: object
    m_total: object
    d_n: object  # deviation of n_total

    @cached_property
    def d_m(self):
        return hoeffding_delta(self.m_total, self.eps)

    n_plus_mu = _estimator("n", Intensity.SIGNAL, lower=False)
    n_minus_mu = _estimator("n", Intensity.SIGNAL, lower=True)
    n_plus_nu = _estimator("n", Intensity.DECOY, lower=False)
    n_minus_nu = _estimator("n", Intensity.DECOY, lower=True)
    m_plus_mu = _estimator("m", Intensity.SIGNAL, lower=False)
    m_minus_mu = _estimator("m", Intensity.SIGNAL, lower=True)
    m_plus_nu = _estimator("m", Intensity.DECOY, lower=False)
    m_minus_nu = _estimator("m", Intensity.DECOY, lower=True)

    def n_plus(self, k: Intensity):
        return self.n_plus_mu if k is Intensity.SIGNAL else self.n_plus_nu

    def n_minus(self, k: Intensity):
        return self.n_minus_mu if k is Intensity.SIGNAL else self.n_minus_nu

    def m_plus(self, k: Intensity):
        return self.m_plus_mu if k is Intensity.SIGNAL else self.m_plus_nu

    def m_minus(self, k: Intensity):
        return self.m_minus_mu if k is Intensity.SIGNAL else self.m_minus_nu


def scaled_count_bounds(
    counts: ObservedCounts, basis: Basis, factors: DecoyFactors, eps: float
) -> ScaledCountBounds:
    """The scaled-count estimators of ``basis`` at concentration budget
    ``eps``."""
    n_mu, n_nu = counts.n(basis, Intensity.SIGNAL), counts.n(basis, Intensity.DECOY)
    m_mu, m_nu = counts.m(basis, Intensity.SIGNAL), counts.m(basis, Intensity.DECOY)
    n_total = n_mu + n_nu
    return ScaledCountBounds(
        factors, eps, n_mu, n_nu, m_mu, m_nu,
        n_total=n_total,
        m_total=m_mu + m_nu,
        d_n=hoeffding_delta(n_total, eps),
    )


def vacuum_upper_bound(sb: ScaledCountBounds):
    """Upper bound on the sifted events of one basis caused by empty
    pulses, from the error tally: every vacuum detection errs with
    probability one half."""
    return np.minimum(sb.n_total, 2.0 * (sb.m_total + sb.d_n))


def vacuum_lower_bound(sb: ScaledCountBounds):
    """Lower bound on the sifted events of one basis caused by empty
    pulses, from the decoy estimators."""
    f = sb.factors
    p = f.p
    low = f.tau0 * (p.mu * sb.n_minus_nu - p.nu * f.scale_mu * (sb.n_mu + sb.d_n)) / (p.mu - p.nu)
    return np.maximum(0.0, low)


def single_photon_bound(sb: ScaledCountBounds, s0_up):
    """Lower bound on the sifted events of one basis caused by
    single-photon pulses; ``s0_up`` is the basis's vacuum upper bound."""
    f = sb.factors
    inner = sb.n_minus_nu - f.signal_weight * sb.n_plus_mu - f.vacuum_weight * (s0_up / f.tau0)
    return np.maximum(0.0, f.single_photon_scale * inner)


def _gamma(a: float, b, c, d):
    """Finite-statistics correction for transferring the X-basis error
    ratio b >= 0 onto the Z single-photon sample (sizes c, d > 0; security
    a); zero at b = 0.  b is clipped below one, where the correction
    diverges."""
    b = np.minimum(b, 1.0 - 1e-16)
    total, product, rest = c + d, c * d, 1.0 - b
    front = total * rest * b / (product * math.log(2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = total / (product * rest * b) * (21.0 / a) ** 2
        gamma = np.sqrt(np.maximum(0.0, front * np.log2(np.maximum(arg, 1.0))))
    return np.where(b <= 0.0, 0.0, gamma)


@dataclass(frozen=True)
class PhaseErrorBound:
    phi_z_up: float
    v_x1_up: float
    insufficient_test_statistics: bool


def phase_error_bound(
    sb_x: ScaledCountBounds, eps_sec: float, s_z1_low, s_x1_low
) -> PhaseErrorBound:
    """Upper bound on the phase error rate of the Z single-photon events,
    from the X-basis estimators ``sb_x``.

    With no single-photon test statistics the bound degrades to maximal
    ignorance (1/2) and the report is flagged.  An error ratio of one also
    gives 1/2, unflagged.
    """
    f = sb_x.factors
    tested = np.minimum(s_x1_low, s_z1_low) > 0.0
    # placeholder sizes keep untested points finite
    s_x = np.where(tested, s_x1_low, 1.0)
    s_z = np.where(tested, s_z1_low, 1.0)
    v = f.tau1 * (sb_x.m_plus_mu - sb_x.m_minus_nu) / (f.p.mu - f.p.nu)
    v = np.minimum(np.maximum(v, 0.0), s_x)
    ratio = v / s_x
    phi = np.minimum(0.5, ratio + _gamma(eps_sec, ratio, s_x, s_z))
    return PhaseErrorBound(
        phi_z_up=np.where(tested & (ratio < 1.0), phi, 0.5)[()],
        v_x1_up=np.where(tested, v, 0.0)[()],
        insufficient_test_statistics=~tested,
    )


def _secure_length(counts: ObservedCounts, p: ProtocolParams) -> dict:
    """Every bound and the secure length of ``counts`` under ``p``, keyed
    by their ``KeyRateReport`` field names; arrays in either broadcast.

    Each basis's totals, deviations and estimators, and each intensity
    factor, are computed once.  A sample with no key-basis detections
    scores zero.
    """
    eps = EpsilonBudget.from_params(p)
    factors = DecoyFactors(p)
    z = scaled_count_bounds(counts, Basis.Z, factors, eps.eps_pe)
    x = scaled_count_bounds(counts, Basis.X, factors, eps.eps_pe)
    s_z0_low = vacuum_lower_bound(z)
    s_z0_up = vacuum_upper_bound(z)
    s_z1 = single_photon_bound(z, s_z0_up)
    s_x1 = single_photon_bound(x, vacuum_upper_bound(x))
    phase = phase_error_bound(x, eps.eps_sec, s_z1, s_x1)
    # an empty key basis has m = 0, so its error rate reads 0 / 1
    lambda_ec = p.f_ec * z.n_total * binary_entropy(z.m_total / np.maximum(z.n_total, 1.0))
    l = (
        s_z0_low
        + s_z1 * (1.0 - binary_entropy(phase.phi_z_up))
        - lambda_ec
        - 6.0 * math.log2(19.0 / eps.eps_sec)
        - math.log2(2.0 / eps.eps_cor)
    )
    return {
        "s_z0_low": s_z0_low,
        "s_z0_up": s_z0_up,
        "s_z1_low": s_z1,
        "s_x1_low": s_x1,
        "v_x1_up": phase.v_x1_up,
        "phi_z_up": phase.phi_z_up,
        "lambda_ec": lambda_ec,
        "l_bits": np.maximum(0.0, l),
        "insufficient_test_statistics": phase.insufficient_test_statistics,
    }


def key_length(counts: ObservedCounts, p: ProtocolParams) -> KeyRateReport:
    """Evaluate the secure length and key rate for an observed sample.

    Pure and deterministic in (counts, params).
    """
    n_z, m_z = counts.n_total(Basis.Z), counts.m_total(Basis.Z)
    if n_z == 0:
        raise EmptyKeyBasis("no sifted key-basis detections")
    terms = _secure_length(counts, p)
    flagged = bool(terms.pop("insufficient_test_statistics"))
    terms = {name: float(v) for name, v in terms.items()}
    eps = EpsilonBudget.from_params(p)
    return KeyRateReport(
        **terms,
        skr_bps=terms["l_bits"] * p.f_rep / p.n_pulses,
        n_z=n_z,
        m_z=m_z,
        eps_sec=eps.eps_sec,
        eps_cor=eps.eps_cor,
        eps_pe=eps.eps_pe,
        insufficient_test_statistics=flagged,
    )
