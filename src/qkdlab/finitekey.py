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

import numpy as np

from .core import Basis, KeyRateReport, ObservedCounts, ProtocolParams
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
    d = np.asarray(np.divide(n_total, 2.0))
    d *= math.log(1.0 / eps)
    return np.sqrt(d, out=d)[()]


class DecoyFactors:
    """The factors of the decoy-state bounds that depend only on the
    intensities and their probabilities in ``p``, computed once so that
    the bounds of both bases, and every p_z value of a grid, share them.

    Raises IntensityDegenerate unless mu - nu clears the minimum gap and
    nu > 0.
    """

    def __init__(self, p: ProtocolParams) -> None:
        self.gap = p.mu - p.nu  # which the bounds divide by
        if np.less(self.gap, _MIN_INTENSITY_GAP).any():
            raise IntensityDegenerate(f"mu - nu = {self.gap} too small")
        if np.less_equal(p.nu, 0.0).any():
            raise IntensityDegenerate("decoy intensity must be positive")
        self.mu, self.nu = p.mu, p.nu
        self.tau0 = tau_n(0, p)
        self.tau1 = tau_n(1, p)
        # e^k / p_k, the Poisson rescaling of each intensity's tallies, in
        # Intensity order
        self.scale = (np.exp(p.mu) / p.p_mu, np.exp(p.nu) / p.p_nu)
        # the single-photon bound's weights of the signal estimator and of
        # the vacuum term, and its overall scale tau1 mu / (nu (mu - nu))
        mu2, nu2 = p.mu * p.mu, p.nu * p.nu
        self.signal_weight = nu2 / mu2
        self.vacuum_weight = (mu2 - nu2) / mu2
        self.single_photon_scale = self.tau1 * (p.mu / (p.nu * self.gap))


# The bounds below read tallies indexed by intensity in Intensity order: one
# basis's row x of ``ObservedCounts.sift`` (n) or ``.err`` (m), or both bases'
# rows as x[intensity, basis, ...], with the Hoeffding deviation ``delta`` of
# each row's total.  The deviation uses the basis totals, as the whole basis
# sample fluctuates jointly.

def upper_estimate(f: DecoyFactors, x, k: int, delta):
    """(e^k / p_k)(x[k] + delta): the Poisson-rescaled upper estimator of
    intensity k's tally."""
    return f.scale[k] * (x[k] + delta)


def lower_estimate(f: DecoyFactors, x, k: int, delta):
    """(e^k / p_k)(x[k] - delta), clamped at zero: the Poisson-rescaled
    lower estimator of intensity k's tally."""
    return np.maximum(0.0, f.scale[k] * (x[k] - delta))


def vacuum_upper_bound(n_total, m_total, d_n):
    """Upper bound on the sifted events of a basis caused by empty pulses,
    from its detection and error totals (or each basis's, as arrays):
    every vacuum detection errs with probability one half."""
    return np.minimum(n_total, 2.0 * (m_total + d_n))


def vacuum_lower_bound(f: DecoyFactors, n, d_n):
    """Lower bound on the sifted events of one basis caused by empty
    pulses, from the decoy estimators of its detections ``n``."""
    low = f.tau0 * (f.mu * lower_estimate(f, n, 1, d_n) - f.nu * f.scale[0] * (n[0] + d_n))
    return np.maximum(0.0, low / f.gap)


def single_photon_bound(f: DecoyFactors, n, d_n, s0_up):
    """Lower bound on the sifted events caused by single-photon pulses,
    from the detections ``n`` of one basis or of both; ``s0_up`` is the
    vacuum upper bound of each."""
    inner = (
        lower_estimate(f, n, 1, d_n)
        - f.signal_weight * upper_estimate(f, n, 0, d_n)
        - f.vacuum_weight * (s0_up / f.tau0)
    )
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
    f: DecoyFactors, m_x, d_m, eps_sec: float, s_z1_low, s_x1_low
) -> PhaseErrorBound:
    """Upper bound on the phase error rate of the Z single-photon events,
    from the X-basis errors ``m_x`` and the deviation ``d_m`` of their
    total.

    With no single-photon test statistics the bound degrades to maximal
    ignorance (1/2) and the report is flagged.  An error ratio of one also
    gives 1/2, unflagged.
    """
    tested = np.minimum(s_x1_low, s_z1_low) > 0.0
    # placeholder sizes keep untested points finite
    s_x = np.where(tested, s_x1_low, 1.0)
    s_z = np.where(tested, s_z1_low, 1.0)
    v = f.tau1 * (upper_estimate(f, m_x, 0, d_m) - lower_estimate(f, m_x, 1, d_m)) / f.gap
    v = np.minimum(np.maximum(v, 0.0), s_x)
    ratio = v / s_x
    phi = np.minimum(0.5, ratio + _gamma(eps_sec, ratio, s_x, s_z))
    return PhaseErrorBound(
        phi_z_up=np.where(tested & (ratio < 1.0), phi, 0.5)[()],
        v_x1_up=np.where(tested, v, 0.0)[()],
        insufficient_test_statistics=~tested,
    )


def _secure_length(tally, f: DecoyFactors, p: ProtocolParams) -> dict:
    """Every bound and the secure length of the tallies ``tally``, indexed
    [n or m, basis, intensity, *grid], under the decoy factors ``f`` of
    their intensities, keyed by their ``KeyRateReport`` field names; ``p``
    supplies f_ec and the epsilons.  Arrays in either broadcast.

    The totals, their deviations, the vacuum upper bounds and the
    single-photon bounds are computed once for both bases, on [basis,
    *grid] arrays.  A sample with no key-basis detections scores zero.
    """
    eps = EpsilonBudget.from_params(p)
    # the detection (n) and error (m) totals of each basis, [basis, *grid]
    n, m = tally.sum(axis=2)
    d_n = hoeffding_delta(n, eps.eps_pe)
    s_z0_low = vacuum_lower_bound(f, tally[0, 0], d_n[0])
    s_0_up = vacuum_upper_bound(n, m, d_n)
    # an empty key basis has m = 0, so its error rate reads 0 / 1
    lambda_ec = p.f_ec * n[0] * binary_entropy(m[0] / np.maximum(n[0], 1.0))
    d_m = hoeffding_delta(m[1], eps.eps_pe)
    # The two bounds below hold the most temporaries at once, so each runs
    # with only what it reads alive: then the factors a grid holds for a
    # whole call add nothing to a block's peak.  The caller holds no other
    # reference to the tallies.
    del n, m
    # both bases' detections as rows [intensity, basis, *grid]
    s_1 = single_photon_bound(f, tally[0].swapaxes(0, 1), d_n, s_0_up)
    m_x = tally[1, 1].copy()
    del tally, d_n
    phase = phase_error_bound(f, m_x, d_m, eps.eps_sec, s_1[0], s_1[1])
    l = (
        s_z0_low
        + s_1[0] * (1.0 - binary_entropy(phase.phi_z_up))
        - lambda_ec
        - 6.0 * math.log2(19.0 / eps.eps_sec)
        - math.log2(2.0 / eps.eps_cor)
    )
    return {
        "s_z0_low": s_z0_low,
        "s_z0_up": s_0_up[0],
        "s_z1_low": s_1[0],
        "s_x1_low": s_1[1],
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
    n_z, m_z = int(counts.n_total(Basis.Z)), int(counts.m_total(Basis.Z))
    if n_z == 0:
        raise EmptyKeyBasis("no sifted key-basis detections")
    terms = _secure_length(np.stack((counts.sift, counts.err)), DecoyFactors(p), p)
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
