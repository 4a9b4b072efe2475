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
The composition runs in two stages.  ``_key_basis_bounds`` reads the Z
tallies alone and adds ``l_up``, a bound on the secure length that needs
no X tally.  The test-basis stage runs in three steps:
``_test_basis_bounds`` reads the X tallies alone and gives s_X1 and the
X single-photon error bound; ``_error_ratio`` composes them with the key
basis's bounds into the error ratio and the tighter bound ``l_up_x``; and
``_phase_bounds`` applies the phase error's finite-statistics correction
and composes the secure length.  ``key_length`` runs every step on one
sample and raises when it has no key-basis detections; the optimizer
runs them on grid blocks, and runs each step only where the bounds before
it say a point can matter.  The first of those bounds, B
(``_KeyBasisCeiling``), is made once for a row of points that differ
only in p_z, from the row's key-basis tallies at zero deviation, and
bounds ``l_up`` at each of them; B_x (``_ceiling_x``) lowers B by the
entropy of each point's X error ratio, from the X step alone.  The
optimizer's order is B, B_x, the key-basis stage (``l_up``), the error
ratio (``l_up_x``), the phase error.
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

    def take(self, at) -> "DecoyFactors":
        """The factors at the flat indices ``at`` of their broadcast shape,
        gathered: each point's factors are made from its own intensities
        and probabilities alone, so they are the numbers a ``DecoyFactors``
        of the gathered points would hold.  A 1-D factor spans the last
        axis."""
        f = object.__new__(type(self))
        shape = np.shape(self.tau0)
        col = at % shape[-1]
        for name, v in vars(self).items():
            parts = [a.take(col) if np.ndim(a) == 1 else np.broadcast_to(a, shape).take(at)
                     for a in (v if isinstance(v, tuple) else (v,))]
            setattr(f, name, tuple(parts) if isinstance(v, tuple) else parts[0])
        return f


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


def vacuum_lower_bound(f: DecoyFactors, n, d_n, decoy_low=None):
    """Lower bound on the sifted events of one basis caused by empty
    pulses, from the decoy estimators of its detections ``n``;
    ``decoy_low``, the decoy's ``lower_estimate``, is made unless given."""
    if decoy_low is None:
        decoy_low = lower_estimate(f, n, 1, d_n)
    low = f.tau0 * (f.mu * decoy_low - f.nu * f.scale[0] * (n[0] + d_n))
    return np.maximum(0.0, low / f.gap)


def single_photon_bound(f: DecoyFactors, n, d_n, s0_up, decoy_low=None):
    """Lower bound on the sifted events caused by single-photon pulses,
    from the detections ``n`` of one basis or of both; ``s0_up`` is the
    vacuum upper bound of each, and ``decoy_low`` as in
    ``vacuum_lower_bound``."""
    if decoy_low is None:
        decoy_low = lower_estimate(f, n, 1, d_n)
    inner = (
        decoy_low
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


def _compose(s_z0_low, s_z1_term, lambda_ec, eps: EpsilonBudget):
    """The secure-length formula before its clamp at zero, with
    ``s_z1_term`` in the place of s_Z1 (1 - h(phi_Z)).  The secure length
    and both bounds on it compose through it, so they share its operation
    order."""
    return (
        s_z0_low
        + s_z1_term
        - lambda_ec
        - 6.0 * math.log2(19.0 / eps.eps_sec)
        - math.log2(2.0 / eps.eps_cor)
    )


# An upper bound on binary_entropy's rounding error on [0, 1/2], with a
# margin of three orders of magnitude: each of its two terms is at most
# 0.53 and within a few ulps.
_ENTROPY_SLACK = 1e-12


def _key_basis_bounds(tally, f: DecoyFactors, p: ProtocolParams, d_n=None) -> dict:
    """The key-basis (Z) stage of the secure length: its bounds from its
    tallies ``tally``, indexed [n or m, intensity, *grid], under the decoy
    factors ``f`` of their intensities, keyed by their ``KeyRateReport``
    field names; ``p`` supplies f_ec and the epsilons.  Arrays in either
    broadcast.  ``d_n``, the deviation of the detection totals, is their
    Hoeffding deviation unless given.

    It adds ``l_up``, the composition with s_Z1 in the place of
    s_Z1 (1 - h(phi_Z)), an upper bound on the unclamped secure length
    that holds bit for bit in floats: h >= 0, so fl(1 - h) <= 1 and, with
    s_Z1 >= 0, fl(s_Z1 (1 - h)) <= s_Z1; ``_compose`` then applies the
    same roundings, each monotone, to the larger term.  So
    ``l_bits <= max(0, l_up)``, and a point with ``l_up <= 0`` has
    ``l_bits == 0``.
    """
    eps = EpsilonBudget.from_params(p)
    # the detection (n) and error (m) totals
    n, m = tally.sum(axis=1)
    if d_n is None:
        d_n = hoeffding_delta(n, eps.eps_pe)
    # the decoy's lower estimate, which both bounds read
    decoy_low = lower_estimate(f, tally[0], 1, d_n)
    s_z0_low = vacuum_lower_bound(f, tally[0], d_n, decoy_low)
    s_z0_up = vacuum_upper_bound(n, m, d_n)
    # an empty key basis has m = 0, so its error rate reads 0 / 1
    lambda_ec = p.f_ec * n * binary_entropy(m / np.maximum(n, 1.0))
    s_z1_low = single_photon_bound(f, tally[0], d_n, s_z0_up, decoy_low)
    return {
        "s_z0_low": s_z0_low,
        "s_z0_up": s_z0_up,
        "s_z1_low": s_z1_low,
        "lambda_ec": lambda_ec,
        "l_up": _compose(s_z0_low, s_z1_low, lambda_ec, eps),
    }


# lambda_EC's fall under the tallies' rounding, less its error-ratio term,
# in bits over f_ec (``_KeyBasisCeiling``)
_ROUNDING_ENTROPY = 3.0 * math.log2(math.e) + 2.0 * math.log2(3.0)

# A bound on the float rounding of the key-basis stage, of B and of B_x,
# relative to the sum of the magnitudes of their terms: about 1e-16 per
# operation over a few tens of operations, with a margin of five orders of
# magnitude
_FLOAT_SLACK = 1e-9


class _KeyBasisCeiling:
    """B, an upper bound on ``l_up`` at every p_z of a row of points that
    share their intensities and p_mu, for rows of key-basis tallies
    ``tally``, unrounded and at p_b = 1 (``rates.basis_tallies`` with
    ``rounded=False``); ``f`` and ``p`` are as in ``_key_basis_bounds``.

    With p_b = p_z^2 a row's unrounded tallies scale with p_z^2, and at zero
    deviation every key-basis bound is positively homogeneous of degree
    one in them, so s_Z0, s_Z1 and lambda_EC scale with p_z^2 too.  A
    deviation only lowers ``l_up``, each float operation being monotone,
    and s_Z1 has the form max(0, x - alpha d), where the Hoeffding
    deviation d of the rounded total is at least p_z d_1 - c_1, with d_1
    the row's deviation and c_1 that of one count.  So

        B = p_z^2 (s_Z0 - lambda_EC) + max(0, p_z^2 s_Z1 - p_z alpha d_1) - C + S

    with the row's terms at zero deviation and C ``_compose``'s constant.
    The slack S covers the rounding of each tally by up to 1/2, through
    each bound's sensitivity to it, the alpha c_1 term and float rounding
    (README, "B: one bound per (pair, p_mu) row"); ``slack`` is S - C."""

    def __init__(self, tally, f: DecoyFactors, p: ProtocolParams) -> None:
        eps = EpsilonBudget.from_params(p)
        n, m = tally.sum(axis=1)
        key = _key_basis_bounds(tally, f, p, 0.0)
        # the caller holds no other reference to the tallies
        del tally
        self.key_term, self.s_z1 = key["s_z0_low"] - key["lambda_ec"], key["s_z1_low"]
        del key
        # what s_Z1 loses per count of deviation (alpha), and what s_Z0
        # and s_Z1 gain at most when every tally moves by one count
        # (linear), which moves s_Z0^up = min(n, 2 m) by up to 4; the
        # rounding moves them by 1/2
        alpha = f.single_photon_scale * (f.scale[1] + f.signal_weight * f.scale[0])
        linear = (f.tau0 * (f.mu * f.scale[1] + f.nu * f.scale[0]) / f.gap + alpha
                  + f.single_photon_scale * (4.0 * f.vacuum_weight / f.tau0))
        d_1 = hoeffding_delta(n, eps.eps_pe)
        self.deviation = alpha * d_1
        # lambda_EC = f_ec n h(m / n) falls by at most f_ec (log2(1 + 2 n / m)
        # + _ROUNDING_ENTROPY) bits, and not at all where m = 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio_term = np.where(m > 0.0, np.log2(1.0 + 2.0 * n / m) + _ROUNDING_ENTROPY, 0.0)
        c = 6.0 * math.log2(19.0 / eps.eps_sec) + math.log2(2.0 / eps.eps_cor)
        magnitude = (2.0 * linear + p.f_ec) * (n + d_1) + c
        self.slack = (0.5 * linear + alpha * hoeffding_delta(1.0, eps.eps_pe)
                      + p.f_ec * ratio_term + _FLOAT_SLACK * magnitude - c)

    def at(self, p_z) -> tuple:
        """B at p_z, which broadcasts against the rows, and its s_Z1 term
        Z = max(0, p_z^2 s_Z1 - p_z alpha d_1)."""
        z = np.multiply(self.s_z1, p_z)
        z -= self.deviation
        np.maximum(z, 0.0, out=z)
        b = np.multiply(self.key_term, p_z)
        b += z
        b *= p_z
        b += self.slack
        z *= p_z
        return b, z


def _test_basis_bounds(tally, f: DecoyFactors, p: ProtocolParams) -> dict:
    """The test-basis (X) stage's first step, from the X tallies ``tally``
    alone, indexed as in ``_key_basis_bounds``: the X single-photon bound
    ``s_x1_low``, and ``v``, the X single-photon error bound from the X
    errors and their total's deviation before ``_error_ratio`` clamps it
    into [0, s_X1]."""
    eps = EpsilonBudget.from_params(p)
    n, m = tally.sum(axis=1)
    d_n = hoeffding_delta(n, eps.eps_pe)
    s_x1_low = single_photon_bound(f, tally[0], d_n, vacuum_upper_bound(n, m, d_n))
    d_m = hoeffding_delta(m, eps.eps_pe)
    del n, m, d_n
    m_x = tally[1]
    v = f.tau1 * (upper_estimate(f, m_x, 0, d_m) - lower_estimate(f, m_x, 1, d_m)) / f.gap
    return {"s_x1_low": s_x1_low, "v": v}


def _error_ratio(key: dict, test: dict, p: ProtocolParams) -> dict:
    """The test-basis stage's second step, from the key-basis stage's
    bounds ``key`` and the first step's ``test`` at the same points:
    whether a point is ``tested`` (both single-photon bounds positive),
    ``v`` clamped into [0, s_X1], and its ``ratio`` to s_X1 (taken as 1 at
    an untested point, to keep the ratio finite).

    It adds ``l_up_x``, the composition with the error ratio r in the
    place of phi_Z.  phi_Z >= min(1/2, r) in floats, since the correction
    is at least zero, and h rises on [0, 1/2], so h(phi_Z) >= h(r) less
    binary_entropy's rounding error.  ``_ENTROPY_SLACK`` added to
    1 - h(r) covers that error, so ``l_up_x`` bounds the unclamped secure
    length as ``l_up`` does.
    """
    eps = EpsilonBudget.from_params(p)
    s_x1_low, s_z1_low = test["s_x1_low"], key["s_z1_low"]
    tested = np.minimum(s_x1_low, s_z1_low) > 0.0
    s_x = np.where(tested, s_x1_low, 1.0)
    v = np.minimum(np.maximum(test["v"], 0.0), s_x)
    ratio = v / s_x
    del s_x
    entropy = binary_entropy(np.minimum(0.5, ratio))
    s_z1_term = s_z1_low * ((1.0 - entropy) + _ENTROPY_SLACK)
    return {
        "tested": tested,
        "v": v,
        "ratio": ratio,
        "l_up_x": _compose(key["s_z0_low"], s_z1_term, key["lambda_ec"], eps),
    }


def _ceiling_x(b, z, test) -> np.ndarray:
    """B_x, an upper bound on the unclamped secure length, from B and its
    s_Z1 term Z (``_KeyBasisCeiling.at``) and the test-basis stage's
    first step ``test`` at the same points; written over ``b``, and ``z``
    is spent.

    The secure length is l = (s_Z0 - lambda_EC) + s_Z1 (1 - h(phi_Z)) - C,
    and B's slack splits into a part that covers (s_Z0 - lambda_EC) less
    its term in B and a part that covers s_Z1 - Z, both at least zero
    (README, "B: one bound per (pair, p_mu) row").  So for any h_X in
    [0, 1] at most h(phi_Z) where s_Z1 (1 - h(phi_Z)) is not zero,

        l <= B - Z h_X = B_x.

    With r_X = min(max(v, 0), s_X1) / s_X1, ``_error_ratio``'s ratio at a
    tested point, h_X = max(0, h(min(1/2, r_X)) - ``_ENTROPY_SLACK``), and
    1 where s_X1 = 0.  At a tested point phi_Z >= min(1/2, r_X) and h
    rises on [0, 1/2] within the slack; elsewhere phi_Z = 1/2, h(1/2) = 1
    and the term is zero, as it is where s_Z1 = 0.  The three operations
    that B_x adds to B each round by at most 2^-53 of a number no larger
    than B's magnitude, which B's float slack (``_FLOAT_SLACK`` of it)
    covers with orders of magnitude to spare."""
    s_x = test["s_x1_low"]
    positive = s_x > 0.0
    h = np.maximum(test["v"], 0.0)
    np.minimum(h, s_x, out=h)
    np.divide(h, s_x, out=h, where=positive)
    np.minimum(h, 0.5, out=h)
    h = binary_entropy(h)
    h -= _ENTROPY_SLACK
    np.maximum(h, 0.0, out=h)
    np.copyto(h, 1.0, where=~positive)
    z *= h
    del h
    b -= z
    return b


def _phase_bounds(key: dict, test: dict, p: ProtocolParams) -> dict:
    """The phase-error bound and the secure length ``l_bits`` from the
    bounds of both stages, ``key`` and ``test``, at the same points.

    The finite-statistics correction gamma >= 0 carries the X error ratio
    onto the Z single-photon sample: phi_Z = min(1/2, ratio + gamma).  An
    untested point has no single-photon test statistics, so phi_Z is 1/2,
    maximal ignorance, and the point is flagged; a ratio of one also gives
    1/2, unflagged.  A sample with no key-basis detections scores zero."""
    eps = EpsilonBudget.from_params(p)
    tested, ratio = test["tested"], test["ratio"]
    # placeholder sizes keep untested points finite
    s_x, s_z = (np.where(tested, s, 1.0) for s in (test["s_x1_low"], key["s_z1_low"]))
    phi = np.minimum(0.5, ratio + _gamma(eps.eps_sec, ratio, s_x, s_z))
    phi = np.where(tested & (ratio < 1.0), phi, 0.5)[()]
    s_z1_term = key["s_z1_low"] * (1.0 - binary_entropy(phi))
    return {
        "v_x1_up": np.where(tested, test["v"], 0.0)[()],
        "phi_z_up": phi,
        "l_bits": np.maximum(0.0, _compose(key["s_z0_low"], s_z1_term, key["lambda_ec"], eps)),
        "insufficient_test_statistics": ~tested,
    }


def key_length(counts: ObservedCounts, p: ProtocolParams) -> KeyRateReport:
    """Evaluate the secure length and key rate for an observed sample.

    Pure and deterministic in (counts, params).
    """
    n_z, m_z = int(counts.n_total(Basis.Z)), int(counts.m_total(Basis.Z))
    if n_z == 0:
        raise EmptyKeyBasis("no sifted key-basis detections")
    f = DecoyFactors(p)
    key = _key_basis_bounds(np.stack((counts.sift[0], counts.err[0])), f, p)
    test = _test_basis_bounds(np.stack((counts.sift[1], counts.err[1])), f, p)
    test.update(_error_ratio(key, test, p))
    terms = _phase_bounds(key, test, p)
    flagged = bool(terms.pop("insufficient_test_statistics"))
    del key["l_up"]
    terms = {name: float(v) for name, v in {**key, "s_x1_low": test["s_x1_low"], **terms}.items()}
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
