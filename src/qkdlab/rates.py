"""Closed-form expected protocol statistics under the Poisson-source,
threshold-detector model.

Two levels are provided.  ``expected_statistics`` uses the standard
decoy-state textbook formulas (gain and QBER per intensity) and drives the
finite-key pipeline and the optimizer.  It and the formulas it is built
from broadcast: a ``ProtocolParams`` whose intensities and probabilities
are numpy arrays yields arrays, so one parameter point and a whole grid
block go through the same code.  ``expected_sifted_cells`` enumerates the
16 detector click patterns exactly (``click_patterns``) and is the oracle
the Monte Carlo simulator is audited against.

The textbook formulas route dark-only clicks with the splitter ratio,
where the exact model routes them uniformly over the four detectors, so
the two part where dark clicks matter.  With the default parameters (exact / textbook), detection
cells agree to 0.999-1.013 back-to-back but to 0.96-1.33 at 14.6 dB, and
error cells to 0.90-1.82 and 0.61-4.53.  At 14.6 dB the pooled QBERs are
1.405 % against 2.046 % in Z and 7.15 % against 2.07 % in X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Basis, Intensity, LinkModel, ObservedCounts, ProtocolParams
from . import optics


class EntropyDomainError(ValueError):
    """Raised when binary_entropy is evaluated outside [0, 1]."""


def binary_entropy(x):
    """Shannon entropy of a bit with bias x, in bits; h(0) = h(1) = 0.

    The logarithms see x clipped into [1e-300, 1 - 1e-16], so no element
    takes the log of zero."""
    x = np.asarray(x)
    if not (x.min() >= 0.0 and x.max() <= 1.0):
        raise EntropyDomainError(f"binary_entropy argument {x} outside [0, 1]")
    inner = np.minimum(np.maximum(x, 1e-300), 1.0 - 1e-16)
    outer = 1.0 - inner
    h = -inner * np.log2(inner) - outer * np.log2(outer)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)[()]


def tau_n(n: int, p: ProtocolParams):
    """Probability that an emitted pulse contains exactly n photons under
    the two-intensity Poisson mixture, sum_k p_k k^n e^-k / n!."""
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    fact = math.factorial(n)

    def term(p_k, k):
        # (p_k / n!) k ... k: no power or factorial at the size of k
        t = p_k / fact
        for _ in range(n):
            t = t * k
        return t * np.exp(-k)

    return term(p.p_mu, p.mu) + term(p.p_nu, p.nu)


def dark_total(link: LinkModel) -> float:
    """Probability that at least one of the detectors fires dark in a gate."""
    return 1.0 - (1.0 - link.detector.dark_prob_per_gate) ** len(optics.ANALYZERS)


def gain(link: LinkModel, k):
    """Probability of >= 1 click for a pulse of mean photon number k."""
    return 1.0 - (1.0 - dark_total(link)) * np.exp(-link.eta_sys * k)


def qber(link: LinkModel, k) -> dict:
    """Error probability of a sifted bit from a pulse of mean photon
    number k, per basis: dark-driven clicks err half the time, signal
    clicks err with the basis's misalignment flip probability.  Where the
    gain is 0 (no light and no dark counts) there is no error either, and
    the QBER is 0."""
    dark = 0.5 * dark_total(link)
    signal = -np.expm1(-link.eta_sys * k)
    q = gain(link, k)
    # a zero gain has a zero numerator: divide it by 1, not 0
    q = np.where(q > 0.0, q, 1.0)
    return {b: np.minimum(0.5, (dark + link.e_mis(b) * signal) / q) for b in Basis}


@dataclass(frozen=True)
class ExpectedStatistics:
    """Gains and expected sifted tallies for a parameter set."""

    q_mu: float
    q_nu: float
    counts: ObservedCounts

    def pooled_qber(self, b: Basis) -> float:
        c = self.counts
        n = c.n_total(b)
        return c.m_total(b) / n if n else 0.5


def expected_statistics(p: ProtocolParams, link: LinkModel) -> ExpectedStatistics:
    """Expected gains, QBERs and sifted tallies for n_pulses emitted pulses.

    Cell tallies follow n[b, k] = N p_k p_b^A p_b^B q_k and m = e n,
    rounded half-up; m <= n since e <= 1/2.  Each intensity's cells are
    computed on the sub-grid its parameters span, then broadcast into the
    tally arrays, which have the shape of all the parameters.
    """
    intensities = ((p.mu, p.p_mu), (p.nu, p.p_nu))
    p_b = (p.p_z_alice * p.p_z_bob, (1.0 - p.p_z_alice) * (1.0 - p.p_z_bob))
    q = [gain(link, mean) for mean, _ in intensities]
    shape = np.broadcast(p.mu, p.nu, p.p_mu, p.p_z_alice, p.p_z_bob).shape
    tally = np.empty((2, 2, 2) + shape)  # [n or m, basis, intensity, *grid]
    for k, (mean, p_k) in enumerate(intensities):
        # qber's values are in Basis order
        for b, e in enumerate(qber(link, mean).values()):
            expected = p.n_pulses * p_k * p_b[b] * q[k]
            tally[0, b, k] = np.floor(expected + 0.5)
            tally[1, b, k] = np.floor(expected * e + 0.5)
    return ExpectedStatistics(q_mu=q[0], q_nu=q[1], counts=ObservedCounts(*tally))


@dataclass(frozen=True)
class ExactCellProbabilities:
    """Per-emitted-pulse probabilities from exact click-pattern enumeration.

    ``sift`` and ``err`` map (basis, intensity) to the probability that a
    pulse lands in that sifted cell (resp. errs there).  ``multi_click`` is
    the probability of >= 2 detectors firing in a gate, ``any_click`` of
    >= 1.  ``vacuum_z`` / ``single_z`` / ``single_x`` / ``single_x_err``
    condition the sifted cells on the emitted photon number.
    """

    sift: dict
    err: dict
    multi_click: float
    any_click: float
    vacuum_z: float
    single_z: float
    single_x: float
    single_x_err: float


# _FIRES[s, d]: detector d fires in click pattern s (bit d of s), over the
# 16 patterns of the 4 detectors in optics.ANALYZERS order
_FIRES = np.arange(16)[:, None] >> np.arange(4) & 1 == 1
# _SHARE[s, d]: probability that pattern s resolves to detector d; a
# multi-click resolves uniformly among its clicks, pattern 0 to none
_SHARE = _FIRES / np.maximum(_FIRES.sum(axis=1, keepdims=True), 1)
_MULTI = _FIRES.sum(axis=1) > 1
# A pulse of (basis, bit) class c = (basis << 1) | bit, Basis order, that
# resolves to detector d is sifted (_SIFTED[0][c, d]) when Bob's arm d >> 1
# is Alice's basis c >> 1, and errs (_SIFTED[1][c, d]) when the low bits
# then differ
_SAME_ARM = np.arange(4)[:, None] >> 1 == np.arange(4) >> 1
_SIFTED = np.stack([_SAME_ARM, _SAME_ARM & ((np.arange(4)[:, None] ^ np.arange(4)) & 1 == 1)])


def click_patterns(c):
    """Probability of each of the 16 click patterns of independent
    detectors that fire with probabilities ``c`` (a trailing axis of 4, any
    leading shape): shape ``c.shape[:-1] + (16,)``."""
    c = np.asarray(c, dtype=np.float64)[..., None, :]
    return np.where(_FIRES, c, 1.0 - c).prod(axis=-1)


def expected_sifted_cells(p: ProtocolParams, link: LinkModel) -> ExactCellProbabilities:
    """Exact per-pulse cell probabilities for the pulse-level detection
    model (independent Poisson streams per detector, threshold squashing,
    uniform multi-click resolution)."""
    eta = link.eta_sys
    dark = link.detector.dark_prob_per_gate
    # rho[c, d]: where a detected photon of (basis, bit) class c lands
    rho = optics.routing_weights(link.rotation_angle, p.p_z_bob, link.e_mis_z, link.e_mis_x)
    means = np.array([p.mean_photons(k) for k in Intensity])
    # weight[c, k]: Alice sends class c at intensity k
    weight = np.array([
        [p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5 for k in Intensity]
        for b in Basis
        for _bit in (0, 1)
    ])
    # per-detector click probabilities, then patterns[c, case, s] for the
    # cases signal, decoy (Poisson light), vacuum and one emitted photon,
    # which survives with eta and lands on detector r with rho[c, r]
    light = 1.0 - np.exp(-(eta * means)[:, None] * rho[:, None, :]) * (1.0 - dark)
    vacuum = click_patterns(np.full(4, dark))
    forced = click_patterns(np.where(np.eye(4, dtype=bool), 1.0, dark))
    one = (1.0 - eta) * vacuum + eta * rho @ forced
    patterns = np.concatenate([
        click_patterns(light),
        np.broadcast_to(vacuum, (4, 1, 16)),
        one[:, None, :],
    ], axis=1)
    # each case's weight: the Poisson classes as sent, the photon-number
    # cases times P(n photons) summed over intensities
    p_n = [np.exp(-means) * means**n for n in (0, 1)]
    case_weight = np.concatenate([weight] + [(weight @ pn)[:, None] for pn in p_n], axis=1)
    chosen = patterns @ _SHARE * case_weight[..., None]
    # [sifted or erred, basis, case]: summed over the detectors and the bit
    tally = (chosen * _SIFTED[:, :, None, :]).sum(axis=-1).reshape(2, 2, 2, -1).sum(axis=2)
    sift, err = tally.tolist()
    poisson = patterns[:, :2] * weight[..., None]
    return ExactCellProbabilities(
        sift={(b, k): sift[i][j] for i, b in enumerate(Basis) for j, k in enumerate(Intensity)},
        err={(b, k): err[i][j] for i, b in enumerate(Basis) for j, k in enumerate(Intensity)},
        multi_click=float(poisson[..., _MULTI].sum()),
        any_click=float(poisson[..., 1:].sum()),
        vacuum_z=sift[0][2],
        single_z=sift[0][3],
        single_x=sift[1][3],
        single_x_err=err[1][3],
    )
