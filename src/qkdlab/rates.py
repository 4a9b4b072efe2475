"""Closed-form expected protocol statistics under the Poisson-source,
threshold-detector model.

Two levels are provided.  ``expected_statistics`` uses the standard
decoy-state textbook formulas (gain and QBER per intensity) and drives the
finite-key pipeline; the optimizer calls its two steps,
``intensity_terms`` and ``basis_tallies``, itself, one basis at a time.
They and the formulas they are built from broadcast: a
``ProtocolParams`` whose intensities and probabilities are numpy arrays
yields arrays, so one parameter point and a whole grid block go through
the same code.
``expected_sifted_cells`` enumerates the 16 detector click patterns exactly
(``click_patterns``) and is the oracle the Monte Carlo simulator is audited
against.  The simulator samples the rule the oracle sums over: Alice's
classes from ``preparation_weights``, and each gate's click resolution and
sifting from the pattern tables ``_FIRES``, ``_SHARE`` and ``_SIFTED``.

The textbook formulas route dark-only clicks with the splitter ratio, where
the exact model routes them uniformly over the four detectors, so the two
part where dark clicks matter.  With the default parameters (exact /
textbook), detection cells agree to 0.999-1.013 back-to-back but to
0.96-1.33 at 14.6 dB, and error cells to 0.90-1.82 and 0.61-4.53.  At
14.6 dB the pooled QBERs are 1.405 % against 2.046 % in Z and 7.15 %
against 2.07 % in X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Basis, Intensity, LinkModel, ObservedCounts, ParamError, ProtocolParams
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
    # new arrays, 0-d for a 0-d x, that the steps below work in
    inner = np.asarray(np.maximum(x, 1e-300))
    np.minimum(inner, 1.0 - 1e-16, out=inner)
    outer = np.subtract(1.0, inner, out=np.empty_like(inner))
    # -(a b + c d), which equals -a b - c d bit for bit
    h = np.log2(inner, out=np.empty_like(inner))
    h *= inner
    cd = np.log2(outer, out=inner)  # inner's buffer is free now
    cd *= outer
    h += cd
    np.negative(h, out=h)
    np.copyto(h, 0.0, where=(x <= 0.0) | (x >= 1.0))
    return h[()]


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


def intensity_terms(link: LinkModel, mu, nu) -> tuple:
    """The factors of the expected tallies that the link and the
    intensities give: ``(q, e)``, the gain ``q[k]`` and the per-basis QBERs
    ``e[k][b]`` of each intensity, in Intensity and Basis order.  They are
    free of the probabilities, so a grid computes them once for every
    p_mu and p_z value."""
    means = (mu, nu)
    return (
        tuple(gain(link, k) for k in means),
        tuple(tuple(qber(link, k).values()) for k in means),
    )


def basis_tallies(n_pulses, p_mu, p_b, q, e_b, rounded=True) -> np.ndarray:
    """The expected sifted tallies of one basis, ``[n or m, intensity,
    *grid]``, for n_pulses pulses: ``p_b`` is the probability that Alice
    and Bob both choose the basis, ``q`` and ``e_b`` the gain and the
    basis's QBER of each intensity, in Intensity order.

    Cell tallies follow n[k] = N p_k p_b q_k and m = e n, rounded half-up
    unless ``rounded`` is false; m <= n since e <= 1/2.  The factors other
    than q_k are multiplied on the sub-grid they span; the product with
    q_k and the QBER product run in the cell's slot of the tally array,
    which has the shape of all the inputs.  Each point's tallies are
    products of that point's inputs alone, so the tallies of some points
    of a grid, from their inputs gathered, are the same numbers.
    """
    p_k = (p_mu, 1.0 - p_mu)
    # each QBER has the shape of its intensity's gain
    shape = np.broadcast_shapes(*map(np.shape, (p_mu, p_b, *q)))
    tally = np.empty((2, 2) + shape)
    for k in range(2):
        # `...` keeps a 0-d slot a view; m is taken from n before the
        # whole array is rounded
        n, m = tally[0, k, ...], tally[1, k, ...]
        np.multiply(n_pulses * p_k[k] * p_b, q[k], out=n)
        np.multiply(n, e_b[k], out=m)
    if not rounded:
        return tally
    tally += 0.5
    return np.floor(tally, out=tally)


def expected_statistics(p: ProtocolParams, link: LinkModel) -> ExpectedStatistics:
    """Expected gains, QBERs and sifted tallies for n_pulses emitted pulses
    (``basis_tallies`` of each basis from ``intensity_terms``)."""
    q, e = intensity_terms(link, p.mu, p.nu)
    p_b = (p.p_z_alice * p.p_z_bob, (1.0 - p.p_z_alice) * (1.0 - p.p_z_bob))
    # [n or m, basis, intensity, *grid]
    tally = np.stack(
        [basis_tallies(p.n_pulses, p.p_mu, p_b[b], q, (e[0][b], e[1][b])) for b in range(2)],
        axis=1,
    )
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


def preparation_weights(p: ProtocolParams) -> np.ndarray:
    """``weight[c, k]``: the probability that Alice sends (basis, bit) class
    c = (basis << 1) | bit, Basis order, at intensity k, Intensity order."""
    return np.array([[p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5 for k in Intensity]
                     for b in Basis for _bit in (0, 1)])


def expected_sifted_cells(p: ProtocolParams, link: LinkModel) -> ExactCellProbabilities:
    """Exact per-pulse cell probabilities for the pulse-level detection
    model (independent Poisson streams per detector, threshold squashing,
    uniform multi-click resolution)."""
    eta = link.eta_sys
    dark = link.detector.dark_prob_per_gate
    # rho[c, d]: where a detected photon of (basis, bit) class c lands
    rho = optics.routing_weights(link.rotation_angle, p.p_z_bob, link.e_mis_z, link.e_mis_x)
    means = np.array([p.mean_photons(k) for k in Intensity])
    weight = preparation_weights(p)
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

    def pooled(e_mis: float) -> float:
        lk = replace(link, e_mis_z=e_mis, e_mis_x=e_mis)
        cells = expected_sifted_cells(p, lk)
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
