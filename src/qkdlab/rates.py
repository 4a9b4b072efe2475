"""Closed-form expected protocol statistics under the Poisson-source,
threshold-detector model.

Two levels are provided.  ``expected_statistics`` uses the standard
decoy-state textbook formulas (gain and QBER per intensity) and drives the
finite-key pipeline and the optimizer.  It and the formulas it is built
from broadcast: a ``ProtocolParams`` whose intensities and probabilities
are numpy arrays yields arrays, so one parameter point and a whole grid
block go through the same code.  ``expected_sifted_cells`` enumerates the
16 detector click patterns exactly and is the oracle the Monte Carlo
simulator is audited against; the textbook formulas approximate it to about
a percent (they route dark-only clicks with the splitter ratio rather than
uniformly over detectors).
"""

from __future__ import annotations

import itertools
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
    det = link.detector
    return 1.0 - (1.0 - det.dark_prob_per_gate) ** det.n_detectors


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
    """Gains, QBERs and expected sifted tallies for a parameter set."""

    q_mu: float
    q_nu: float
    e_z_mu: float
    e_z_nu: float
    e_x_mu: float
    e_x_nu: float
    counts: ObservedCounts

    def pooled_qber(self, b: Basis) -> float:
        c = self.counts
        n = c.n_total(b)
        return c.m_total(b) / n if n else 0.5


def _round_half_up(x):
    return np.floor(x + 0.5)


def expected_statistics(p: ProtocolParams, link: LinkModel) -> ExpectedStatistics:
    """Expected gains, QBERs and sifted tallies for n_pulses emitted pulses.

    Cell tallies follow n[b][k] = N p_k p_b^A p_b^B q_k and m = e n,
    rounded half-up; m <= n since e <= 1/2.  A cell computed from scalars
    is a Python int.
    """
    mean = {"mu": p.mu, "nu": p.nu}
    p_k = {"mu": p.p_mu, "nu": p.p_nu}
    q = {k: gain(link, mean[k]) for k in mean}
    e = {k: qber(link, mean[k]) for k in mean}
    cells = {}
    for b, basis, p_b in (
        ("z", Basis.Z, p.p_z_alice * p.p_z_bob),
        ("x", Basis.X, (1.0 - p.p_z_alice) * (1.0 - p.p_z_bob)),
    ):
        for k in mean:
            expected = p.n_pulses * p_k[k] * p_b * q[k]
            cells[f"n_{b}_{k}"] = _round_half_up(expected)
            cells[f"m_{b}_{k}"] = _round_half_up(expected * e[k][basis])
    cells = {name: v if isinstance(v, np.ndarray) else int(v) for name, v in cells.items()}
    return ExpectedStatistics(
        q_mu=q["mu"],
        q_nu=q["nu"],
        e_z_mu=e["mu"][Basis.Z],
        e_z_nu=e["nu"][Basis.Z],
        e_x_mu=e["mu"][Basis.X],
        e_x_nu=e["nu"][Basis.X],
        counts=ObservedCounts(**cells),
    )


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


def _pattern_stats(lam, dark):
    """Distribution over (chosen detector) for independent per-detector
    Poisson means ``lam`` and dark probability; multi-click resolved
    uniformly among clicked detectors.

    Returns (p_chosen[4], p_any, p_multi)."""
    c = [1.0 - math.exp(-l) * (1.0 - dark) for l in lam]
    chosen = [0.0, 0.0, 0.0, 0.0]
    p_any = 0.0
    p_multi = 0.0
    for pattern in range(1, 16):
        members = [d for d in range(4) if pattern >> d & 1]
        prob = 1.0
        for d in range(4):
            prob *= c[d] if pattern >> d & 1 else 1.0 - c[d]
        p_any += prob
        if len(members) > 1:
            p_multi += prob
        share = prob / len(members)
        for d in members:
            chosen[d] += share
    return chosen, p_any, p_multi


def expected_sifted_cells(p: ProtocolParams, link: LinkModel) -> ExactCellProbabilities:
    """Exact per-pulse cell probabilities for the pulse-level detection
    model (independent Poisson streams per detector, threshold squashing,
    uniform multi-click resolution)."""
    eta = link.eta_sys
    dark = link.detector.dark_prob_per_gate
    sift = {(b, k): 0.0 for b in Basis for k in Intensity}
    err = {(b, k): 0.0 for b in Basis for k in Intensity}
    multi = 0.0
    any_click = 0.0
    vac_z = single_z = single_x = single_x_err = 0.0
    for b, bit, k in itertools.product(Basis, (0, 1), Intensity):
        weight = p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5
        state = optics.apply_channel(optics.prepare_state(b, bit), link.rotation_angle)
        rho = optics.detection_weights(state, p.p_z_bob, link.e_mis_z, link.e_mis_x)
        mean = eta * p.mean_photons(k)
        lam = [mean * w for w in rho]
        chosen, p_any, p_multi = _pattern_stats(lam, dark)
        any_click += weight * p_any
        multi += weight * p_multi
        for d in range(4):
            bob_basis = Basis.Z if d < 2 else Basis.X
            if bob_basis is not b:
                continue
            sift[b, k] += weight * chosen[d]
            if d & 1 != bit:
                err[b, k] += weight * chosen[d]
        # photon-number-conditioned tallies: P(n emitted photons) times the
        # chosen-detector distribution given that Poisson composition
        for n_phot, tag in ((0, "vac"), (1, "one")):
            p_n = math.exp(-p.mean_photons(k)) * p.mean_photons(k) ** n_phot
            if n_phot == 0:
                lam_n = [0.0] * 4
                chosen_n, _, _ = _pattern_stats(lam_n, dark)
            else:
                # one emitted photon: survives with eta and routes by rho
                chosen_n = [0.0] * 4
                for route in range(5):  # 4 = lost
                    if route < 4:
                        p_route = eta * rho[route]
                        clicks_base = 1 << route
                    else:
                        p_route = 1.0 - eta
                        clicks_base = 0
                    if p_route == 0.0:
                        continue
                    # overlay dark pattern
                    for dpat in range(16):
                        dp = 1.0
                        for d in range(4):
                            dp *= dark if dpat >> d & 1 else 1.0 - dark
                        pat = clicks_base | dpat
                        if pat == 0:
                            continue
                        members = [d for d in range(4) if pat >> d & 1]
                        share = p_route * dp / len(members)
                        for d in members:
                            chosen_n[d] += share
            for d in range(4):
                bob_basis = Basis.Z if d < 2 else Basis.X
                if bob_basis is not b:
                    continue
                contrib = weight * p_n * chosen_n[d]
                if b is Basis.Z:
                    if n_phot == 0:
                        vac_z += contrib
                    else:
                        single_z += contrib
                else:
                    if n_phot == 1:
                        single_x += contrib
                        if d & 1 != bit:
                            single_x_err += contrib
    return ExactCellProbabilities(
        sift=sift,
        err=err,
        multi_click=multi,
        any_click=any_click,
        vacuum_z=vac_z,
        single_z=single_z,
        single_x=single_x,
        single_x_err=single_x_err,
    )
