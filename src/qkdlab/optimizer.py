"""Grid search over protocol parameters and key-rate-versus-loss scans.

The objective is the secure length evaluated on the closed-form expected
statistics.  ``evaluate_grid`` mirrors the scalar rates -> finitekey
pipeline term by term on broadcast per-axis inputs, laid out as
(p_z, p_mu, mu, nu) and scored in cache-sized blocks; the incumbent is then
re-scored through the scalar path so the reported value is exactly what
``finitekey.key_length`` produces.  Ties resolve to the lexicographically
smallest (mu, nu, p_mu, p_z), so any evaluation order yields the same
incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Basis, LinkModel, ProtocolParams
from . import finitekey, rates


class EmptyFeasibleSet(ValueError):
    """Raised when no grid point yields a positive secure length."""


def _steps(lo: float, hi: float, step: float) -> tuple:
    n = int(round((hi - lo) / step))
    return tuple(round(lo + i * step, 10) for i in range(n + 1))


@dataclass(frozen=True)
class GridSpec:
    """Search grid; p_z is fixed to a single value by default."""

    mu_values: tuple = _steps(0.10, 0.90, 0.02)
    nu_values: tuple = _steps(0.01, 0.50, 0.01)
    p_mu_values: tuple = _steps(0.10, 0.95, 0.05)
    p_z_values: tuple = (0.9,)

    def __post_init__(self) -> None:
        for name in ("mu_values", "nu_values", "p_mu_values", "p_z_values"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        if max(self.mu_values) <= min(self.nu_values):
            raise ValueError("mu range upper end must exceed nu range lower end")


_MIN_GAP = 1e-9


def _entropy(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    inner = np.clip(x, 1e-300, 1.0 - 1e-16)
    h = -inner * np.log2(inner) - (1.0 - inner) * np.log2(1.0 - inner)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


# Points scored per block.  2^14 float64 is glibc's default mmap threshold
# (128 KiB): below it, block temporaries reuse heap memory.  Blocks of 2^15
# points took 13x the minor page faults and ran slower; 2^13 paid more
# per-block Python overhead than it saved.
_BLOCK_POINTS = 1 << 14


def evaluate_grid(
    mu: np.ndarray,
    nu: np.ndarray,
    p_mu: np.ndarray,
    p_z: np.ndarray,
    p0: ProtocolParams,
    link: LinkModel,
) -> np.ndarray:
    """Secure length at each parameter tuple, broadcasting the four inputs
    against each other; infeasible tuples (nu >= mu, empty key basis) score
    zero.  The result has the broadcast shape.

    It is filled in blocks of at most ``_BLOCK_POINTS`` points: runs of rows
    of the first axis, or one row at a time (recursively) when a row is
    larger.  Each term is computed on the sub-grid its inputs span, so with
    per-axis inputs the QBERs cost (mu, nu) points and the basis weights
    p_z points; only the counts and bounds run at full size."""
    arrays = [np.asarray(a, dtype=np.float64) for a in (mu, nu, p_mu, p_z)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if not shape:
        return _score(*arrays, p0, link)
    out = np.empty(shape)
    _fill(out, [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in arrays], p0, link)
    return out


def _fill(out: np.ndarray, arrays: list, p0: ProtocolParams, link: LinkModel) -> None:
    """Score ``arrays`` (each of ``out``'s rank, broadcastable to it) into
    ``out`` block by block."""
    row = math.prod(out.shape[1:])
    if out.ndim > 1 and row > _BLOCK_POINTS:
        for i in range(out.shape[0]):
            _fill(out[i], [a[i] if len(a) > 1 else a[0] for a in arrays], p0, link)
        return
    step = max(1, _BLOCK_POINTS // max(1, row))
    for r in range(0, out.shape[0], step):
        rows = slice(r, r + step)
        out[rows] = _score(*(a[rows] if len(a) > 1 else a for a in arrays), p0, link)


def _score(mu, nu, p_mu, p_z, p0: ProtocolParams, link: LinkModel) -> np.ndarray:
    """evaluate_grid on one block; mirrors rates -> finitekey term by term."""
    eta = link.eta_sys
    d_tot = rates.dark_total(link)
    n_pulses = float(p0.n_pulses)
    eps_sec, eps_cor, f_ec = p0.eps_sec, p0.eps_cor, p0.f_ec
    eps_pe = eps_sec / 19.0
    log_pe = math.log(1.0 / eps_pe)

    valid = (nu < mu - _MIN_GAP) & (nu > 0.0)
    mu_s = np.where(valid, mu, nu + 1.0)  # placeholder keeps arithmetic finite

    q = {}
    e = {}
    for tag, k in (("mu", mu_s), ("nu", nu)):
        q[tag] = 1.0 - (1.0 - d_tot) * np.exp(-eta * k)
        sig = -np.expm1(-eta * k)
        e[("Z", tag)] = np.minimum(0.5, (0.5 * d_tot + link.e_mis_z * sig) / q[tag])
        e[("X", tag)] = np.minimum(0.5, (0.5 * d_tot + link.e_mis_x * sig) / q[tag])

    pb = {"Z": p_z * p_z, "X": (1.0 - p_z) * (1.0 - p_z)}
    pk = {"mu": p_mu, "nu": 1.0 - p_mu}
    n = {}
    m = {}
    for b in ("Z", "X"):
        for tag in ("mu", "nu"):
            base = n_pulses * pk[tag] * pb[b] * q[tag]
            n[b, tag] = _round_half_up(base)
            m[b, tag] = np.minimum(n[b, tag], _round_half_up(base * e[(b, tag)]))

    scale = {"mu": np.exp(mu_s) / pk["mu"], "nu": np.exp(nu) / pk["nu"]}
    tau0 = pk["mu"] * np.exp(-mu_s) + pk["nu"] * np.exp(-nu)
    tau1 = pk["mu"] * mu_s * np.exp(-mu_s) + pk["nu"] * nu * np.exp(-nu)
    nu_over_mu_sq = nu**2 / mu_s**2
    gap_over_mu_sq = (mu_s**2 - nu**2) / mu_s**2
    pref = mu_s / (nu * (mu_s - nu))

    tau1_pref = tau1 * pref
    n_tot, m_tot, d_n, n_minus_nu, s1 = {}, {}, {}, {}, {}
    for b in ("Z", "X"):
        n_tot[b] = n[b, "mu"] + n[b, "nu"]
        m_tot[b] = m[b, "mu"] + m[b, "nu"]
        d_n[b] = np.sqrt(n_tot[b] / 2.0 * log_pe)
        n_minus_nu[b] = np.maximum(0.0, scale["nu"] * (n[b, "nu"] - d_n[b]))
        n_plus_mu = scale["mu"] * (n[b, "mu"] + d_n[b])
        s0_up = np.minimum(n_tot[b], 2.0 * (m_tot[b] + d_n[b]))
        inner = (
            n_minus_nu[b]
            - nu_over_mu_sq * n_plus_mu
            - gap_over_mu_sq * (s0_up / tau0)
        )
        s1[b] = np.maximum(0.0, tau1_pref * inner)

    n_z_tot, m_z_tot = n_tot["Z"], m_tot["Z"]
    s0_low = tau0 * (
        mu_s * n_minus_nu["Z"] - nu * scale["mu"] * (n["Z", "mu"] + d_n["Z"])
    ) / (mu_s - nu)
    s0_low = np.maximum(0.0, s0_low)

    d_m_x = np.sqrt(m_tot["X"] / 2.0 * log_pe)
    v = tau1 * (
        scale["mu"] * (m["X", "mu"] + d_m_x)
        - np.maximum(0.0, scale["nu"] * (m["X", "nu"] - d_m_x))
    ) / (mu_s - nu)
    s_x1 = s1["X"]
    s_z1 = s1["Z"]
    have_stats = (s_x1 > 0.0) & (s_z1 > 0.0)
    sx = np.where(have_stats, s_x1, 1.0)
    sz = np.where(have_stats, s_z1, 1.0)
    ratio = np.clip(v, 0.0, sx) / sx
    b_ = np.clip(ratio, 0.0, 1.0 - 1e-16)
    s_sum, s_prod = sx + sz, sx * sz
    front = s_sum * (1.0 - b_) * b_ / (s_prod * math.log(2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = s_sum / (s_prod * (1.0 - b_) * b_) * (21.0 / eps_sec) ** 2
        gamma = np.sqrt(np.maximum(0.0, front * np.log2(np.maximum(arg, 1.0))))
    gamma = np.where(b_ <= 0.0, 0.0, gamma)
    phi = np.minimum(0.5, ratio + gamma)
    phi = np.where(have_stats & (ratio < 1.0), phi, 0.5)

    qber_z = np.where(n_z_tot > 0, m_z_tot / np.maximum(n_z_tot, 1.0), 0.0)
    lambda_ec = f_ec * n_z_tot * _entropy(qber_z)
    l = (
        s0_low
        + s_z1 * (1.0 - _entropy(phi))
        - lambda_ec
        - 6.0 * math.log2(19.0 / eps_sec)
        - math.log2(2.0 / eps_cor)
    )
    l = np.maximum(0.0, l)
    return np.where(valid & (n_z_tot > 0), l, 0.0)


@dataclass(frozen=True)
class GridCertificate:
    """Full dump of the evaluated coarse grid, proving the incumbent is
    never beaten by any evaluated point.  Every field has the grid's shape
    (len(mu_values), len(nu_values), len(p_mu_values), len(p_z_values)) and
    is a view: the axes are broadcast, the scores transposed from the
    evaluation layout."""

    mu: np.ndarray
    nu: np.ndarray
    p_mu: np.ndarray
    p_z: np.ndarray
    l_bits: np.ndarray


@dataclass(frozen=True)
class OptimizeResult:
    best: ProtocolParams
    l_bits: float
    skr_bps: float
    certificate: GridCertificate
    # expected statistics at ``best``; None when rescored by simulation
    stats: rates.ExpectedStatistics | None = None


def _with_point(p0: ProtocolParams, mu, nu, p_mu, p_z) -> ProtocolParams:
    return replace(
        p0,
        mu=float(mu),
        nu=float(nu),
        p_mu=float(p_mu),
        p_z_alice=float(p_z),
        p_z_bob=float(p_z),
    )


def _best_index(l: np.ndarray, mu, nu, p_mu, p_z) -> tuple:
    """Index (one entry per axis of ``l``) of the maximal l; exact ties
    resolve to the smallest (mu, nu, p_mu, p_z), which are broadcast to
    ``l``'s shape."""
    tied = np.nonzero(l == l.max())
    keys = [np.broadcast_to(a, l.shape)[tied] for a in (p_z, p_mu, nu, mu)]
    k = np.lexsort(keys)[0]
    return tuple(int(t[k]) for t in tied)


def optimize(
    link: LinkModel,
    p0: ProtocolParams | None = None,
    grid: GridSpec | None = None,
    refine: bool = True,
    rescore_with_simulation: bool = False,
    seed: int = 1,
    sim_pulses: int | None = None,
) -> OptimizeResult:
    """Exhaustive grid search maximizing secure length, with one
    10x-finer coordinate-refinement pass around the incumbent.

    ``p0`` supplies everything not on the grid (n_pulses, f_rep, f_ec,
    epsilons).  With ``rescore_with_simulation`` the returned value comes
    from a Monte Carlo session at the incumbent instead of expected counts.
    """
    p0 = p0 if p0 is not None else ProtocolParams()
    grid = grid if grid is not None else GridSpec()
    mu, nu, pm, pz = (
        np.asarray(v, dtype=np.float64)
        for v in (grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values)
    )
    # Evaluation layout (p_z, p_mu, mu, nu): the longest axis, nu, is
    # contiguous, and evaluate_grid blocks over whole (p_z, p_mu) rows.
    l = evaluate_grid(
        mu[:, None], nu, pm[:, None, None], pz[:, None, None, None], p0, link
    )
    shape = (len(mu), len(nu), len(pm), len(pz))
    cert = GridCertificate(
        mu=np.broadcast_to(mu[:, None, None, None], shape),
        nu=np.broadcast_to(nu[:, None, None], shape),
        p_mu=np.broadcast_to(pm[:, None], shape),
        p_z=np.broadcast_to(pz, shape),
        l_bits=l.transpose(2, 3, 1, 0),
    )
    if not (l > 0.0).any():
        raise EmptyFeasibleSet("no grid point yields a positive secure length")
    i = _best_index(cert.l_bits, cert.mu, cert.nu, cert.p_mu, cert.p_z)
    point = [float(cert.mu[i]), float(cert.nu[i]), float(cert.p_mu[i]), float(cert.p_z[i])]
    best_l = float(cert.l_bits[i])

    if refine:
        axes = (
            (0, grid.mu_values),
            (1, grid.nu_values),
            (2, grid.p_mu_values),
            (3, grid.p_z_values),
        )
        for axis, values in axes:
            if len(values) < 2:
                continue
            step = (max(values) - min(values)) / (len(values) - 1)
            lo = max(min(values), point[axis] - step)
            hi = min(max(values), point[axis] + step)
            fine = np.arange(lo, hi + step / 20.0, step / 10.0)
            cols = [np.full_like(fine, point[a]) for a in range(4)]
            cols[axis] = fine
            lf = evaluate_grid(cols[0], cols[1], cols[2], cols[3], p0, link)
            j = _best_index(lf, cols[0], cols[1], cols[2], cols[3])
            if lf[j] > best_l:
                best_l = float(lf[j])
                point[axis] = float(cols[axis][j])

    best = _with_point(p0, *point)
    stats = None
    if rescore_with_simulation:
        from . import mcsim

        res = mcsim.run_session(best, link, seed, n_pulses=sim_pulses)
        report = finitekey.key_length(res.counts, best)
    else:
        stats = rates.expected_statistics(best, link)
        report = finitekey.key_length(stats.counts, best)
    return OptimizeResult(
        best=best,
        l_bits=report.l_bits,
        skr_bps=report.skr_bps,
        certificate=cert,
        stats=stats,
    )


DB_PER_KM = 0.192


@dataclass(frozen=True)
class ScanRow:
    loss_db: float
    distance_km: float
    mu: float
    nu: float
    p_mu: float
    p_z: float
    l_bits: float
    skr_bps: float
    e_z: float
    e_x: float

    @classmethod
    def at(cls, loss_db, p: ProtocolParams, l_bits, skr_bps, stats) -> "ScanRow":
        """The row for parameters ``p`` at ``loss_db``, scored as
        (``l_bits``, ``skr_bps``) from the expected statistics ``stats``."""
        return cls(
            loss_db=float(loss_db),
            distance_km=float(loss_db) / DB_PER_KM,
            mu=p.mu,
            nu=p.nu,
            p_mu=p.p_mu,
            p_z=p.p_z_bob,
            l_bits=l_bits,
            skr_bps=skr_bps,
            e_z=stats.pooled_qber(Basis.Z),
            e_x=stats.pooled_qber(Basis.X),
        )


def scan(
    link_template: LinkModel,
    losses,
    p: ProtocolParams | str = "optimize",
    grid: GridSpec | None = None,
    p0: ProtocolParams | None = None,
) -> list[ScanRow]:
    """Key rate versus channel loss; one row per loss.

    With ``p="optimize"`` each loss gets its own grid search from ``p0``
    (default ``ProtocolParams()``), which supplies everything not on the
    grid; losses with no feasible point report l = 0 at ``p0``.  A row's
    ``p_z`` is Bob's Z-basis probability (the grid sets Alice's equal).
    """
    losses = list(losses)
    if not losses:
        raise ValueError("losses must be non-empty")
    p0 = p0 if p0 is not None else ProtocolParams()
    rows = []
    for loss in losses:
        link = link_template.with_channel_loss(float(loss))
        if isinstance(p, str):
            if p != "optimize":
                raise ValueError(f"p must be ProtocolParams or 'optimize', got {p!r}")
            try:
                result = optimize(link, p0=p0, grid=grid)
                params, l_bits, skr, stats = result.best, result.l_bits, result.skr_bps, result.stats
            except EmptyFeasibleSet:
                params, l_bits, skr = p0, 0.0, 0.0
                stats = rates.expected_statistics(params, link)
        else:
            params = p
            stats = rates.expected_statistics(params, link)
            try:
                report = finitekey.key_length(stats.counts, params)
                l_bits, skr = report.l_bits, report.skr_bps
            except finitekey.EmptyKeyBasis:
                l_bits, skr = 0.0, 0.0
        rows.append(ScanRow.at(loss, params, l_bits, skr, stats))
    return rows


SCAN_HEADER = "loss_db,distance_km,mu,nu,p_mu,p_z,l_bits,skr_bps,e_z,e_x"


def format_scan_csv(rows) -> str:
    lines = [SCAN_HEADER]
    for r in rows:
        lines.append(
            f"{r.loss_db:.6g},{r.distance_km:.6g},{r.mu:.6g},{r.nu:.6g},"
            f"{r.p_mu:.6g},{r.p_z:.6g},{r.l_bits:.6g},{r.skr_bps:.6g},{r.e_z:.6g},"
            f"{r.e_x:.6g}"
        )
    return "\n".join(lines) + "\n"
