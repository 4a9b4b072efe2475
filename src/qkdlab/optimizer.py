"""Grid search over protocol parameters and key-rate-versus-loss scans.

The objective is the secure length evaluated on the closed-form expected
statistics.  ``evaluate_grid`` puts broadcast per-axis parameter arrays
into one ``ProtocolParams`` and scores them through the same
``rates.expected_statistics`` and ``finitekey`` composition as a single
point, so a grid score and ``finitekey.key_length`` at that point are the
same number.  Ties resolve to the lexicographically smallest
(mu, nu, p_mu, p_z), so any evaluation order yields the same incumbent.
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


# Points scored per block.  optimize's free-p_z grid is one block per p_mu
# row: 10 p_z values times 1,609 scorable (mu, nu) pairs, 16,090 points.  A
# warm `scan --losses 1:45:1 --optimize --free-p-z` of
# configs/projection.conf (962 blocks, 810 of them grid rows; 2-vCPU Xeon,
# numpy 2.4) takes 7 minor page faults in all (getrusage) and 2.85-3.06 s.
# Under the earlier (p_z, p_mu, mu, nu) layout, blocks of 2^15 points took
# 630 faults each and 5.3 s; blocks of 2^13 almost none, but 4.0 s with
# twice the per-block Python overhead.
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
    against each other; the result has the broadcast shape.  Each point is
    scored by the composition ``finitekey.key_length`` uses, so a score is
    exactly ``key_length(expected_statistics(point)).l_bits``; points that
    ``key_length`` rejects (nu >= mu, nu <= 0, empty key basis) score zero.

    It is filled in blocks of at most ``_BLOCK_POINTS`` points: runs of rows
    of the first axis, or one row at a time (recursively) when a row is
    larger.  Each term is computed on the sub-grid its inputs span: with
    per-axis inputs (mu, nu) the gains and QBERs cost mu and nu points, and
    with ``optimize``'s (p_mu, p_z, pair) layout, where mu and nu share the
    pair axis, the intensity factors of the bounds cost one point per pair
    and block, whatever the number of p_z values."""
    arrays = [np.asarray(a, dtype=np.float64) for a in (mu, nu, p_mu, p_z)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if not shape:
        return _block(*arrays, p0, link)
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
        out[rows] = _block(*(a[rows] if len(a) > 1 else a for a in arrays), p0, link)


def _scorable(mu, nu):
    """Where the (mu, nu) pairs are inside the decoy bounds' domain: mu - nu
    clears the minimum gap and nu > 0.  Elsewhere a point scores zero."""
    return (mu - nu >= finitekey._MIN_INTENSITY_GAP) & (nu > 0.0)


def _block(mu, nu, p_mu, p_z, p0: ProtocolParams, link: LinkModel) -> np.ndarray:
    """evaluate_grid on one block."""
    valid = _scorable(mu, nu)
    # Masked points get placeholder intensities inside every bound's domain:
    # nu = 1 where nu <= 0, and mu = nu + 1 for the bounds only, so that the
    # counts keep mu on its own axis.  A point with no key-basis detections
    # needs no mask: it already scores zero.
    nu = np.where(nu > 0.0, nu, 1.0)
    p = replace(p0, mu=mu, nu=nu, p_mu=p_mu, p_z_alice=p_z, p_z_bob=p_z)
    counts = rates.expected_statistics(p, link).counts
    masked = replace(p, mu=np.where(valid, mu, nu + 1.0))
    return np.where(valid, finitekey._secure_length(counts, masked)["l_bits"], 0.0)


@dataclass(frozen=True)
class GridCertificate:
    """Full dump of the evaluated coarse grid, proving the incumbent is
    never beaten by any evaluated point.  Every field has the grid's shape
    (len(mu_values), len(nu_values), len(p_mu_values), len(p_z_values)).
    The axes are broadcast views; the scores are scattered from the
    (p_mu, p_z, pair) evaluation layout, zero where the (mu, nu) pair is
    not scorable (nu >= mu or nu <= 0)."""

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
    # Only the scorable (mu, nu) pairs are evaluated, in the layout
    # (p_mu, p_z, pair): evaluate_grid blocks over whole p_mu rows, and the
    # intensity factors span (1, 1, pair), so a block computes them once for
    # all its p_z values.  The rest of the grid scores zero.
    mu_i, nu_j = np.nonzero(_scorable(mu[:, None], nu))
    if not len(mu_i):
        raise EmptyFeasibleSet("no (mu, nu) pair on the grid is scorable")
    pairs = evaluate_grid(mu[mu_i], nu[nu_j], pm[:, None, None], pz[:, None], p0, link)
    if not (pairs > 0.0).any():
        raise EmptyFeasibleSet("no grid point yields a positive secure length")
    shape = (len(mu), len(nu), len(pm), len(pz))
    l = np.zeros(shape)
    l[mu_i, nu_j] = pairs.transpose(2, 0, 1)
    del pairs
    cert = GridCertificate(
        mu=np.broadcast_to(mu[:, None, None, None], shape),
        nu=np.broadcast_to(nu[:, None, None], shape),
        p_mu=np.broadcast_to(pm[:, None], shape),
        p_z=np.broadcast_to(pz, shape),
        l_bits=l,
    )
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
            except EmptyFeasibleSet:
                params, l_bits, skr = p0, 0.0, 0.0
                stats = rates.expected_statistics(params, link)
            else:
                params, l_bits, skr, stats = result.best, result.l_bits, result.skr_bps, result.stats
                # its certificate holds the whole grid's scores: free them
                # before the next loss's grid is scored
                del result
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
