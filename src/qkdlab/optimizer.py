"""Grid search over protocol parameters and key-rate-versus-loss scans.

The objective is the secure length evaluated on the closed-form expected
statistics.  ``evaluate_grid`` scores a run of (mu, nu) pairs at each
p_mu and p_z value through the same ``rates`` tallies and ``finitekey``
composition as a single point, so a grid score and
``finitekey.key_length`` at that point are the same number.  Ties resolve
to the lexicographically smallest (mu, nu, p_mu, p_z), so any evaluation
order yields the same incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Basis, InvalidIntensityOrder, LinkModel, ParamError, ProbabilityOutOfRange, ProtocolParams,
)
from . import finitekey, rates


class EmptyFeasibleSet(ValueError):
    """Raised when no grid point yields a positive secure length."""


def _steps(lo: float, hi: float, step: float) -> tuple:
    """``lo``, ``lo + step``, ... while at most ``hi``, each rounded to 10
    decimals; ``hi`` is in the range when a whole number of steps reaches it."""
    n = math.floor((hi - lo) / step + 1e-9)
    return tuple(round(lo + i * step, 10) for i in range(n + 1))


@dataclass(frozen=True)
class GridSpec:
    """Search grid; p_z is fixed to a single value by default.

    Every value must be one ``validate_params`` would accept on its axis:
    finite, mu > 0, nu >= 0, and p_mu and p_z inside (0, 1)."""

    mu_values: tuple = _steps(0.10, 0.90, 0.02)
    nu_values: tuple = _steps(0.01, 0.50, 0.01)
    p_mu_values: tuple = _steps(0.10, 0.95, 0.05)
    p_z_values: tuple = (0.9,)

    def __post_init__(self) -> None:
        for name in ("mu_values", "nu_values", "p_mu_values", "p_z_values"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must be non-empty")
            if not all(map(math.isfinite, values)):
                raise ParamError(f"{name}={values} holds a non-finite value")
        if min(self.mu_values) <= 0.0:
            raise ParamError(f"mu_values={self.mu_values} must be positive")
        if min(self.nu_values) < 0.0:
            raise InvalidIntensityOrder(f"nu_values={self.nu_values} must be >= 0")
        for name in ("p_mu_values", "p_z_values"):
            values = getattr(self, name)
            if not 0.0 < min(values) <= max(values) < 1.0:
                raise ProbabilityOutOfRange(f"{name}={values} outside (0, 1)")
        if max(self.mu_values) <= min(self.nu_values):
            raise ValueError("mu range upper end must exceed nu range lower end")


# Points scored per block.  optimize's free-p_z grid is scored in blocks of
# 10 p_mu rows times 1,609 scorable (mu, nu) pairs at one p_z, 16,090
# points, and 8 rows for the rest of each p_z.  Under the earlier
# (p_z, p_mu, mu, nu) layout, blocks of 2^15 points took 630 page faults
# each and 5.3 s for `scan --losses 1:45:1 --optimize --free-p-z`; blocks
# of 2^13 almost none, but 4.0 s with twice the per-block Python overhead
# (2-vCPU Xeon, numpy 2.4).
_BLOCK_POINTS = 1 << 14


def evaluate_grid(
    mu: np.ndarray,
    nu: np.ndarray,
    p_mu: np.ndarray,
    p_z: np.ndarray,
    p0: ProtocolParams,
    link: LinkModel,
) -> np.ndarray:
    """Secure length of each (mu[i], nu[i]) pair at each p_mu and p_z
    value, shape (len(p_z), len(p_mu), len(mu)).  ``mu`` and ``nu`` are
    1-D of one length, ``p_mu`` and ``p_z`` 1-D axes; a scalar counts as
    one value.  Each point is scored by the composition
    ``finitekey.key_length`` uses, so a score is exactly
    ``key_length(expected_statistics(point)).l_bits``; points that
    ``key_length`` rejects (nu >= mu, nu <= 0, empty key basis) score zero.

    Blocks hold at most ``_BLOCK_POINTS`` points: a run of pairs (all of
    them when they fit), times a run of p_mu rows (all when they fit),
    times a run of p_z values.  The loops run in that order, so each term
    is made once per call on the points it depends on: the gains and
    QBERs (``rates.intensity_terms``) once per run of pairs, the bounds'
    decoy factors (``finitekey.DecoyFactors``) once per run of p_mu rows,
    and the tallies and count-dependent bounds once per block."""
    mu, nu, p_mu, p_z = (
        np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (mu, nu, p_mu, p_z)
    )
    # the scores first: the terms below and the blocks' temporaries are
    # then freed as one region above them, which optimize's certificate
    # reuses (peak RSS of a scan 0.3 MiB lower than the other order)
    out = np.empty((len(p_z), len(p_mu), len(mu)))
    # Unscorable pairs get placeholder intensities inside every bound's
    # domain: nu = 1 where nu <= 0, and mu = nu + 1 for the bounds only, so
    # that the counts keep mu.  A point with no key-basis detections needs
    # no mask: it already scores zero.
    scorable = _scorable(mu, nu)
    nu = np.where(nu > 0.0, nu, 1.0)
    mu_bounds = np.where(scorable, mu, nu + 1.0)
    pairs = max(1, min(len(mu), _BLOCK_POINTS))
    rows = max(1, min(len(p_mu), _BLOCK_POINTS // pairs))
    values = _BLOCK_POINTS // (pairs * rows)
    for i in range(0, len(mu), pairs):
        run = slice(i, i + pairs)
        q, e = rates.intensity_terms(link, mu[run], nu[run])
        for j in range(0, len(p_mu), rows):
            pm = p_mu[j:j + rows, None]
            f = finitekey.DecoyFactors(replace(p0, mu=mu_bounds[run], nu=nu[run], p_mu=pm))
            for k in range(0, len(p_z), values):
                pz = p_z[k:k + values, None, None]
                # _secure_length holds the only reference to the tallies,
                # and frees them
                out[k:k + values, j:j + rows, run] = finitekey._secure_length(
                    rates.expected_tallies(p0.n_pulses, pm, pz, pz, q, e), f, p0
                )["l_bits"]
    # a point key_length rejects scores zero
    np.copyto(out, 0.0, where=~scorable)
    return out


def _scorable(mu, nu):
    """Where the (mu, nu) pairs are inside the decoy bounds' domain: mu - nu
    clears the minimum gap and nu > 0.  Elsewhere a point scores zero."""
    return (mu - nu >= finitekey._MIN_INTENSITY_GAP) & (nu > 0.0)


@dataclass(frozen=True)
class GridCertificate:
    """Full dump of the evaluated coarse grid, proving the incumbent is
    never beaten by any evaluated point.  Every field has the grid's shape
    (len(mu_values), len(nu_values), len(p_mu_values), len(p_z_values)).
    The axes are broadcast views; the scores are scattered from the
    (p_z, p_mu, pair) evaluation layout, zero where the (mu, nu) pair is
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
    # expected statistics at ``best``
    stats: rates.ExpectedStatistics


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
    tied = np.unravel_index(np.flatnonzero(l == l.max()), l.shape)
    keys = [np.broadcast_to(a, l.shape)[tied] for a in (p_z, p_mu, nu, mu)]
    k = np.lexsort(keys)[0]
    return tuple(int(t[k]) for t in tied)


def optimize(
    link: LinkModel,
    p0: ProtocolParams | None = None,
    grid: GridSpec | None = None,
    refine: bool = True,
) -> OptimizeResult:
    """Exhaustive grid search maximizing secure length, with one
    10x-finer coordinate-refinement pass around the incumbent.

    ``p0`` supplies everything not on the grid (n_pulses, f_rep, f_ec,
    epsilons).  The coarse grid is scored over its scorable (mu, nu)
    pairs, the incumbent taken from those scores; the certificate holds
    the whole grid, zero elsewhere.
    """
    p0 = p0 if p0 is not None else ProtocolParams()
    grid = grid if grid is not None else GridSpec()
    mu, nu, pm, pz = (
        np.asarray(v, dtype=np.float64)
        for v in (grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values)
    )
    # Only the scorable (mu, nu) pairs are evaluated; the rest of the grid
    # scores zero.
    mu_i, nu_j = np.nonzero(_scorable(mu[:, None], nu))
    if not len(mu_i):
        raise EmptyFeasibleSet("no (mu, nu) pair on the grid is scorable")
    pair_mu, pair_nu = mu[mu_i], nu[nu_j]
    pairs = evaluate_grid(pair_mu, pair_nu, pm, pz, p0, link)
    if not (pairs > 0.0).any():
        raise EmptyFeasibleSet("no grid point yields a positive secure length")
    # the maximum is positive, so no unscored point can be the incumbent
    z, m, pair = _best_index(pairs, pair_mu, pair_nu, pm[:, None], pz[:, None, None])
    point = [float(pair_mu[pair]), float(pair_nu[pair]), float(pm[m]), float(pz[z])]
    best_l = float(pairs[z, m, pair])
    shape = (len(mu), len(nu), len(pm), len(pz))
    l = np.zeros(shape)
    l[mu_i, nu_j] = pairs.transpose(2, 1, 0)
    del pairs
    cert = GridCertificate(
        mu=np.broadcast_to(mu[:, None, None, None], shape),
        nu=np.broadcast_to(nu[:, None, None], shape),
        p_mu=np.broadcast_to(pm[:, None], shape),
        p_z=np.broadcast_to(pz, shape),
        l_bits=l,
    )

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
            line = list(point)
            line[axis] = np.arange(lo, hi + step / 20.0, step / 10.0)
            if axis < 2:
                # a mu or nu line is a run of pairs
                line[1 - axis] = np.full_like(line[axis], point[1 - axis])
            # one of the three axes has the line's length
            lf = evaluate_grid(*line, p0, link).ravel()
            j = _best_index(lf, *line)
            if lf[j] > best_l:
                best_l = float(lf[j])
                point[axis] = float(line[axis][j])

    best = _with_point(p0, *point)
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
