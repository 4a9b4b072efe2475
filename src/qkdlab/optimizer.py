"""Grid search over protocol parameters and key-rate-versus-loss scans.

The objective is the secure length evaluated on the closed-form expected
statistics.  ``evaluate_grid`` scores a run of (mu, nu) pairs at each
p_mu and p_z value through the same ``rates`` tallies and ``finitekey``
composition as a single point, so a grid score and
``finitekey.key_length`` at that point are the same number.  Ties resolve
to the lexicographically smallest (mu, nu, p_mu, p_z), so any evaluation
order yields the same incumbent.

``optimize`` searches its coarse grid by exact branch and bound.  The
secure length is composed in two stages (``finitekey``), each of which
gives a point an upper bound on its secure length, and a point goes on
only while its bounds reach the best score found so far.  The key-basis
stage runs on every point and gives ``l_up``, the composition with the
phase-error term's entropy factor 1 - h(phi_Z) set to one.  It holds bit
for bit in floats: h >= 0, so fl(1 - h) <= 1 and
fl(s_Z1 (1 - h)) <= s_Z1, and the composition applies the same monotone
roundings to the larger term.  The test-basis stage's first step gives
``l_up_x``, with phi_Z's lower bound, the X error ratio, in its place and
binary_entropy's rounding covered by a slack; its second step, the phase
error's finite-statistics correction and the composition, runs only on
the points that reach both.  A point left unscored cannot beat or tie
the incumbent, so the search returns the exhaustive grid's incumbent and
l_bits.
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
# 6 p_mu rows times 1,609 scorable (mu, nu) pairs at one p_z, 9,654
# points, three blocks a p_z.  A block's temporaries must stay well under
# glibc's heap trim threshold, which the loss's 2.2 MiB score array sets
# at twice its size: past it, the heap is trimmed when the scores are
# freed, and the next loss faults its pages in again.  Over three warm
# `scan --losses 1:45:1 --optimize --free-p-z` in one process, 10-row
# blocks took about 48,000 minor faults a scan, 7-row blocks up to 5,400
# and 6-row blocks at most 47.  With trimming ruled out, 6-row blocks
# were within 1 % of 7-row ones (2-vCPU Xeon, numpy 2.4).  Under the
# earlier (p_z, p_mu, mu, nu) layout, blocks of 2^15 points took 630 page
# faults each.
_BLOCK_POINTS = 5 << 11


# A block whose points that reach the incumbent by ``l_up`` are more than
# this share of it runs the first test-basis step on the whole block;
# below it, on those points' inputs gathered, which costs about twice as
# much per point.  Of the shares 0.2, 0.35, 0.5 and 0.7, 0.35 gave the
# fastest `optimize` of the free-p_z projection grid at 10, 20, 37 and
# 39 dB, and 3 % slower than 0.5 at 30 dB (2-vCPU Xeon).
_GATHER_SHARE = 0.35


class _Block:
    """The points of one block: a run of (mu, nu) pairs, broadcast as
    ``q`` and ``e``, times a run of p_mu rows ``pm`` and p_z values ``pz``,
    shape (len(pz), len(pm), pairs).  Made with the key-basis stage run
    on every point."""

    def __init__(self, p0: ProtocolParams, pm, pz, q, e, f: finitekey.DecoyFactors) -> None:
        self.p0, self.pm, self.pz, self.q, self.f = p0, pm, pz, q, f
        # e[k][b], in Intensity and Basis order
        self.e_x = (e[0][1], e[1][1])
        self.shape = (len(pz), len(pm), len(q[0]))
        tally = rates.basis_tallies(p0.n_pulses, pm, pz * pz, q, (e[0][0], e[1][0]))
        self.key = finitekey._key_basis_bounds(tally, f, p0)

    def l_bits(self) -> np.ndarray:
        """The secure length of every point: both test-basis steps on the
        whole block."""
        test = self._test(self.pm, self.pz, self.q, self.e_x, self.f, self.key)
        return finitekey._phase_bounds(self.key, test, self.p0)["l_bits"]

    def search(self, dest, incumbent: float) -> int:
        """Write into ``dest``, of the block's shape, the secure length of
        the points whose bounds are at least ``incumbent``, and return
        their number.  The first test-basis step runs where
        ``l_up`` reaches it: on the whole block, or, where those points are
        at most ``_GATHER_SHARE`` of it, on their inputs gathered.  The
        second runs, on its inputs gathered, where ``l_up_x`` reaches it
        too.  Each point's bounds are made from its own inputs alone, so
        gathered or not they are the same numbers."""
        keep = self.key["l_up"] >= incumbent
        count = int(np.count_nonzero(keep))
        if count > _GATHER_SHARE * keep.size:
            at, key = None, self.key
            test = self._test(self.pm, self.pz, self.q, self.e_x, self.f, key)
        elif count:
            at = np.flatnonzero(keep)
            rest, pair = np.divmod(at, self.shape[2])
            z, m = np.divmod(rest, self.shape[1])
            pm = self.pm[m, 0]
            f = finitekey.DecoyFactors(replace(self.p0, mu=self.f.mu[pair], nu=self.f.nu[pair],
                                               p_mu=pm))
            key = {name: np.take(v, at) for name, v in self.key.items()}
            test = self._test(pm, self.pz[z, 0, 0], tuple(a[pair] for a in self.q),
                              tuple(a[pair] for a in self.e_x), f, key)
        else:
            return 0
        keep = test["l_up_x"] >= incumbent
        if not keep.any():
            return 0
        key, test = ({name: v[keep] for name, v in terms.items()} for terms in (key, test))
        l = finitekey._phase_bounds(key, test, self.p0)["l_bits"]
        if at is None:
            dest[keep] = l
        else:
            dest.flat[at[keep]] = l
        return len(l)

    def _test(self, pm, pz, q, e_x, f, key) -> dict:
        return finitekey._test_basis_bounds(
            rates.basis_tallies(self.p0.n_pulses, pm, (1.0 - pz) * (1.0 - pz), q, e_x),
            f, self.p0, key,
        )


def _blocks(mu, nu, p_mu, p_z, p0: ProtocolParams, link: LinkModel):
    """Yield each block of the (p_z, p_mu, pair) layout of the 1-D arrays
    ``mu`` and ``nu`` of pairs and the axes ``p_mu`` and ``p_z``, as the
    block's slices of the layout and its ``_Block``.

    Blocks hold at most ``_BLOCK_POINTS`` points: a run of pairs (all of
    them when they fit), times a run of p_mu rows (all when they fit),
    times a run of p_z values.  The loops run in that order, so each term
    is made once per call on the points it depends on: the gains and
    QBERs (``rates.intensity_terms``) once per run of pairs, the bounds'
    decoy factors (``finitekey.DecoyFactors``) once per run of p_mu rows,
    and the key-basis tallies and bounds once per block.

    Unscorable pairs get placeholder intensities inside every bound's
    domain: nu = 1 where nu <= 0, and mu = nu + 1 for the bounds only, so
    that the counts keep mu.  Their scores mean nothing."""
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
                index = (slice(k, k + values), slice(j, j + rows), run)
                yield index, _Block(p0, pm, p_z[index[0], None, None], q, e, f)


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
    Every point runs every stage: this is the exhaustive scorer."""
    mu, nu, p_mu, p_z = (
        np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (mu, nu, p_mu, p_z)
    )
    # the scores first: the terms below and the blocks' temporaries are
    # then freed as one region above them
    out = np.empty((len(p_z), len(p_mu), len(mu)))
    for index, block in _blocks(mu, nu, p_mu, p_z, p0, link):
        out[index] = block.l_bits()
    # a point key_length rejects scores zero
    np.copyto(out, 0.0, where=~_scorable(mu, nu))
    return out


def _scorable(mu, nu):
    """Where the (mu, nu) pairs are inside the decoy bounds' domain: mu - nu
    clears the minimum gap and nu > 0.  Elsewhere a point scores zero."""
    return (mu - nu >= finitekey._MIN_INTENSITY_GAP) & (nu > 0.0)


@dataclass(frozen=True)
class OptimizeResult:
    best: ProtocolParams
    l_bits: float
    skr_bps: float
    # the coarse grid's scorable points scored and left unscored by the
    # pruned search; they sum to its scorable points
    points_scored: int
    points_pruned: int
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
    """Grid search maximizing secure length, with one 10x-finer
    coordinate-refinement pass around the incumbent.

    ``p0`` supplies everything not on the grid (n_pulses, f_rep, f_ec,
    epsilons).  The coarse grid is searched over its scorable (mu, nu)
    pairs by branch and bound: a point is scored only where its bounds
    ``l_up`` and ``l_up_x`` are at least the best score so far, which
    starts at the score of the grid point nearest p0's.  Each bound
    is at least the point's secure length (module docstring), so the
    incumbent and its l_bits are those of the whole grid scored, exact
    ties included.  The result counts the coarse grid's scorable points
    scored and pruned.
    """
    p0 = p0 if p0 is not None else ProtocolParams()
    grid = grid if grid is not None else GridSpec()
    mu, nu, pm, pz = (
        np.asarray(v, dtype=np.float64)
        for v in (grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values)
    )
    # Only the scorable (mu, nu) pairs are searched; the rest of the grid
    # scores zero.
    mu_i, nu_j = np.nonzero(_scorable(mu[:, None], nu))
    if not len(mu_i):
        raise EmptyFeasibleSet("no (mu, nu) pair on the grid is scorable")
    pair_mu, pair_nu = mu[mu_i], nu[nu_j]
    # the incumbent starts at the score of the grid point nearest p0's; an
    # off-grid score could exceed every grid point and prune them all
    near = np.argmin(np.abs(pair_mu - p0.mu) + np.abs(pair_nu - p0.nu))
    incumbent = float(evaluate_grid(
        pair_mu[near], pair_nu[near], pm[np.argmin(np.abs(pm - p0.p_mu))],
        pz[np.argmin(np.abs(pz - p0.p_z_bob))], p0, link)[0, 0, 0])
    # the scores first: the blocks' temporaries are then freed as one
    # region above them; a point left unscored holds -inf.  Points whose
    # bounds are below the incumbent are pruned, so every tie is scored.
    l = np.full((len(pz), len(pm), len(pair_mu)), -np.inf)
    scored = 0
    for index, block in _blocks(pair_mu, pair_nu, pm, pz, p0, link):
        dest = l[index]
        scored += block.search(dest, incumbent)
        incumbent = max(incumbent, dest.max())
        # the next block is made before the loop rebinds these
        del block, dest
    if not l.max() > 0.0:
        raise EmptyFeasibleSet("no grid point yields a positive secure length")
    z, m, pair = _best_index(l, pair_mu, pair_nu, pm[:, None], pz[:, None, None])
    point = [float(pair_mu[pair]), float(pair_nu[pair]), float(pm[m]), float(pz[z])]
    best_l = float(l[z, m, pair])
    del l

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
        points_scored=scored,
        points_pruned=len(pair_mu) * len(pm) * len(pz) - scored,
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
                # free it before the next loss's grid is scored
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
