"""Grid search over protocol parameters and key-rate-versus-loss scans.

The objective is the secure length evaluated on the closed-form expected
statistics.  ``evaluate_grid`` scores a run of (mu, nu) pairs at each
p_mu and p_z value through the same ``rates`` tallies and ``finitekey``
composition as a single point, so a grid score and
``finitekey.key_length`` at that point are the same number.  Ties resolve
to the lexicographically smallest (mu, nu, p_mu, p_z), so any evaluation
order yields the same incumbent.

``optimize`` searches its coarse grid by exact branch and bound.  The
secure length is composed in stages (``finitekey``), and four upper
bounds on it, each cheaper than the step it stands in front of, let a
point go on only while they reach the best score found so far.  The
first is the floored B: B (``finitekey._KeyBasisCeiling``), made once
per (pair, p_mu) row from the row's key-basis tallies at zero deviation
and read at each p_z value, less its s_Z1 term times h_floor
(``finitekey._entropy_floor``), a floor on h(phi_Z) at every p_z of the
grid, made once per row from its X tallies at the grid's largest X
share.  A block with no floored B that reaches it skips itself.  B_x
(``finitekey._ceiling_x``) lowers B by the entropy of the point's own X
error ratio, from the test-basis stage's first step, which reads the X
tallies alone; a point whose B_x is below the incumbent skips the
key-basis stage.  The key-basis stage gives ``l_up``, the composition
with the phase-error term's entropy factor 1 - h(phi_Z) set to one.  It
holds bit for bit in floats: h >= 0, so fl(1 - h) <= 1 and
fl(s_Z1 (1 - h)) <= s_Z1, and the composition applies the same monotone
roundings to the larger term.  The test-basis stage's second step gives
``l_up_x``, with phi_Z's lower bound, the X error ratio, in its place
and binary_entropy's rounding covered by a slack; its third, the phase
error's finite-statistics correction and the composition, runs only on
the points that reach all four.  The order is floored B, B_x, ``l_up``,
``l_up_x``, phase.  A point left unscored cannot beat or tie the
incumbent, so the search returns the exhaustive grid's incumbent and
l_bits.  B's row terms cost about 1.5 key-basis stages of their rows'
points at one p_z value, so a grid of ``_CEILING_COST`` p_z values or
fewer reads neither the floored B nor B_x, and runs the key-basis stage
first.
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


# A stage runs on the whole block when the points that reach the incumbent
# by the bound before it are more than this share of the block; below it,
# on those points' inputs gathered, which costs about twice as much per
# point.  With the floored B first, most 30-38 dB blocks of the free-p_z
# projection grid fall under 0.35 at once.  Over warm
# `scan --losses 1:45:1 --optimize --free-p-z` (5 fresh processes of 4
# scans a share, 2-vCPU Xeon), the fastest `optimize` at 10, 20, 30 and
# 37 dB took 10.3, 12.7, 18.4 and 26.0 ms at 0.2, 9.7, 11.9, 17.9 and
# 24.8 ms at 0.35, and 9.9, 11.8, 17.0 and 24.3 ms at 0.5; a whole scan's
# median was 668, 652 and 645 ms, and the 4 scans took 58, 58 and 49-50
# minor faults.  No share beat 0.35 by more than the host's noise.
_GATHER_SHARE = 0.35


# A grid of at most _CEILING_COST p_z values reads no B: making a run of p_mu
# rows' B terms costs about 1.5 key-basis stages of one of its p_z values
# (2-vCPU Xeon, 6 rows of 1,609 pairs).  Forced on, B and B_x made a warm
# default-grid scan (one p_z value) take 0.38-0.42 s against 0.30-0.33 s.
_CEILING_COST = 2.0


class _Live:
    """The points of a block that every bound read so far reaches the
    incumbent at, for ``_Block.search``: ``at``, their flat indices, or
    None while the steps run on the whole block, with ``mask`` marking
    them (None for all); ``terms``, the steps' terms at the points they
    run on; and ``reached``, how many points reached each bound."""

    def __init__(self, size: int) -> None:
        self.at = self.mask = None
        self.terms = {}
        self.reached = [size]

    def keep(self, passed, gather: bool = False) -> int:
        """Keep the points, of those the steps run on, where ``passed``
        holds, and return how many points are kept.  Once they are at most
        ``_GATHER_SHARE`` of the block, or with ``gather``, they and their
        terms are gathered."""
        mask = passed if self.mask is None else self.mask & passed
        kept = int(np.count_nonzero(mask))
        self.reached.append(kept)
        if self.at is None and kept > _GATHER_SHARE * mask.size and not gather:
            self.mask = mask
        else:
            self.at = np.flatnonzero(mask) if self.at is None else self.at[mask]
            self.terms = {name: v[mask] for name, v in self.terms.items()}
            self.mask = None
        return kept

    def counts(self) -> tuple:
        """The numbers of points stopped by each bound, in the order they
        were read, and scored, padded to four bounds."""
        n = self.reached + [0] * (5 - len(self.reached))
        return (*(a - b for a, b in zip(n, n[1:])), n[-1])


class _Block:
    """The points of one block: a run of (mu, nu) pairs, broadcast as
    ``q`` and ``e``, times a run of p_mu rows ``pm`` and p_z values ``pz``,
    shape (len(pz), len(pm), pairs).  No stage has run when it is made.
    ``ceiling``, the ``finitekey._KeyBasisCeiling`` of its p_mu rows, and
    ``floor``, their ``finitekey._entropy_floor``, give the search the
    floored B and B_x; without them the search runs the key-basis stage on
    every point."""

    def __init__(self, p0: ProtocolParams, pm, pz, q, e, f: finitekey.DecoyFactors,
                 ceiling: finitekey._KeyBasisCeiling | None = None, floor=None) -> None:
        self.p0, self.pm, self.pz, self.q, self.f = p0, pm, pz, q, f
        self.ceiling, self.floor = ceiling, floor
        # e[k][b], in Intensity and Basis order
        self.e_z, self.e_x = ((e[0][b], e[1][b]) for b in range(2))
        self.shape = (len(pz), len(pm), len(q[0]))

    def l_bits(self) -> np.ndarray:
        """The secure length of every point: every stage on the whole
        block."""
        inputs = self._inputs(None)
        terms = {**self._key(inputs), **self._test(inputs)}
        terms.update(finitekey._error_ratio(terms, terms, self.p0))
        return finitekey._phase_bounds(terms, terms, self.p0)["l_bits"]

    def search(self, dest, incumbent: float) -> tuple:
        """Write into ``dest``, of the block's shape, the secure length of
        the points whose bounds are at least ``incumbent``, and return the
        numbers of points stopped by the floored B, B - Z h_floor, by B_x,
        by ``l_up`` and by ``l_up_x``, each by the first of them that stops
        it, and scored.  Without ``ceiling``, the floored B and B_x stop no
        point.  Each step runs where the bounds before it reach the
        incumbent: on the whole block, or, once those points are at most
        ``_GATHER_SHARE`` of it, on their inputs gathered.  Each point's bounds are made from its own inputs
        alone, so gathered or not they are the same numbers."""
        live = _Live(dest.size)
        if self.ceiling is None:
            live.reached *= 3
        else:
            b, z = self.ceiling.at(self.pz)
            live.terms["b"], live.terms["z"] = b, z
            # the floored B, B - Z h_floor
            floored = np.multiply(z, self.floor)
            np.subtract(b, floored, out=floored)
            del b, z
            if not live.keep(floored >= incumbent):
                return live.counts()
            del floored
            live.terms.update(self._test(self._inputs(live.at)))
            b_x = finitekey._ceiling_x(live.terms.pop("b"), live.terms.pop("z"), live.terms)
            if not live.keep(b_x >= incumbent):
                return live.counts()
            del b_x
        key = self._key(self._inputs(live.at))
        l_up = key.pop("l_up")
        # the later steps read neither
        del key["s_z0_up"]
        live.terms.update(key)
        del key
        if not live.keep(l_up >= incumbent):
            return live.counts()
        del l_up
        if self.ceiling is None:
            live.terms.update(self._test(self._inputs(live.at)))
        live.terms.update(finitekey._error_ratio(live.terms, live.terms, self.p0))
        if live.keep(live.terms.pop("l_up_x") >= incumbent, gather=True):
            terms = live.terms
            dest.flat[live.at] = finitekey._phase_bounds(terms, terms, self.p0)["l_bits"]
        return live.counts()

    def _inputs(self, at) -> tuple:
        """(pm, pz, q, e_z, e_x, f) of the whole block (``at`` None), or of
        its points at the flat indices ``at``, gathered."""
        if at is None:
            return self.pm, self.pz, self.q, self.e_z, self.e_x, self.f
        z, row = np.divmod(at, self.shape[1] * self.shape[2])
        m, pair = np.divmod(row, self.shape[2])
        return (self.pm.take(m), self.pz.take(z), *(tuple(a.take(pair) for a in terms)
                for terms in (self.q, self.e_z, self.e_x)), self.f.take(row))

    def _key(self, inputs) -> dict:
        pm, pz, q, e_z, _, f = inputs
        tally = rates.basis_tallies(self.p0.n_pulses, pm, pz * pz, q, e_z)
        return finitekey._key_basis_bounds(tally, f, self.p0)

    def _test(self, inputs) -> dict:
        pm, pz, q, _, e_x, f = inputs
        tally = rates.basis_tallies(self.p0.n_pulses, pm, (1.0 - pz) * (1.0 - pz), q, e_x)
        return finitekey._test_basis_bounds(tally, f, self.p0)


def _blocks(mu, nu, p_mu, p_z, p0: ProtocolParams, link: LinkModel, ceiling: bool = False):
    """Yield each block of the (p_z, p_mu, pair) layout of the 1-D arrays
    ``mu`` and ``nu`` of pairs and the axes ``p_mu`` and ``p_z``, as the
    block's slices of the layout and its ``_Block``.

    Blocks hold at most ``_BLOCK_POINTS`` points: a run of pairs (all of
    them when they fit), times a run of p_mu rows (all when they fit),
    times a run of p_z values.  The loops run in that order, so each term
    is made once per call on the points it depends on: the gains and
    QBERs (``rates.intensity_terms``) once per run of pairs, the bounds'
    decoy factors (``finitekey.DecoyFactors``) and, with ``ceiling``, the
    rows' floors on h(phi_Z) (``finitekey._entropy_floor``, from their X
    tallies at the largest X share (1 - min p_z)^2 before rounding) and B
    terms (``finitekey._KeyBasisCeiling``, from their key-basis tallies at
    p_b = 1 before rounding) once per run of p_mu rows, and the stages once
    per block, as it is scored.

    Unscorable pairs get placeholder intensities inside every bound's
    domain: nu = 1 where nu <= 0, and mu = nu + 1 for the bounds only, so
    that the counts keep mu.  Their scores mean nothing."""
    scorable = _scorable(mu, nu)
    nu = np.where(nu > 0.0, nu, 1.0)
    mu_bounds = np.where(scorable, mu, nu + 1.0)
    pairs = max(1, min(len(mu), _BLOCK_POINTS))
    rows = max(1, min(len(p_mu), _BLOCK_POINTS // pairs))
    values = _BLOCK_POINTS // (pairs * rows)
    if ceiling:
        # the grid's largest X share, and its ratio to the smallest
        x_share = (1.0 - p_z.min()) * (1.0 - p_z.min())
        spread = x_share / ((1.0 - p_z.max()) * (1.0 - p_z.max()))
    for i in range(0, len(mu), pairs):
        run = slice(i, i + pairs)
        q, e = rates.intensity_terms(link, mu[run], nu[run])
        for j in range(0, len(p_mu), rows):
            pm = p_mu[j:j + rows, None]
            f = finitekey.DecoyFactors(replace(p0, mu=mu_bounds[run], nu=nu[run], p_mu=pm))
            floor = bound = None
            if ceiling:
                # the floor is made first, and into an array made before its
                # tallies: outliving them, it then sits below its own and B's
                # temporaries in the heap, which kept a scan's peak RSS
                floor = np.empty(np.shape(f.tau1))
                finitekey._entropy_floor(rates.basis_tallies(
                    p0.n_pulses, pm, x_share, q, (e[0][1], e[1][1]), rounded=False), f, p0,
                    spread, floor)
                bound = finitekey._KeyBasisCeiling(rates.basis_tallies(
                    p0.n_pulses, pm, 1.0, q, (e[0][0], e[1][0]), rounded=False), f, p0)
            for k in range(0, len(p_z), values):
                index = (slice(k, k + values), slice(j, j + rows), run)
                yield index, _Block(p0, pm, p_z[index[0], None, None], q, e, f, bound, floor)
            # freed before the next rows' terms are made: two sets alive at
            # once raised a scan's peak RSS
            del f, bound, floor


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
    # points_pruned by the first bound that stopped each point, in the
    # order floored B, B_x, l_up, l_up_x
    pruned_by_b: int
    pruned_by_b_x: int
    pruned_by_l_up: int
    pruned_by_l_up_x: int
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


def _line(values, at: float) -> np.ndarray:
    """The refinement line of an axis of grid values ``values`` around its
    value ``at``: steps of a tenth of the grid's mean step, within one grid
    step of ``at`` and the axis's range; empty for an axis of one value."""
    if len(values) < 2:
        return np.empty(0)
    step = (max(values) - min(values)) / (len(values) - 1)
    lo = max(min(values), at - step)
    hi = min(max(values), at + step)
    return np.arange(lo, hi + step / 20.0, step / 10.0)


def _read_lines(l, sets, point: list, axis: int, best_l: float) -> float:
    """Read the refinement lines of axes ``axis`` and ``axis + 1`` from
    ``l``, the scores over ``sets[axis]`` x ``sets[axis + 1]``, each set a
    line and then ``point``'s value: the first axis's line at the second's
    value, then the second's line at the first's best.  Each line moves
    ``point`` to its best value, by ``_best_index``'s tie rule, where that
    scores above ``best_l``, as if the line were scored alone; returns the
    best score."""
    at = [len(sets[axis]) - 1, len(sets[axis + 1]) - 1]
    for i in range(2):
        line = l[:-1, at[1]] if i == 0 else l[at[0], :-1]
        if not line.size:
            continue
        values = list(point)
        values[axis + i] = sets[axis + i][:-1]
        j = _best_index(line, *values)[0]
        if line[j] > best_l:
            best_l = float(line[j])
            point[axis + i] = float(values[axis + i][j])
            at[i] = j
    return best_l


def optimize(
    link: LinkModel,
    p0: ProtocolParams | None = None,
    grid: GridSpec | None = None,
    refine: bool = True,
    hint: ProtocolParams | None = None,
) -> OptimizeResult:
    """Grid search maximizing secure length, with one 10x-finer
    coordinate-refinement pass around the incumbent.

    ``p0`` supplies everything not on the grid (n_pulses, f_rep, f_ec,
    epsilons).  The coarse grid is searched over its scorable (mu, nu)
    pairs by branch and bound: a point is scored only where its bounds,
    the floored B, B_x, ``l_up`` and ``l_up_x``, are at least the best
    score so far, which
    starts at the better score of the grid points nearest p0's and
    nearest ``hint``'s, such as a neighbouring link's optimum.  Each bound
    is at least the point's secure length (module docstring), so the
    incumbent and its l_bits are those of the whole grid scored, exact
    ties included, whatever the hint: it changes only how many points are
    scored.  The result counts the coarse grid's scorable points scored
    and pruned, by the bound that stopped each.
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
    # the incumbent starts at the better score of the grid points nearest
    # p0's and the hint's, scored in one call as the diagonal of their
    # 2 x 2 x 2 grid; an off-grid score could exceed every grid point and
    # prune them all
    seeds = [p0] if hint is None else [p0, hint]
    near = [np.argmin(np.abs(pair_mu - p.mu) + np.abs(pair_nu - p.nu)) for p in seeds]
    seed = evaluate_grid(
        pair_mu[near], pair_nu[near], [pm[np.argmin(np.abs(pm - p.p_mu))] for p in seeds],
        [pz[np.argmin(np.abs(pz - p.p_z_bob))] for p in seeds], p0, link)
    incumbent = float(max(seed[i, i, i] for i in range(len(seeds))))
    # the scores first: the blocks' temporaries are then freed as one
    # region above them; a point left unscored holds -inf.  Points whose
    # bounds are below the incumbent are pruned, so every tie is scored.
    # B cannot pay over _CEILING_COST p_z values or fewer.
    l = np.full((len(pz), len(pm), len(pair_mu)), -np.inf)
    counts = np.zeros(5, dtype=np.int64)
    ceiling = len(pz) > _CEILING_COST
    for index, block in _blocks(pair_mu, pair_nu, pm, pz, p0, link, ceiling):
        dest = l[index]
        counts += block.search(dest, incumbent)
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
        # each axis's line, then its coarse value, which np.arange need not
        # hit: the mu and nu lines are scored as one run of pairs, the p_mu
        # and p_z lines as one axis grid at the refined pair
        sets = [np.append(_line(values, x), x) for values, x in zip(
            (grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values), point)]
        mu_set, nu_set = sets[0], sets[1]
        l = evaluate_grid(np.repeat(mu_set, len(nu_set)), np.tile(nu_set, len(mu_set)),
                          point[2], point[3], p0, link)
        best_l = _read_lines(l.reshape(len(mu_set), len(nu_set)), sets, point, 0, best_l)
        l = evaluate_grid(point[0], point[1], sets[2], sets[3], p0, link)
        best_l = _read_lines(l[:, :, 0].T, sets, point, 2, best_l)

    best = _with_point(p0, *point)
    stats = rates.expected_statistics(best, link)
    report = finitekey.key_length(stats.counts, best)
    return OptimizeResult(
        best=best,
        l_bits=report.l_bits,
        skr_bps=report.skr_bps,
        points_scored=int(counts[4]),
        points_pruned=int(counts[:4].sum()),
        pruned_by_b=int(counts[0]),
        pruned_by_b_x=int(counts[1]),
        pruned_by_l_up=int(counts[2]),
        pruned_by_l_up_x=int(counts[3]),
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
    grid, hinted with the last feasible loss's optimum; losses with no
    feasible point report l = 0 at ``p0``.  A row's
    ``p_z`` is Bob's Z-basis probability (the grid sets Alice's equal).
    """
    losses = list(losses)
    if not losses:
        raise ValueError("losses must be non-empty")
    p0 = p0 if p0 is not None else ProtocolParams()
    rows = []
    hint = None
    for loss in losses:
        link = link_template.with_channel_loss(float(loss))
        if isinstance(p, str):
            if p != "optimize":
                raise ValueError(f"p must be ProtocolParams or 'optimize', got {p!r}")
            try:
                result = optimize(link, p0=p0, grid=grid, hint=hint)
            except EmptyFeasibleSet:
                params, l_bits, skr = p0, 0.0, 0.0
                stats = rates.expected_statistics(params, link)
            else:
                params, l_bits, skr, stats = result.best, result.l_bits, result.skr_bps, result.stats
                hint = params
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
