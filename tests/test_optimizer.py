import hashlib
import math
import os
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdlab import cli, finitekey, optimizer, rates
from qkdlab.core import (
    Basis, DetectorModel, InvalidIntensityOrder, LinkModel, ParamError, ProbabilityOutOfRange,
    ProtocolParams, load_config,
)
from qkdlab.optimizer import (
    EmptyFeasibleSet,
    GridSpec,
    evaluate_grid,
    format_scan_csv,
    optimize,
    scan,
)

LINK_75 = LinkModel(channel_loss_db=14.6)
CONFIG_PROJ = os.path.join(os.path.dirname(__file__), "..", "configs", "projection.conf")
FREE_P_Z = optimizer._steps(0.5, 0.95, 0.05)

# optimize(p0=projection.conf): incumbent (mu, nu, p_mu, p_z), l_bits as
# float.hex, and the SHA-256 of the whole grid's scores, ``_all_pairs``, in
# (mu, nu, p_mu, p_z) C order.  Incumbents and digests are those of the
# unblocked evaluator over a raveled meshgrid; l_bits is the grid's own
# score at the incumbent, which key_length reproduces exactly.
# None: no feasible point on that grid.
PROJECTION_PINS = {
    ("default", 1.0): ((0.5640000000000001, 0.253, 0.895, 0.9), "0x1.4bc90cdd8eb8cp+29",
                       "690e5ba947314d37c31f104bcc7db49206fbfe614d349320709fedbb72c8a3bd"),
    ("default", 9.6): ((0.49, 0.219, 0.8150000000000001, 0.9), "0x1.3491eca3e2080p+26",
                       "c2abe63391e2e56eb31b13fb2dc52db615f9dc6ecbef764d12aa8f7b0bb89a43"),
    ("default", 30.0): ((0.516, 0.183, 0.4000000000000001, 0.9), "0x1.1664a31b7f1cap+18",
                        "16165ac577701428ae00efe72700d559ba81433c81bb4e5c6059b5d50af01c6b"),
    ("default", 38.0): None,
    ("free", 1.0): ((0.5700000000000001, 0.259, 0.855, 0.95), "0x1.6908402da69e9p+29",
                    "bf48bc159080c4e4bf5dc7e4c7e071a3cfc2c35044c71a933f444cec8706c07e"),
    ("free", 9.6): ((0.496, 0.214, 0.755, 0.95), "0x1.44e533ef4fdcap+26",
                    "3154677512016318a76de419d21588092ca2e2c6dcfa88d348acf4f1c7a9af8d"),
    ("free", 30.0): ((0.492, 0.208, 0.535, 0.8250000000000001), "0x1.5f16aa2f4ec30p+18",
                     "62e6ddefbbc440768d3894075ffa828ea46ce9d8f6e69a1cb96fd36f61a40ebf"),
    ("free", 38.0): ((0.476, 0.18, 0.35000000000000003, 0.53), "0x1.aca40b38e4240p+9",
                     "4e8edf3257aab966896557aa924177a2fbeb4dbc44802df41617fe0f938c04ad"),
}

SMALL_GRID = GridSpec(
    mu_values=tuple(np.round(np.arange(0.3, 0.71, 0.04), 10)),
    nu_values=tuple(np.round(np.arange(0.05, 0.31, 0.05), 10)),
    p_mu_values=(0.4, 0.55, 0.66, 0.8),
)
# SMALL_GRID with several p_z values, where the search runs B
HINT_GRID = GridSpec(mu_values=SMALL_GRID.mu_values, nu_values=SMALL_GRID.nu_values,
                     p_mu_values=SMALL_GRID.p_mu_values, p_z_values=(0.6, 0.75, 0.9, 0.95))


def _scalar_l(mu, nu, p_mu, p_z, p0, link):
    from dataclasses import replace

    p = replace(p0, mu=mu, nu=nu, p_mu=p_mu, p_z_alice=p_z, p_z_bob=p_z)
    stats = rates.expected_statistics(p, link)
    try:
        return finitekey.key_length(stats.counts, p).l_bits
    except (finitekey.EmptyKeyBasis, finitekey.IntensityDegenerate):
        return 0.0


class TestVectorizedEvaluator:
    def test_matches_scalar_pipeline(self):
        # five pairs, three p_mu and two p_z values: the result is indexed
        # [p_z, p_mu, pair]
        p0 = ProtocolParams()
        mu = np.array([0.56, 0.3, 0.7, 0.5, 0.2])
        nu = np.array([0.14, 0.05, 0.3, 0.22, 0.19])
        p_mu = np.array([0.66, 0.4, 0.8])
        p_z = np.array([0.9, 0.5])
        vec = evaluate_grid(mu, nu, p_mu, p_z, p0, LINK_75)
        assert vec.shape == (2, 3, 5)
        for z, m, i in np.ndindex(vec.shape):
            assert vec[z, m, i] == _scalar_l(mu[i], nu[i], p_mu[m], p_z[z], p0, LINK_75)

    def test_infeasible_points_score_zero(self):
        vec = evaluate_grid(
            np.array([0.2, 0.2]), np.array([0.2, 0.3]), 0.66, 0.9, ProtocolParams(), LINK_75,
        )
        assert vec.shape == (1, 1, 2)
        assert (vec == 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(0.02, 1.0),
        nu_frac=st.floats(0.01, 0.99),
        p_mu=st.floats(0.05, 0.95),
        p_z=st.floats(0.05, 0.95),
        loss_db=st.floats(0.0, 45.0),
        dark=st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    )
    def test_matches_scalar_pipeline_anywhere(self, mu, nu_frac, p_mu, p_z, loss_db, dark):
        link = LinkModel(channel_loss_db=loss_db,
                         detector=DetectorModel(dark_prob_per_gate=dark))
        p0 = ProtocolParams()
        nu = mu * nu_frac
        vec = evaluate_grid(mu, nu, p_mu, p_z, p0, link)
        assert vec.shape == (1, 1, 1)
        assert vec[0, 0, 0] == _scalar_l(mu, nu, p_mu, p_z, p0, link)

    @pytest.mark.parametrize("link", [
        LINK_75, LinkModel(channel_loss_db=35.0, detector=DetectorModel(dark_prob_per_gate=1e-8)),
    ])
    def test_pair_grid_equals_key_length(self, link):
        # every pair of 6 random mu and 7 nu values, at random p_mu and p_z
        # values, with infeasible pairs (nu >= mu, nu = 0) and keyless
        # points, scores exactly what key_length gives point by point, and
        # 0.0 where it raises
        rng = np.random.default_rng(11)
        mu = np.repeat(rng.uniform(0.02, 1.0, 6), 7)
        nu = np.tile(np.append(rng.uniform(0.0, 0.6, 6), 0.0), 6)
        p_mu = rng.uniform(0.05, 0.95, 4)
        p_z = rng.uniform(0.05, 0.95, 3)
        p0 = ProtocolParams()
        grid = evaluate_grid(mu, nu, p_mu, p_z, p0, link)
        assert grid.shape == (3, 4, 42)
        points = np.array([
            _scalar_l(mu[k], nu[k], p_mu[j], p_z[i], p0, link)
            for i, j, k in np.ndindex(grid.shape)
        ]).reshape(grid.shape)
        assert grid.tobytes() == points.tobytes()
        assert (grid > 0.0).any() and (grid == 0.0).any()

    def test_blocks_match_point_by_point(self, monkeypatch):
        # 16-point blocks over 35 pairs: runs of 16, 16 and 3 pairs, one
        # p_mu row each
        monkeypatch.setattr(optimizer, "_BLOCK_POINTS", 16)
        mu = np.repeat(np.linspace(0.3, 0.7, 7), 5)
        nu = np.tile(np.linspace(0.05, 0.35, 5), 7)
        p_mu = np.array([0.4, 0.6, 0.8])
        p_z = np.array([0.6, 0.9])
        whole = evaluate_grid(mu, nu, p_mu, p_z, ProtocolParams(), LINK_75)
        assert whole.shape == (2, 3, 35)
        points = np.array([
            evaluate_grid(mu[k], nu[k], p_mu[j], p_z[i], ProtocolParams(), LINK_75)[0, 0, 0]
            for i, j, k in np.ndindex(whole.shape)
        ]).reshape(whole.shape)
        assert whole.tobytes() == points.tobytes()
        assert (whole > 0.0).any()

    # four pairs, the last not scorable, at two p_mu and three p_z values:
    # 3-point blocks split them into runs of 3 and 1 pairs, one p_mu row
    # each
    _MU = np.array([0.3, 0.5, 0.7, 0.5])
    _NU = np.array([0.05, 0.15, 0.25, 0.6])
    _P_MU = np.array([0.5, 0.8])
    _P_Z = np.array([0.9, 0.6, 0.75])

    def _counted_grid(self, monkeypatch):
        """evaluate_grid over the arrays above in 3-point blocks."""
        monkeypatch.setattr(optimizer, "_BLOCK_POINTS", 3)
        grid = evaluate_grid(self._MU, self._NU, self._P_MU, self._P_Z, ProtocolParams(), LINK_75)
        assert grid.shape == (3, 2, 4)
        assert (grid[..., :3] > 0.0).any() and (grid[..., 3] == 0.0).all()

    def test_p_z_free_terms_made_once_per_call(self, monkeypatch):
        # each (pair, p_mu) point reaches the decoy factors once, whatever
        # the number of p_z values and blocks
        seen = []

        class CountingFactors(finitekey.DecoyFactors):
            def __init__(self, p):
                seen.extend(zip(*(a.ravel() for a in np.broadcast_arrays(p.nu, p.p_mu))))
                super().__init__(p)

        monkeypatch.setattr(finitekey, "DecoyFactors", CountingFactors)
        self._counted_grid(monkeypatch)
        assert sorted(seen) == sorted((n, pm) for n in self._NU for pm in self._P_MU)

    def test_each_pair_gets_its_gains_once(self, monkeypatch):
        # each pair reaches intensity_terms once, and each point both
        # stages once: evaluate_grid scores every point
        seen = {"pairs": [], "points": [], "tested": []}
        terms = rates.intensity_terms
        key_stage, test_stage = finitekey._key_basis_bounds, finitekey._test_basis_bounds

        def counting_terms(link, mu, nu):
            seen["pairs"].extend(zip(mu, nu))
            return terms(link, mu, nu)

        def counting_key_stage(tally, f, p):
            seen["points"].append(tally[0, 0].size)
            return key_stage(tally, f, p)

        def counting_test_stage(tally, f, p):
            seen["tested"].append(tally[0, 0].size)
            return test_stage(tally, f, p)

        monkeypatch.setattr(rates, "intensity_terms", counting_terms)
        monkeypatch.setattr(finitekey, "_key_basis_bounds", counting_key_stage)
        monkeypatch.setattr(finitekey, "_test_basis_bounds", counting_test_stage)
        self._counted_grid(monkeypatch)
        assert seen["pairs"] == list(zip(self._MU, self._NU))
        assert seen["points"] == seen["tested"] == [3] * 6 + [1] * 6

    def test_a_line_of_p_mu_or_p_z_is_one_block(self, monkeypatch):
        # refinement scores 21 values of one axis at one pair: one block
        # each, as a line of pairs is
        blocks = []
        key_stage = finitekey._key_basis_bounds

        def counting_key_stage(tally, f, p):
            blocks.append(tally.shape[2:])
            return key_stage(tally, f, p)

        monkeypatch.setattr(finitekey, "_key_basis_bounds", counting_key_stage)
        line = np.linspace(0.5, 0.9, 21)
        evaluate_grid(0.5, 0.2, line, 0.9, ProtocolParams(), LINK_75)
        evaluate_grid(0.5, 0.2, 0.6, line, ProtocolParams(), LINK_75)
        assert blocks == [(1, 21, 1), (21, 1, 1)]

    @settings(max_examples=60, deadline=None)
    @given(
        # nu = mu * fraction: nu = 0 and nu >= mu are not scorable
        pairs=st.lists(st.tuples(st.floats(0.02, 1.0), st.one_of(
            st.just(0.0), st.floats(0.01, 0.99), st.floats(1.0, 2.0))), min_size=1, max_size=4),
        p_mu=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
        p_z=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
        loss_db=st.floats(0.0, 45.0),
        dark=st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
        # 3-5 points split the pairs, or the p_mu rows, into blocks
        block=st.sampled_from([3, 4, 5, 1 << 14]),
    )
    def test_pair_layouts_equal_scalar_pipeline(self, pairs, p_mu, p_z, loss_db, dark, block):
        # pairs that are not scorable (nu >= mu, nu = 0) among them, every
        # point scores what key_length gives it, in blocks of any size
        link = LinkModel(channel_loss_db=loss_db, detector=DetectorModel(dark_prob_per_gate=dark))
        p0 = ProtocolParams()
        mu, nu_frac = np.array(pairs).T
        nu = mu * nu_frac
        pm, pz = np.array(p_mu), np.array(p_z)
        with mock.patch.object(optimizer, "_BLOCK_POINTS", block):
            grid = evaluate_grid(mu, nu, pm, pz, p0, link)
        points = np.array([
            _scalar_l(mu[k], nu[k], pm[j], pz[i], p0, link)
            for i, j, k in np.ndindex(len(pz), len(pm), len(mu))
        ]).reshape(len(pz), len(pm), len(mu))
        assert grid.tobytes() == points.tobytes()

    def test_default_blocks_match_rows(self):
        # 19 rows of 2050 pairs at 4 rows a block: blocks of 4, 4, 4, 4 and
        # 3 rows
        grid = GridSpec()
        mu, nu = (a.ravel() for a in np.meshgrid(grid.mu_values, grid.nu_values, indexing="ij"))
        p_mu = np.linspace(0.1, 0.95, 19)
        whole = evaluate_grid(mu, nu, p_mu, 0.9, ProtocolParams(), LINK_75)
        rows = [evaluate_grid(mu, nu, pm, 0.9, ProtocolParams(), LINK_75) for pm in p_mu]
        assert whole.tobytes() == np.concatenate(rows, axis=1).tobytes()


# random blocks for the bounds B and B_x: with the tallies rounded, at
# small samples where rounding matters most, with or without dark counts or
# misalignment, at any loss and on a blocked link
_CEILING_SPACE = dict(
    pairs=st.lists(st.tuples(st.floats(0.02, 1.0), st.floats(0.01, 0.99)), min_size=1, max_size=4),
    p_mu=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    p_z=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
    n_pulses=st.integers(3, 12).flatmap(lambda e: st.integers(10**e, min(10**(e + 1), 10**12))),
    loss_db=st.one_of(st.floats(0.0, 60.0), st.just(math.inf)),
    dark=st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    e_mis=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    block=st.sampled_from([3, 5, 1 << 14]),
)


def _ceiling_blocks(pairs, p_mu, p_z, n_pulses, loss_db, dark, e_mis, block):
    """The blocks, with B, of a point of ``_CEILING_SPACE``."""
    link = LinkModel(channel_loss_db=loss_db, e_mis_z=e_mis, e_mis_x=e_mis,
                     detector=DetectorModel(dark_prob_per_gate=dark))
    mu, nu_frac = np.array(pairs).T
    with mock.patch.object(optimizer, "_BLOCK_POINTS", block):
        return [b for _, b in optimizer._blocks(mu, mu * nu_frac, np.array(p_mu), np.array(p_z),
                                                ProtocolParams(n_pulses=n_pulses), link,
                                                ceiling=True)]


class TestKeyBasisCeiling:
    """B, the bound in front of the key-basis stage, made once per
    (pair, p_mu) row and read at each p_z, is at least l_up at every point,
    and B_x, B lowered by the entropy of the X error ratio, at least the
    unclamped secure length."""

    @settings(max_examples=300, deadline=None)
    @given(**_CEILING_SPACE)
    def test_bound_reaches_l_up(self, **point):
        for b in _ceiling_blocks(**point):
            l_up = _bounds(b)[0]["l_up"]
            bound = b.ceiling.at(b.pz)[0]
            assert (bound >= l_up).all()
            # above its largest B the block skips itself: it holds no point
            # whose l_up reaches that incumbent.  B is +inf where the error
            # ratio is too small for its slack to be finite
            incumbent = np.nextafter(bound.max(), np.inf)
            if incumbent == np.inf:
                continue
            dest = np.full(b.shape, -np.inf)
            with mock.patch.object(optimizer, "_GATHER_SHARE", 1.0):
                assert b.search(dest, incumbent) == (l_up.size, 0, 0, 0, 0)
            assert (dest == -np.inf).all() and (l_up < incumbent).all()

    @settings(max_examples=300, deadline=None)
    @given(**_CEILING_SPACE)
    # 1e7 pulses at 0 dB with 5 % misalignment: points with s_X1 = 0, with
    # s_Z1 = 0, and tested points whose X error ratio reaches one
    @example(pairs=[(0.3, 1 / 6), (0.5, 0.2), (0.7, 3 / 7), (0.9, 2 / 9)], p_mu=[0.3, 0.66, 0.9],
             p_z=[0.5, 0.8, 0.95], n_pulses=10**7, loss_db=0.0, dark=0.0, e_mis=0.05,
             block=1 << 14)
    def test_bound_x_reaches_the_length(self, **point):
        for b in _ceiling_blocks(**point):
            bounds, terms = _bounds(b)
            l = _unclamped_length(terms, b.p0)
            assert (bounds["B_x"] >= l).all()
            assert (bounds["B_x"] <= bounds["B"]).all()

    def test_example_reaches_every_case(self):
        # the explicit example above holds each case the derivation of B_x
        # treats apart
        (b,) = _ceiling_blocks([(0.3, 1 / 6), (0.5, 0.2), (0.7, 3 / 7), (0.9, 2 / 9)],
                               [0.3, 0.66, 0.9], [0.5, 0.8, 0.95], 10**7, 0.0, 0.0, 0.05, 1 << 14)
        bounds, terms = _bounds(b)
        s_x, s_z = terms["s_x1_low"], terms["s_z1_low"]
        tested = (s_x > 0.0) & (s_z > 0.0)
        assert (s_x == 0.0).any() and (s_z == 0.0).any()
        assert (tested & (terms["ratio"] == 1.0)).any() and (tested & (terms["ratio"] < 1.0)).any()
        assert (bounds["B_x"] >= _unclamped_length(terms, b.p0)).all()


def _all_pairs(grid, p0, link):
    """The exhaustive evaluate_grid over every (mu, nu) pair of the grid,
    in (mu, nu, p_mu, p_z) order."""
    mu, nu, pm, pz = (np.asarray(v, dtype=np.float64) for v in (
        grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values))
    pair_mu, pair_nu = (a.ravel() for a in np.meshgrid(mu, nu, indexing="ij"))
    l = evaluate_grid(pair_mu, pair_nu, pm, pz, p0, link)
    return l.reshape(len(pz), len(pm), len(mu), len(nu)).transpose(2, 3, 1, 0)


def _exhaustive_best(whole, grid):
    """The grid point, (mu, nu, p_mu, p_z), and its l_bits that _best_index
    picks over ``whole``, the grid's _all_pairs."""
    axes = [np.broadcast_to(np.asarray(v)[(slice(None),) + (None,) * (3 - i)], whole.shape)
            for i, v in enumerate((grid.mu_values, grid.nu_values, grid.p_mu_values,
                                   grid.p_z_values))]
    i = optimizer._best_index(whole, *axes)
    return tuple(float(a[i]) for a in axes), float(whole[i])


def _bounds(block):
    """The bounds at every point of the block ``block``, every step run on
    the whole block: B and B_x (+inf without the block's B), ``l_up`` and
    ``l_up_x``, in the order the search reads them; and the terms of both
    stages."""
    inputs = block._inputs(None)
    terms = {**block._key(inputs), **block._test(inputs)}
    if block.ceiling is None:
        b = b_x = np.full(block.shape, np.inf)
    else:
        b, z = block.ceiling.at(block.pz)
        b_x = finitekey._ceiling_x(b.copy(), z, terms)
    terms.update(finitekey._error_ratio(terms, terms, block.p0))
    return {"B": b, "B_x": b_x, "l_up": terms["l_up"], "l_up_x": terms["l_up_x"]}, terms


def _unclamped_length(terms, p0):
    """The secure length before its clamp at zero, from ``_bounds``'s
    terms: the composition ``finitekey._phase_bounds`` clamps."""
    phase = finitekey._phase_bounds(terms, terms, p0)
    s_z1_term = terms["s_z1_low"] * (1.0 - rates.binary_entropy(phase["phi_z_up"]))
    l = finitekey._compose(terms["s_z0_low"], s_z1_term, terms["lambda_ec"],
                           finitekey.EpsilonBudget.from_params(p0))
    assert np.maximum(0.0, l).tobytes() == phase["l_bits"].tobytes()
    return l


def _scorable_points(grid):
    pairs = optimizer._scorable(np.asarray(grid.mu_values)[:, None], np.asarray(grid.nu_values))
    return int(pairs.sum()) * len(grid.p_mu_values) * len(grid.p_z_values)


class TestPairLayout:
    """optimize's pruned search over the scorable (mu, nu) pairs must
    return the point and l_bits that _best_index picks over all the grid's
    pairs scored exhaustively, and raise where none scores above zero."""

    def _check(self, grid, link, p0=ProtocolParams()):
        whole = _all_pairs(grid, p0, link)
        if not (whole > 0.0).any():
            with pytest.raises(EmptyFeasibleSet):
                optimize(link, p0=p0, grid=grid, refine=False)
            return whole
        result = optimize(link, p0=p0, grid=grid, refine=False)
        b = result.best
        assert ((b.mu, b.nu, b.p_mu, b.p_z_bob), result.l_bits) == _exhaustive_best(whole, grid)
        assert result.points_scored + result.points_pruned == _scorable_points(grid)
        return whole

    @pytest.mark.parametrize("grid_name", ["default", "free"])
    @pytest.mark.parametrize("loss", [1.0, 23.0, 38.0])
    def test_projection_grids(self, grid_name, loss):
        p, link, _ = load_config(CONFIG_PROJ)
        grid = GridSpec(p_z_values=FREE_P_Z if grid_name == "free" else (p.p_z_bob,))
        self._check(grid, link.with_channel_loss(loss), p)

    def test_permuted_grid(self):
        grid = GridSpec(
            mu_values=tuple(reversed(SMALL_GRID.mu_values)),
            nu_values=(0.2, 0.05, 0.3, 0.1, 0.25, 0.15),
            p_mu_values=(0.8, 0.4, 0.66, 0.55),
            p_z_values=(0.7, 0.95, 0.5),
        )
        assert (self._check(grid, LINK_75) > 0.0).any()

    def test_mu_rows_without_a_scorable_nu(self):
        # mu = 0.03 and 0.05 are below or at every nu; nu = 0 is never
        # scorable (GridSpec refuses nu < 0)
        grid = GridSpec(
            mu_values=(0.03, 0.4, 0.05, 0.6),
            nu_values=(0.05, 0.0, 0.1, 0.0, 0.2),
            p_mu_values=(0.5, 0.8),
            p_z_values=(0.9, 0.6),
        )
        whole = self._check(grid, LINK_75)
        assert (whole[[0, 2]] == 0.0).all() and (whole[:, [1, 3]] == 0.0).all()
        assert (whole > 0.0).any()

    def test_pair_axis_split_into_blocks(self, monkeypatch):
        # 5-point blocks: every (p_mu, p_z) row of 13 pairs is split
        monkeypatch.setattr(optimizer, "_BLOCK_POINTS", 5)
        grid = GridSpec(
            mu_values=(0.3, 0.5, 0.7, 0.1),
            nu_values=(0.05, 0.15, 0.25, 0.35),
            p_mu_values=(0.5, 0.8),
            p_z_values=(0.9, 0.6, 0.75),
        )
        assert (self._check(grid, LINK_75) > 0.0).any()

    def test_no_positive_nu(self):
        grid = GridSpec(nu_values=(0.0,), p_mu_values=(0.5,))
        with pytest.raises(EmptyFeasibleSet):
            optimize(LINK_75, grid=grid)


class TestOptimize:
    def test_75km_optimum_near_reference_point(self):
        result = optimize(LINK_75)
        assert abs(result.best.mu - 0.56) <= 0.15
        assert abs(result.best.nu - 0.14) <= 0.08
        # the optimizer must do at least as well as the reference settings
        ref_l = _scalar_l(0.56, 0.14, 0.66, 0.9, ProtocolParams(), LINK_75)
        assert result.l_bits >= ref_l

    @pytest.mark.parametrize("loss", [9.6, 30.0])
    def test_reported_length_is_the_grid_score(self, loss):
        p, link, _ = load_config(CONFIG_PROJ)
        link = link.with_channel_loss(loss)
        coarse = optimize(link, p0=p, refine=False)
        assert coarse.l_bits == _all_pairs(GridSpec(), p, link).max()
        fine = optimize(link, p0=p)
        b = fine.best
        assert fine.l_bits == evaluate_grid(b.mu, b.nu, b.p_mu, b.p_z_bob, p, link)[0, 0, 0]
        assert fine.l_bits >= coarse.l_bits

    def test_no_grid_point_beats_incumbent(self):
        result = optimize(LINK_75, grid=SMALL_GRID)
        assert result.l_bits >= _all_pairs(SMALL_GRID, ProtocolParams(), LINK_75).max()

    def test_deterministic_under_grid_permutation(self):
        a = optimize(LINK_75, grid=SMALL_GRID)
        permuted = GridSpec(
            mu_values=tuple(reversed(SMALL_GRID.mu_values)),
            nu_values=tuple(reversed(SMALL_GRID.nu_values)),
            p_mu_values=tuple(reversed(SMALL_GRID.p_mu_values)),
        )
        b = optimize(LINK_75, grid=permuted)
        assert a.best == b.best
        assert a.l_bits == pytest.approx(b.l_bits, rel=1e-12)

    def test_dark_dominated_regime_infeasible(self):
        with pytest.raises(EmptyFeasibleSet):
            optimize(LinkModel(channel_loss_db=60.0), grid=SMALL_GRID)

    def test_ideal_link_prefers_signal_heavy(self):
        det = DetectorModel(efficiency=1.0, dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=0.0, receiver_loss_db=0.0, detector=det)
        result = optimize(link, grid=SMALL_GRID, refine=False)
        assert result.best.p_mu >= 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(mu_values=())

    # the default axes and the free p_z axis, then ranges whose last step
    # would pass hi: a rounded step count once made (1, 2, 3) of 1..2.6 by
    # 1, and ended 0.5..0.98 by 0.05 at a p_z of 1.0
    @pytest.mark.parametrize("lo, hi, step, n", [
        (0.10, 0.90, 0.02, 41), (0.01, 0.50, 0.01, 50), (0.10, 0.95, 0.05, 18),
        (0.5, 0.95, 0.05, 10), (1, 2.6, 1, 2), (0.5, 0.98, 0.05, 10),
    ])
    def test_steps_end_at_or_below_hi(self, lo, hi, step, n):
        values = optimizer._steps(lo, hi, step)
        assert values == tuple(round(lo + i * step, 10) for i in range(n))
        assert values[-1] <= hi

    def test_default_axes_are_steps(self):
        grid = GridSpec()
        assert grid.mu_values == optimizer._steps(0.10, 0.90, 0.02)
        assert grid.nu_values == optimizer._steps(0.01, 0.50, 0.01)
        assert grid.p_mu_values == optimizer._steps(0.10, 0.95, 0.05)

    def test_inverted_ranges_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(mu_values=(0.1,), nu_values=(0.2, 0.3))

    # values validate_params refuses; at 10 dB they gave a p_mu of
    # 1.0000000000000004 with 1.98e20 bits, a p_z of 1.5 with 2.6e7 bits,
    # or an error deep in the refinement or in binary_entropy
    @pytest.mark.parametrize("axis, values, error", [
        ("mu_values", (0.5, math.nan), ParamError),
        ("nu_values", (0.1, math.inf), ParamError),
        ("p_z_values", (-math.inf,), ParamError),
        ("mu_values", (-0.2, 0.5), ParamError),
        ("mu_values", (0.0, 0.5), ParamError),
        ("nu_values", (-0.01, 0.2), InvalidIntensityOrder),
        ("p_mu_values", (0.5, 1.0), ProbabilityOutOfRange),
        ("p_mu_values", (0.0, 0.5), ProbabilityOutOfRange),
        ("p_z_values", (1.5,), ProbabilityOutOfRange),
        ("p_z_values", (0.0, 0.9), ProbabilityOutOfRange),
    ])
    def test_values_outside_the_parameter_domain_rejected(self, axis, values, error):
        with pytest.raises(error, match=f"^{axis}="):
            GridSpec(**{axis: values})

    def test_refinement_never_hurts(self):
        coarse = optimize(LINK_75, grid=SMALL_GRID, refine=False)
        fine = optimize(LINK_75, grid=SMALL_GRID, refine=True)
        assert fine.l_bits >= coarse.l_bits - 1e-6

    def test_refinement_line_across_nu_ge_mu_scores_zero(self, monkeypatch):
        # the coarse incumbent (mu, nu) = (0.6, 0.25) refines mu over
        # 0.2..1.0 as a run of pairs, two of them with mu <= nu
        lines = []

        def spy(mu, nu, p_mu, p_z, p0, link):
            l = evaluate_grid(mu, nu, p_mu, p_z, p0, link)
            lines.append((np.atleast_1d(mu), np.atleast_1d(nu), l))
            return l

        monkeypatch.setattr(optimizer, "evaluate_grid", spy)
        grid = GridSpec(mu_values=(0.2, 0.6, 1.0), nu_values=(0.15, 0.25), p_mu_values=(0.5, 0.8))
        result = optimize(LINK_75, grid=grid)
        mu, nu, l = lines[1]
        crossed = nu >= mu
        assert l.shape == (1, 1, 21) and crossed.sum() == 2
        assert (l[..., crossed] == 0.0).all() and (l > 0.0).any()
        assert result.best.mu not in mu[crossed]
        assert result.best.nu < result.best.mu and result.l_bits > 0.0

    @pytest.mark.parametrize("grid_name", ["default", "free"])
    @pytest.mark.parametrize("loss", [1.0, 9.6, 23.0, 30.0, 37.0, 38.0, 39.0, 45.0])
    def test_pruned_search_is_exhaustive_best(self, grid_name, loss):
        # the pruned search returns what _best_index picks over the whole
        # grid scored, on the projection grids across the scan's losses
        p, link, _ = load_config(CONFIG_PROJ)
        grid = GridSpec(p_z_values=FREE_P_Z if grid_name == "free" else (p.p_z_bob,))
        TestPairLayout()._check(grid, link.with_channel_loss(loss), p)

    @pytest.mark.parametrize("loss", [14.6, 60.0])
    def test_pruned_search_on_small_grid(self, loss):
        TestPairLayout()._check(SMALL_GRID, LINK_75.with_channel_loss(loss))

    @settings(max_examples=25, deadline=None)
    @given(
        # values drawn from few choices repeat on an axis: exact ties
        mu=st.lists(st.sampled_from([0.3, 0.45, 0.5, 0.6]), min_size=1, max_size=4),
        nu=st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.3]), min_size=1, max_size=4),
        p_mu=st.lists(st.sampled_from([0.4, 0.66, 0.8]), min_size=1, max_size=3),
        p_z=st.lists(st.sampled_from([0.6, 0.9]), min_size=1, max_size=3),
        loss_db=st.sampled_from([10.0, 30.0, 50.0]),
        block=st.sampled_from([3, 7, 1 << 14]),
    )
    def test_pruned_search_with_ties(self, mu, nu, p_mu, p_z, loss_db, block):
        assume(max(mu) > min(nu))
        grid = GridSpec(mu_values=tuple(mu), nu_values=tuple(nu), p_mu_values=tuple(p_mu),
                        p_z_values=tuple(p_z))
        with mock.patch.object(optimizer, "_BLOCK_POINTS", block):
            TestPairLayout()._check(grid, LINK_75.with_channel_loss(loss_db))

    @pytest.mark.parametrize("loss, quantum", [(4.8, 2.0**24), (9.6, 2.0**22), (14.6, 2.0**20)])
    def test_pruned_search_keeps_every_tie(self, monkeypatch, loss, quantum):
        # Scores and bounds floored to a coarse power-of-two quantum: the
        # bounds still bound the scores, many points with different values
        # tie, and at some of them the bound equals the score.  On
        # descending axes in 5-point blocks, ties scored late have the
        # smaller values: the search must score every tie and return the
        # smallest (mu, nu, p_mu, p_z) among them
        grid = GridSpec(**{name: tuple(reversed(getattr(SMALL_GRID, name))) for name in (
            "mu_values", "nu_values", "p_mu_values")}, p_z_values=(0.95, 0.9, 0.8))
        monkeypatch.setattr(optimizer, "_BLOCK_POINTS", 5)
        for stage, name in (("_key_basis_bounds", "l_up"), ("_error_ratio", "l_up_x"),
                            ("_phase_bounds", "l_bits")):
            def coarse(*args, stage=getattr(finitekey, stage), name=name):
                terms = stage(*args)
                terms[name] = np.floor(terms[name] / quantum) * quantum
                return terms

            monkeypatch.setattr(finitekey, stage, coarse)
        whole = TestPairLayout()._check(grid, LINK_75.with_channel_loss(loss))
        assert (whole == whole.max()).sum() > 1

    @pytest.mark.parametrize("grid_name, loss", [
        ("small", 14.6), ("default", 9.6), ("default", 30.0), ("free", 9.6), ("free", 30.0),
        ("free", 38.0),
    ])
    def test_points_scored_and_pruned(self, monkeypatch, grid_name, loss):
        # the counts sum to the scorable points, the points scored hold
        # their exhaustive scores, and every point left unscored is charged
        # to the first bound, in the order B, B_x, l_up, l_up_x, that is
        # below the incumbent of its block and so below the returned coarse
        # l_bits
        p, link, _ = load_config(CONFIG_PROJ)
        grid = {"small": SMALL_GRID, "default": GridSpec(p_z_values=(p.p_z_bob,)),
                "free": GridSpec(p_z_values=FREE_P_Z)}[grid_name]
        blocks = []
        search = optimizer._Block.search

        def recording(block, dest, incumbent):
            counts = search(block, dest, incumbent)
            blocks.append((block, dest.copy(), incumbent, counts))
            return counts

        monkeypatch.setattr(optimizer._Block, "search", recording)
        result = optimize(link.with_channel_loss(loss), p0=p, grid=grid, refine=False)
        pruned = (result.pruned_by_b, result.pruned_by_b_x, result.pruned_by_l_up,
                  result.pruned_by_l_up_x)
        assert sum(pruned) == result.points_pruned
        assert result.points_scored + result.points_pruned == _scorable_points(grid)
        assert (*pruned, result.points_scored) == tuple(np.sum([c for *_, c in blocks], axis=0))
        for block, dest, incumbent, (*by_bound, count) in blocks:
            scored = dest > -np.inf
            assert scored.sum() == count
            assert dest[scored].tobytes() == block.l_bits()[scored].tobytes()
            # B and B_x are +inf where the block has no B
            bounds = list(_bounds(block)[0].values())
            stopped, passed = [], np.ones(block.shape, dtype=bool)
            for bound in bounds:
                stopped.append(passed & (bound < incumbent))
                passed &= ~stopped[-1]
            assert [int(s.sum()) for s in stopped] == by_bound
            assert (scored == passed).all()
            for bound, at in zip(bounds, stopped):
                assert (bound[at] < result.l_bits).all()
        assert 0 < result.points_scored and 0 < result.points_pruned
        # B and B_x run only on the free-p_z grid, at every loss
        assert (result.pruned_by_b > 0) == (result.pruned_by_b_x > 0) == (grid_name == "free")

    @settings(max_examples=40, deadline=None)
    @given(
        loss_db=st.floats(0.0, 45.0),
        dark=st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
        share=st.sampled_from([0.0, optimizer._GATHER_SHARE, 1.0]),
        # the incumbent, a score of the block's: zero, or its q-quantile
        q=st.one_of(st.none(), st.floats(0.0, 1.0)),
        ceiling=st.booleans(),
    )
    def test_search_scores_as_the_whole_block(self, loss_db, dark, share, q, ceiling):
        # on the whole block or on gathered points, with B and B_x or
        # without, the search gives each point it scores the exhaustive
        # score's bits, scores every point whose positive exhaustive score
        # reaches the incumbent, and scores exactly the points whose bounds
        # all reach it.  A score clamped to zero can tie an incumbent of
        # zero while its bounds, on the unclamped length, are below it
        link = LinkModel(channel_loss_db=loss_db, detector=DetectorModel(dark_prob_per_gate=dark))
        mu, nu = (np.array(v) for v in ((0.3, 0.5, 0.5, 0.7, 0.7), (0.05, 0.1, 0.3, 0.2, 0.4)))
        pm, pz = np.array([0.4, 0.66, 0.8]), np.array([0.9, 0.6])
        (_, block), = optimizer._blocks(mu, nu, pm, pz, ProtocolParams(), link, ceiling=ceiling)
        # ceiling makes B's rows, whatever the grid's number of p_z values
        assert (block.ceiling is not None) == ceiling
        whole = block.l_bits()
        incumbent = 0.0 if q is None else float(np.sort(whole, axis=None)[round(q * (whole.size - 1))])
        dest = np.full(block.shape, -np.inf)
        with mock.patch.object(optimizer, "_GATHER_SHARE", share):
            counts = block.search(dest, incumbent)
        scored = dest > -np.inf
        assert scored.sum() == counts[4] and sum(counts) == whole.size
        assert dest[scored].tobytes() == whole[scored].tobytes()
        assert (((whole >= incumbent) & (whole > 0.0)) <= scored).all()
        bounds, terms = _bounds(block)
        assert (np.logical_and.reduce([v >= incumbent for v in bounds.values()]) == scored).all()
        if ceiling:
            assert (bounds["B"] >= bounds["l_up"]).all()
            assert (bounds["B_x"] >= _unclamped_length(terms, block.p0)).all()

    @settings(max_examples=30, deadline=None)
    @given(hint=st.tuples(*(
        # on an axis value, between the axis's ends, or off the axis
        st.one_of(st.sampled_from(values), st.floats(min(values), max(values)),
                  st.floats(0.001, 2.0))
        for values in (HINT_GRID.mu_values, HINT_GRID.nu_values, HINT_GRID.p_mu_values,
                       HINT_GRID.p_z_values))),
        loss=st.sampled_from([4.8, 9.6, 14.6]))
    def test_hint_changes_only_the_work(self, hint, loss):
        # the hint seeds the incumbent, so the result is the cold search's;
        # a higher incumbent scores no point the cold search would not
        link = LINK_75.with_channel_loss(loss)
        mu, nu, p_mu, p_z = hint
        hinted = optimize(link, grid=HINT_GRID, hint=ProtocolParams(
            mu=mu, nu=nu, p_mu=p_mu, p_z_alice=p_z, p_z_bob=p_z))
        cold = optimize(link, grid=HINT_GRID)
        assert (hinted.best, hinted.l_bits, hinted.skr_bps) == (cold.best, cold.l_bits, cold.skr_bps)
        assert hinted.stats.counts == cold.stats.counts
        assert hinted.points_scored <= cold.points_scored
        assert (hinted.points_scored + hinted.points_pruned
                == cold.points_scored + cold.points_pruned == _scorable_points(HINT_GRID))

    def test_ties_resolve_to_smallest_values(self):
        # maxima at (mu, nu) = (0.3, 0.01), (0.1, 0.05), (0.2, 0.05)
        l = np.array([[1.0, 2.0], [2.0, 0.0], [2.0, 1.0]])
        mu = np.array([0.3, 0.1, 0.2])[:, None]
        nu = np.array([0.05, 0.01])
        assert optimizer._best_index(l, mu, nu, 0.5, 0.9) == (1, 0)
        assert optimizer._best_index(l.T, mu.T, nu[:, None], 0.5, 0.9) == (0, 1)

    @pytest.mark.parametrize("key", sorted(PROJECTION_PINS))
    def test_projection_pins(self, key):
        grid_name, loss = key
        p, link, _ = load_config(CONFIG_PROJ)
        grid = GridSpec(p_z_values=FREE_P_Z if grid_name == "free" else (p.p_z_bob,))
        link = link.with_channel_loss(loss)
        if PROJECTION_PINS[key] is None:
            with pytest.raises(EmptyFeasibleSet):
                optimize(link, p0=p, grid=grid)
            return
        point, l_hex, digest = PROJECTION_PINS[key]
        result = optimize(link, p0=p, grid=grid)
        b = result.best
        assert (b.mu, b.nu, b.p_mu, b.p_z_bob) == point
        assert result.l_bits == float.fromhex(l_hex)
        assert hashlib.sha256(_all_pairs(grid, p, link).tobytes()).hexdigest() == digest


class TestScan:
    def test_measured_losses_strictly_decreasing(self):
        rows = scan(LINK_75, [4.8, 9.6, 14.6], p=ProtocolParams())
        skrs = [r.skr_bps for r in rows]
        assert all(s > 0 for s in skrs)
        assert skrs[0] > skrs[1] > skrs[2]

    def test_distance_conversion(self):
        rows = scan(LINK_75, [4.8], p=ProtocolParams())
        assert rows[0].distance_km == pytest.approx(25.0, rel=1e-9)

    def test_monotone_in_loss(self):
        rows = scan(LINK_75, range(1, 30, 3), p=ProtocolParams())
        skrs = [r.skr_bps for r in rows]
        assert all(a >= b for a, b in zip(skrs, skrs[1:]))

    def test_empty_loss_list_rejected(self):
        with pytest.raises(ValueError):
            scan(LINK_75, [], p=ProtocolParams())

    def test_optimized_scan_handles_infeasible_losses(self):
        rows = scan(LINK_75, [14.6, 60.0], p="optimize", grid=SMALL_GRID)
        assert rows[0].skr_bps > 0.0
        assert rows[1].skr_bps == 0.0

    def test_optimized_scan_uses_p0(self):
        p0 = ProtocolParams(mu=0.45, nu=0.12, p_mu=0.7, p_z_alice=0.8, p_z_bob=0.8,
                            n_pulses=2 * 10**10, f_rep=1e9, f_ec=1.1)
        rows = scan(LINK_75, [14.6, 60.0], p="optimize", grid=SMALL_GRID, p0=p0)
        best = optimize(LINK_75, p0=p0, grid=SMALL_GRID)
        assert (rows[0].mu, rows[0].nu, rows[0].p_mu, rows[0].p_z) == (
            best.best.mu, best.best.nu, best.best.p_mu, best.best.p_z_bob)
        assert (rows[0].l_bits, rows[0].skr_bps) == (best.l_bits, best.skr_bps)
        # the infeasible loss reports p0's point, not the defaults
        assert (rows[1].mu, rows[1].nu, rows[1].p_mu, rows[1].p_z) == (0.45, 0.12, 0.7, 0.8)
        assert rows[1].l_bits == 0.0

    def test_one_statistics_call_per_row(self, monkeypatch):
        calls = []
        expected_statistics = rates.expected_statistics

        def counting(p, link):
            if np.ndim(p.mu) == 0:  # grid blocks call it with array intensities
                calls.append(link.channel_loss_db)
            return expected_statistics(p, link)

        monkeypatch.setattr(rates, "expected_statistics", counting)
        scan(LINK_75, [4.8, 9.6, 60.0], p=ProtocolParams())
        assert calls == [4.8, 9.6, 60.0]
        calls.clear()
        rows = scan(LINK_75, [14.6, 60.0], p="optimize", grid=SMALL_GRID)
        # the feasible row reuses the statistics its incumbent was scored with
        assert calls == [14.6, 60.0]
        stats = expected_statistics(optimize(LINK_75, grid=SMALL_GRID).best, LINK_75)
        assert (rows[0].e_z, rows[0].e_x) == (stats.pooled_qber(Basis.Z), stats.pooled_qber(Basis.X))

    def test_previous_result_freed_before_next_loss(self, monkeypatch):
        # the previous loss's result would otherwise stay alive while the
        # next loss's grid is scored
        results = []

        def tracking(*args, **kwargs):
            assert all(r() is None for r in results)
            result = optimize(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(optimizer, "optimize", tracking)
        rows = scan(LINK_75, [4.8, 9.6, 14.6], p="optimize", grid=SMALL_GRID)
        assert len(results) == 3 and all(r.l_bits > 0.0 for r in rows)

    @pytest.mark.parametrize("losses", ["1:45:4", "37:41:1"])
    def test_hinted_rows_equal_cold_searches(self, losses):
        # each loss is hinted with the last one's optimum: its row is what
        # a cold optimize of that loss gives, or p0's with l = 0
        p, link, _ = load_config(CONFIG_PROJ)
        grid = GridSpec(p_z_values=FREE_P_Z)
        values = cli._parse_losses(losses)
        rows = scan(link, values, p="optimize", grid=grid, p0=p)
        for loss, row in zip(values, rows):
            at = link.with_channel_loss(loss)
            try:
                cold = optimize(at, p0=p, grid=grid)
            except EmptyFeasibleSet:
                best, l_bits, skr = p, 0.0, 0.0
                stats = rates.expected_statistics(p, at)
            else:
                best, l_bits, skr, stats = cold.best, cold.l_bits, cold.skr_bps, cold.stats
            assert row == optimizer.ScanRow.at(loss, best, l_bits, skr, stats)
        assert any(r.l_bits > 0.0 for r in rows) and any(r.l_bits == 0.0 for r in rows)

    def test_csv_format(self):
        rows = scan(LINK_75, [4.8], p=ProtocolParams())
        text = format_scan_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "loss_db,distance_km,mu,nu,p_mu,p_z,l_bits,skr_bps,e_z,e_x"
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 10
        assert lines[1].split(",")[5] == "0.9"
