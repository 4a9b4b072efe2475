import hashlib
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import finitekey, optimizer, rates
from qkdlab.core import Basis, DetectorModel, LinkModel, ProtocolParams, load_config
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
# float.hex, and the SHA-256 of the certificate's l_bits in
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
        p0 = ProtocolParams()
        pts = [
            (0.56, 0.14, 0.66, 0.9),
            (0.3, 0.05, 0.4, 0.9),
            (0.7, 0.3, 0.8, 0.9),
            (0.5, 0.22, 0.8, 0.5),
            (0.2, 0.19, 0.55, 0.9),
        ]
        arr = np.array(pts).T
        vec = evaluate_grid(arr[0], arr[1], arr[2], arr[3], p0, LINK_75)
        for i, pt in enumerate(pts):
            assert vec[i] == _scalar_l(*pt, p0, LINK_75)

    def test_infeasible_points_score_zero(self):
        p0 = ProtocolParams()
        vec = evaluate_grid(
            np.array([0.2, 0.2]), np.array([0.2, 0.3]),
            np.array([0.66, 0.66]), np.array([0.9, 0.9]), p0, LINK_75,
        )
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
        assert vec.shape == ()
        assert float(vec) == _scalar_l(mu, nu, p_mu, p_z, p0, link)

    @pytest.mark.parametrize("link", [
        LINK_75, LinkModel(channel_loss_db=35.0, detector=DetectorModel(dark_prob_per_gate=1e-8)),
    ])
    def test_broadcast_grid_equals_key_length(self, link):
        # a random (p_z, p_mu, mu, nu) grid with infeasible points (nu >= mu,
        # nu = 0) and keyless ones scores exactly what key_length gives point
        # by point, and 0.0 where it raises
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.02, 1.0, 6)[:, None]
        nu = np.append(rng.uniform(0.0, 0.6, 6), 0.0)
        p_mu = rng.uniform(0.05, 0.95, 4)[:, None, None]
        p_z = rng.uniform(0.05, 0.95, 3)[:, None, None, None]
        p0 = ProtocolParams()
        grid = evaluate_grid(mu, nu, p_mu, p_z, p0, link)
        assert grid.shape == (3, 4, 6, 7)
        points = np.array([
            _scalar_l(mu[k, 0], nu[l], p_mu[j, 0, 0], p_z[i, 0, 0, 0], p0, link)
            for i, j, k, l in np.ndindex(grid.shape)
        ]).reshape(grid.shape)
        assert grid.tobytes() == points.tobytes()
        assert (grid > 0.0).any() and (grid == 0.0).any()

    def test_broadcast_shape(self):
        vec = evaluate_grid(np.array([0.4, 0.5, 0.6])[:, None], np.array([0.1, 0.2]),
                            0.66, 0.9, ProtocolParams(), LINK_75)
        assert vec.shape == (3, 2)
        assert vec[1, 0] == evaluate_grid(0.5, 0.1, 0.66, 0.9, ProtocolParams(), LINK_75)

    def test_blocks_match_point_by_point(self, monkeypatch):
        # 16-point blocks over a (2, 3, 7, 5) grid: each (p_z, p_mu) row of 35
        # points is split into mu runs of 3, 3 and 1 rows
        monkeypatch.setattr(optimizer, "_BLOCK_POINTS", 16)
        mu = np.linspace(0.3, 0.7, 7)[:, None]
        nu = np.linspace(0.05, 0.35, 5)
        p_mu = np.array([0.4, 0.6, 0.8])[:, None, None]
        p_z = np.array([0.6, 0.9])[:, None, None, None]
        whole = evaluate_grid(mu, nu, p_mu, p_z, ProtocolParams(), LINK_75)
        assert whole.shape == (2, 3, 7, 5)
        points = np.array([
            evaluate_grid(mu[k, 0], nu[l], p_mu[j, 0, 0], p_z[i, 0, 0, 0], ProtocolParams(), LINK_75)
            for i, j, k, l in np.ndindex(whole.shape)
        ]).reshape(whole.shape)
        assert whole.tobytes() == points.tobytes()
        assert (whole > 0.0).any()

    def test_default_blocks_match_rows(self):
        # 19 rows of 2050 points at 7 rows a block: blocks of 7, 7 and 5 rows
        grid = GridSpec()
        mu = np.array(grid.mu_values)[:, None]
        nu = np.array(grid.nu_values)
        p_mu = np.linspace(0.1, 0.95, 19)
        whole = evaluate_grid(mu, nu, p_mu[:, None, None], 0.9, ProtocolParams(), LINK_75)
        rows = [evaluate_grid(mu, nu, pm, 0.9, ProtocolParams(), LINK_75) for pm in p_mu]
        assert whole.tobytes() == np.stack(rows).tobytes()


def _rectangular(grid, p0, link):
    """evaluate_grid over the whole grid in (mu, nu, p_mu, p_z) order."""
    mu, nu, pm, pz = (np.asarray(v, dtype=np.float64) for v in (
        grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values))
    return evaluate_grid(mu[:, None, None, None], nu[:, None, None], pm[:, None], pz, p0, link)


class TestPairLayout:
    """optimize scores only the scorable (mu, nu) pairs; its certificate
    must equal the rectangular grid bit for bit."""

    def _check(self, grid, link, p0=ProtocolParams()):
        whole = _rectangular(grid, p0, link)
        if not (whole > 0.0).any():
            with pytest.raises(EmptyFeasibleSet):
                optimize(link, p0=p0, grid=grid, refine=False)
            return whole
        cert = optimize(link, p0=p0, grid=grid, refine=False).certificate
        assert cert.l_bits.shape == whole.shape
        assert cert.l_bits.tobytes() == whole.tobytes()
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
        # mu = 0.03 and 0.05 are below or at every nu; nu = 0 and -0.1 are
        # never scorable
        grid = GridSpec(
            mu_values=(0.03, 0.4, 0.05, 0.6),
            nu_values=(0.05, 0.0, 0.1, -0.1, 0.2),
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
        grid = GridSpec(nu_values=(0.0, -0.1), p_mu_values=(0.5,))
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
        assert coarse.l_bits == coarse.certificate.l_bits.max()
        fine = optimize(link, p0=p)
        b = fine.best
        assert fine.l_bits == evaluate_grid(b.mu, b.nu, b.p_mu, b.p_z_bob, p, link)
        assert fine.l_bits >= coarse.l_bits

    def test_certificate_never_beats_incumbent(self):
        result = optimize(LINK_75, grid=SMALL_GRID)
        assert result.l_bits >= result.certificate.l_bits.max() - 1e-6

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

    def test_inverted_ranges_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(mu_values=(0.1,), nu_values=(0.2, 0.3))

    def test_refinement_never_hurts(self):
        coarse = optimize(LINK_75, grid=SMALL_GRID, refine=False)
        fine = optimize(LINK_75, grid=SMALL_GRID, refine=True)
        assert fine.l_bits >= coarse.l_bits - 1e-6

    def test_certificate_is_grid_shaped(self):
        result = optimize(LINK_75, grid=SMALL_GRID, refine=False)
        cert = result.certificate
        shape = (len(SMALL_GRID.mu_values), len(SMALL_GRID.nu_values),
                 len(SMALL_GRID.p_mu_values), len(SMALL_GRID.p_z_values))
        for a in (cert.mu, cert.nu, cert.p_mu, cert.p_z, cert.l_bits):
            assert a.shape == shape
        assert cert.mu[2, 1, 3, 0] == SMALL_GRID.mu_values[2]
        assert cert.nu[2, 1, 3, 0] == SMALL_GRID.nu_values[1]
        assert cert.p_mu[2, 1, 3, 0] == SMALL_GRID.p_mu_values[3]
        assert cert.l_bits[2, 1, 3, 0] == evaluate_grid(
            SMALL_GRID.mu_values[2], SMALL_GRID.nu_values[1], SMALL_GRID.p_mu_values[3],
            0.9, ProtocolParams(), LINK_75)

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
        assert hashlib.sha256(result.certificate.l_bits.tobytes()).hexdigest() == digest


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
        # the previous loss's certificate would otherwise stay alive while
        # the next loss's grid is scored
        results = []

        def tracking(*args, **kwargs):
            assert all(r() is None for r in results)
            result = optimize(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(optimizer, "optimize", tracking)
        rows = scan(LINK_75, [4.8, 9.6, 14.6], p="optimize", grid=SMALL_GRID)
        assert len(results) == 3 and all(r.l_bits > 0.0 for r in rows)

    def test_csv_format(self):
        rows = scan(LINK_75, [4.8], p=ProtocolParams())
        text = format_scan_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "loss_db,distance_km,mu,nu,p_mu,p_z,l_bits,skr_bps,e_z,e_x"
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 10
        assert lines[1].split(",")[5] == "0.9"
