import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkdlab import finitekey, rates
from qkdlab.core import Basis, DetectorModel, Intensity, LinkModel, ObservedCounts, ProtocolParams
from qkdlab.finitekey import (
    DecoyFactors,
    EmptyKeyBasis,
    EpsilonBudget,
    IntensityDegenerate,
    hoeffding_delta,
    key_length,
    lower_estimate,
    phase_error_bound,
    single_photon_bound,
    upper_estimate,
    vacuum_lower_bound,
    vacuum_upper_bound,
)

P_REF = ProtocolParams()
LINK_75 = LinkModel(channel_loss_db=14.6)
EPS_PE = 1e-9 / 19.0
F_REF = DecoyFactors(P_REF)

# Frozen by an independent script evaluating the closed forms directly,
# before the module was written.  Inputs: Z-basis detections 7.0e6
# (signal) and 1.1e6 (decoy), errors 4.0e4 and 9.0e3, no X-basis tallies,
# (mu, nu, p_mu) = (0.56, 0.14, 0.66), eps = 1e-9/19.  The "m_" values
# treat the Z errors as the row the estimators read.
ORACLE_COUNTS = ObservedCounts(sift=[[7_000_000, 1_100_000], [0, 0]],
                               err=[[40_000, 9_000], [0, 0]])
ORACLE = {
    "n_plus_mu": 18593708.317096,
    "n_minus_mu": 18541768.96191221,
    "n_plus_nu": 3754596.92009229,
    "n_minus_nu": 3688351.190160359,
    "m_plus_mu": 108121.22746701201,
    "m_minus_nu": 27872.20125671099,
    "s0_up": 117581.03209795205,
    "s_z1": 5680896.015261512,
}

# Frozen full-chain values on the expected counts at the 75 km reference
# point (independent evaluation).
CHAIN_75 = {
    "s_z1_low": 4176540.2740713684,
    "phi_z_up": 0.06411168797447525,
    "lambda_ec": 1460449.7848328564,
    "l_bits": 1280983.300219911,
    "skr_bps": 6404.916501099555,
}


class TestEpsilonBudget:
    def test_default_share(self):
        eps = EpsilonBudget.from_params(P_REF)
        assert eps.eps_pe == pytest.approx(1e-9 / 19.0, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EpsilonBudget(eps_sec=0.0, eps_cor=1e-9, eps_pe=1e-9)


class TestHoeffdingDelta:
    def test_frozen_value(self):
        assert hoeffding_delta(10**6, 1e-9) == pytest.approx(3219.0, abs=0.5)

    def test_zero_sample(self):
        assert hoeffding_delta(0, 0.5) == 0.0

    def test_unit_case(self):
        assert hoeffding_delta(2, math.exp(-1)) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hoeffding_delta(-1, 0.5)
        with pytest.raises(ValueError):
            hoeffding_delta(10, 1.5)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=0, max_value=10**12),
           eps=st.floats(min_value=1e-12, max_value=0.999))
    def test_nonnegative_and_sublinear(self, n, eps):
        d = hoeffding_delta(n, eps)
        assert d >= 0.0
        assert d <= n or n < 30 * math.log(1 / eps)


def _rows(counts: ObservedCounts, b: int, eps: float):
    """Basis b's detection and error rows, their totals, and the deviations
    of the two totals at budget eps."""
    n, m = counts.sift[b], counts.err[b]
    n_total, m_total = n.sum(), m.sum()
    return n, m, n_total, m_total, hoeffding_delta(n_total, eps), hoeffding_delta(m_total, eps)


def _estimates(x, delta):
    """Lower and upper estimators of row x's two intensities."""
    return ([lower_estimate(F_REF, x, k, delta) for k in (0, 1)],
            [upper_estimate(F_REF, x, k, delta) for k in (0, 1)])


class TestScaledCountBounds:
    def test_frozen_oracle_values(self):
        n, m, _, _, d_n, d_m = _rows(ORACLE_COUNTS, 0, EPS_PE)
        assert upper_estimate(F_REF, n, 0, d_n) == pytest.approx(ORACLE["n_plus_mu"], rel=1e-12)
        assert lower_estimate(F_REF, n, 0, d_n) == pytest.approx(ORACLE["n_minus_mu"], rel=1e-12)
        assert upper_estimate(F_REF, n, 1, d_n) == pytest.approx(ORACLE["n_plus_nu"], rel=1e-12)
        assert lower_estimate(F_REF, n, 1, d_n) == pytest.approx(ORACLE["n_minus_nu"], rel=1e-12)
        assert upper_estimate(F_REF, m, 0, d_m) == pytest.approx(ORACLE["m_plus_mu"], rel=1e-12)
        assert lower_estimate(F_REF, m, 1, d_m) == pytest.approx(ORACLE["m_minus_nu"], rel=1e-12)

    def test_vanishing_fluctuation_limit(self):
        n, _, _, _, d_n, _ = _rows(ORACLE_COUNTS, 0, 1.0 - 1e-12)
        lower, upper = _estimates(n, d_n)
        for i, (k, tally) in enumerate(zip(Intensity, (7_000_000, 1_100_000))):
            scale = math.exp(P_REF.mean_photons(k)) / P_REF.intensity_prob(k)
            assert upper[i] == pytest.approx(scale * tally, rel=1e-6)
            assert lower[i] == pytest.approx(scale * tally, rel=1e-6)

    def test_all_zero_counts(self):
        n, m, _, _, d_n, d_m = _rows(ObservedCounts(), 0, EPS_PE)
        for x, delta in ((n, d_n), (m, d_m)):
            lower, upper = _estimates(x, delta)
            assert lower == upper == [0.0, 0.0]

    @settings(max_examples=30, deadline=None)
    @given(n_mu=st.integers(min_value=0, max_value=10**7),
           n_nu=st.integers(min_value=0, max_value=10**6))
    def test_ordering(self, n_mu, n_nu):
        c = ObservedCounts(sift=[[n_mu, n_nu], [0, 0]])
        n, _, _, _, d_n, _ = _rows(c, 0, EPS_PE)
        lower, upper = _estimates(n, d_n)
        for k in (0, 1):
            assert 0.0 <= lower[k] <= upper[k]


class TestVacuumBounds:
    def test_frozen_s0_up(self):
        _, _, n_total, m_total, d_n, _ = _rows(ORACLE_COUNTS, 0, EPS_PE)
        s0_up = vacuum_upper_bound(n_total, m_total, d_n)
        assert s0_up == pytest.approx(ORACLE["s0_up"], rel=1e-12)

    def test_lower_clamped_at_zero(self):
        n, _, _, _, d_n, _ = _rows(ORACLE_COUNTS, 0, EPS_PE)
        assert vacuum_lower_bound(F_REF, n, d_n) == 0.0

    def test_random_channel_upper_clamps_to_n(self):
        c = ObservedCounts(sift=[[10_000, 0], [0, 0]], err=[[5_000, 0], [0, 0]])
        _, _, n_total, m_total, d_n, _ = _rows(c, 0, EPS_PE)
        assert vacuum_upper_bound(n_total, m_total, d_n) == 10_000

    def test_degenerate_intensities_rejected(self):
        with pytest.raises(IntensityDegenerate):
            DecoyFactors(replace(P_REF, nu=P_REF.mu))


class TestSinglePhotonBound:
    def test_frozen_oracle_value(self):
        n, _, n_total, m_total, d_n, _ = _rows(ORACLE_COUNTS, 0, EPS_PE)
        s1 = single_photon_bound(F_REF, n, d_n, vacuum_upper_bound(n_total, m_total, d_n))
        assert s1 == pytest.approx(ORACLE["s_z1"], rel=1e-12)

    def test_all_zero_counts(self):
        n, _, _, _, d_n, _ = _rows(ObservedCounts(), 0, EPS_PE)
        assert single_photon_bound(F_REF, n, d_n, 0.0) == 0.0

    def test_single_photon_source_recovered(self):
        # Counts constructed as if every pulse carried exactly one photon
        # with yield y; in the no-fluctuation limit with s0_up = 0 the
        # bound recovers the full detection count tau1 * N * y.
        N, y = 10**9, 0.01
        row = [round(N * pk * k * math.exp(-k) * y)
               for k, pk in ((P_REF.mu, P_REF.p_mu), (P_REF.nu, P_REF.p_nu))]
        n, _, _, _, d_n, _ = _rows(ObservedCounts(sift=[row, [0, 0]]), 0, 1.0 - 1e-12)
        s1 = single_photon_bound(F_REF, n, d_n, 0.0)
        assert s1 == pytest.approx(rates.tau_n(1, P_REF) * N * y, rel=1e-4)

    def test_zero_decoy_rejected(self):
        with pytest.raises(IntensityDegenerate):
            DecoyFactors(replace(P_REF, nu=0.0))

    def test_never_negative(self):
        n, _, _, _, d_n, _ = _rows(ObservedCounts(sift=[[10**6, 1], [0, 0]]), 0, EPS_PE)
        assert single_photon_bound(F_REF, n, d_n, 10**5) >= 0.0


class TestPhaseErrorBound:
    def test_error_free_x_basis(self):
        c = ObservedCounts(sift=[[10**6, 10**5], [10**4, 10**3]])
        # zero X errors with a vanishing fluctuation share drives the
        # ratio to zero, where the correction term vanishes
        _, m_x, _, _, _, d_m = _rows(c, 1, 1.0 - 1e-12)
        pb = phase_error_bound(F_REF, m_x, d_m, 1e-9, 10**5, 10**4)
        assert pb.phi_z_up == pytest.approx(0.0, abs=1e-6)
        assert not pb.insufficient_test_statistics

    def test_no_test_statistics_flagged(self):
        _, m_x, _, _, _, d_m = _rows(ObservedCounts(), 1, EPS_PE)
        pb = phase_error_bound(F_REF, m_x, d_m, 1e-9, 1000.0, 0.0)
        assert pb.phi_z_up == 0.5
        assert pb.insufficient_test_statistics

    def test_75km_bound_above_asymptotic_error(self):
        stats = rates.expected_statistics(P_REF, LINK_75)
        report = key_length(stats.counts, P_REF)
        assert stats.pooled_qber(Basis.X) < report.phi_z_up < 0.5


class TestKeyLength:
    def test_frozen_75km_chain(self):
        stats = rates.expected_statistics(P_REF, LINK_75)
        report = key_length(stats.counts, P_REF)
        assert report.s_z1_low == pytest.approx(CHAIN_75["s_z1_low"], rel=1e-12)
        assert report.phi_z_up == pytest.approx(CHAIN_75["phi_z_up"], rel=1e-12)
        assert report.lambda_ec == pytest.approx(CHAIN_75["lambda_ec"], rel=1e-12)
        assert report.l_bits == pytest.approx(CHAIN_75["l_bits"], rel=1e-12)
        assert report.skr_bps == pytest.approx(CHAIN_75["skr_bps"], rel=1e-12)

    def test_skr_identity(self):
        stats = rates.expected_statistics(P_REF, LINK_75)
        report = key_length(stats.counts, P_REF)
        assert report.skr_bps == pytest.approx(
            report.l_bits * P_REF.f_rep / P_REF.n_pulses, rel=1e-12
        )

    def test_empty_key_basis_rejected(self):
        with pytest.raises(EmptyKeyBasis):
            key_length(ObservedCounts(), P_REF)

    def test_noise_dominated_sample_clamps_to_zero(self):
        c = ObservedCounts(sift=[[1000, 300], [100, 30]], err=[[450, 140], [45, 14]])
        report = key_length(c, P_REF)
        assert report.l_bits == 0.0

    def test_monotone_in_loss(self):
        prev = math.inf
        for loss in (4.8, 9.6, 14.6, 20.0):
            stats = rates.expected_statistics(P_REF, LinkModel(channel_loss_db=loss))
            l = key_length(stats.counts, P_REF).l_bits
            assert l <= prev
            prev = l

    def test_monotone_in_dark(self):
        prev = math.inf
        for dark in (1e-6, 8e-6, 5e-5):
            link = LinkModel(detector=DetectorModel(dark_prob_per_gate=dark))
            stats = rates.expected_statistics(P_REF, link)
            l = key_length(stats.counts, P_REF).l_bits
            assert l <= prev
            prev = l

    def test_monotone_in_misalignment(self):
        prev = math.inf
        for em in (0.002, 0.006, 0.02):
            link = LinkModel(e_mis_z=em, e_mis_x=em)
            stats = rates.expected_statistics(P_REF, link)
            l = key_length(stats.counts, P_REF).l_bits
            assert l <= prev
            prev = l

    def test_pure_and_deterministic(self):
        stats = rates.expected_statistics(P_REF, LINK_75)
        assert key_length(stats.counts, P_REF) == key_length(stats.counts, P_REF)

    def test_asymptotic_consistency(self):
        # As N grows with eps fixed the fluctuation terms vanish relative
        # to N; s_z1_low/N converges to the closed-form delta-free limit.
        p = replace(P_REF, n_pulses=10**12)
        stats = rates.expected_statistics(p, LINK_75)
        report = key_length(stats.counts, p)
        # delta-free limit computed in closed form
        tau0, tau1 = rates.tau_n(0, p), rates.tau_n(1, p)
        pb = p.p_z_alice * p.p_z_bob
        n_nu_hat = math.exp(p.nu) * rates.gain(LINK_75, p.nu) * pb
        n_mu_hat = math.exp(p.mu) * rates.gain(LINK_75, p.mu) * pb
        e_z = stats.pooled_qber(Basis.Z)
        q_pool = p.p_mu * rates.gain(LINK_75, p.mu) + p.p_nu * rates.gain(LINK_75, p.nu)
        s0_up_hat = 2.0 * e_z * q_pool * pb
        inner = (
            n_nu_hat
            - (p.nu**2 / p.mu**2) * n_mu_hat
            - ((p.mu**2 - p.nu**2) / p.mu**2) * s0_up_hat / tau0
        )
        limit = tau1 * p.mu / (p.nu * (p.mu - p.nu)) * inner
        assert report.s_z1_low / p.n_pulses == pytest.approx(limit, rel=0.01)


# A parameter point and a link anywhere in the space the optimizer and the
# configs use, and the expected tallies there.
_points = st.fixed_dictionaries({
    "mu": st.floats(0.05, 1.0),
    "nu_frac": st.floats(0.02, 0.95),
    "p_mu": st.floats(0.05, 0.95),
    "p_z": st.floats(0.5, 0.95),
    "n_pulses": st.integers(6, 12).map(lambda e: 10**e),
    "loss_db": st.floats(0.0, 45.0),
    "dark": st.floats(1e-9, 1e-4),
    "e_mis": st.floats(0.0, 0.05),
})


def _point(d):
    p = replace(P_REF, mu=d["mu"], nu=d["mu"] * d["nu_frac"], p_mu=d["p_mu"],
                p_z_alice=d["p_z"], p_z_bob=d["p_z"], n_pulses=d["n_pulses"])
    link = LinkModel(channel_loss_db=d["loss_db"], e_mis_z=d["e_mis"], e_mis_x=d["e_mis"],
                     detector=DetectorModel(dark_prob_per_gate=d["dark"]))
    return p, link


def _length(counts, p):
    try:
        return key_length(counts, p).l_bits
    except EmptyKeyBasis:
        return 0.0


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(point=_points, k=st.sampled_from([0, 1]), grow=st.floats(0.0, 1.0))
    def test_length_non_increasing_in_key_errors(self, point, k, grow):
        p, link = _point(point)
        counts = rates.expected_statistics(p, link).counts
        # more errors in one Z cell, the basis's QBER kept at most 1/2
        room = min(counts.sift[0, k] - counts.err[0, k],
                   counts.n_total(Basis.Z) / 2 - counts.m_total(Basis.Z))
        err = counts.err.copy()
        err[0, k] += math.floor(grow * max(room, 0.0))
        assert _length(ObservedCounts(counts.sift, err), p) <= _length(counts, p)

    @settings(max_examples=200, deadline=None)
    @given(point=_points, more_db=st.floats(0.01, 10.0))
    def test_length_non_increasing_in_loss(self, point, more_db):
        # Only beyond the rounding of the tallies: each rounds half-up to a
        # whole count, and one that rounds the other way moves l_bits by up
        # to tens of bits, so steps under about 1e-3 dB can raise it (+1.8
        # bits at mu 1, nu 0.5, p_mu 0.5, p_z 0.5, 1e9 pulses, dark 1e-9,
        # no misalignment, 0 -> 1.2e-7 dB).  Unrounded tallies showed no
        # rise in 20,000 random points and steps.
        p, link = _point(point)
        lossier = link.with_channel_loss(link.channel_loss_db + more_db)
        assert (_length(rates.expected_statistics(p, lossier).counts, p)
                <= _length(rates.expected_statistics(p, link).counts, p))

    @settings(max_examples=200, deadline=None)
    @given(point=_points)
    def test_bounds_in_range(self, point):
        p, link = _point(point)
        counts = rates.expected_statistics(p, link).counts
        assume(counts.n_total(Basis.Z) > 0)
        r = key_length(counts, p)
        assert 0.0 <= r.s_z0_low <= r.s_z0_up <= r.n_z
        assert 0.0 <= r.s_z1_low <= r.n_z
        assert r.v_x1_up >= 0.0
        assert 0.0 <= r.phi_z_up <= 0.5
