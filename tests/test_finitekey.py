import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
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
    phase_error_bound,
    scaled_count_bounds,
    single_photon_bound,
    vacuum_lower_bound,
    vacuum_upper_bound,
)

P_REF = ProtocolParams()
LINK_75 = LinkModel(channel_loss_db=14.6)
EPS_PE = 1e-9 / 19.0
F_REF = DecoyFactors(P_REF)

# Frozen by an independent script evaluating the closed forms directly,
# before the module was written.  Inputs: n_z_mu=7.0e6, n_z_nu=1.1e6,
# m_z_mu=4.0e4, m_z_nu=9.0e3, (mu, nu, p_mu) = (0.56, 0.14, 0.66),
# eps = 1e-9/19.
ORACLE_COUNTS = ObservedCounts(n_z_mu=7_000_000, n_z_nu=1_100_000,
                               m_z_mu=40_000, m_z_nu=9_000)
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


class TestScaledCountBounds:
    def test_frozen_oracle_values(self):
        sb = scaled_count_bounds(ORACLE_COUNTS, Basis.Z, F_REF, EPS_PE)
        assert sb.n_plus_mu == pytest.approx(ORACLE["n_plus_mu"], rel=1e-12)
        assert sb.n_minus_mu == pytest.approx(ORACLE["n_minus_mu"], rel=1e-12)
        assert sb.n_plus_nu == pytest.approx(ORACLE["n_plus_nu"], rel=1e-12)
        assert sb.n_minus_nu == pytest.approx(ORACLE["n_minus_nu"], rel=1e-12)
        assert sb.m_plus_mu == pytest.approx(ORACLE["m_plus_mu"], rel=1e-12)
        assert sb.m_minus_nu == pytest.approx(ORACLE["m_minus_nu"], rel=1e-12)

    def test_vanishing_fluctuation_limit(self):
        sb = scaled_count_bounds(ORACLE_COUNTS, Basis.Z, F_REF, 1.0 - 1e-12)
        for k, n in ((Intensity.SIGNAL, 7_000_000), (Intensity.DECOY, 1_100_000)):
            scale = math.exp(P_REF.mean_photons(k)) / P_REF.intensity_prob(k)
            assert sb.n_plus(k) == pytest.approx(scale * n, rel=1e-6)
            assert sb.n_minus(k) == pytest.approx(scale * n, rel=1e-6)

    def test_all_zero_counts(self):
        sb = scaled_count_bounds(ObservedCounts(), Basis.Z, F_REF, EPS_PE)
        for k in Intensity:
            assert sb.n_plus(k) == 0.0
            assert sb.n_minus(k) == 0.0
            assert sb.m_plus(k) == 0.0
            assert sb.m_minus(k) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(n_mu=st.integers(min_value=0, max_value=10**7),
           n_nu=st.integers(min_value=0, max_value=10**6))
    def test_ordering(self, n_mu, n_nu):
        c = ObservedCounts(n_z_mu=n_mu, n_z_nu=n_nu)
        sb = scaled_count_bounds(c, Basis.Z, F_REF, EPS_PE)
        for k in Intensity:
            assert 0.0 <= sb.n_minus(k) <= sb.n_plus(k)


class TestVacuumBounds:
    def test_frozen_s0_up(self):
        sb = scaled_count_bounds(ORACLE_COUNTS, Basis.Z, F_REF, EPS_PE)
        assert vacuum_upper_bound(sb) == pytest.approx(ORACLE["s0_up"], rel=1e-12)

    def test_lower_clamped_at_zero(self):
        sb = scaled_count_bounds(ORACLE_COUNTS, Basis.Z, F_REF, EPS_PE)
        assert vacuum_lower_bound(sb) == 0.0

    def test_random_channel_upper_clamps_to_n(self):
        c = ObservedCounts(n_z_mu=10_000, m_z_mu=5_000)
        assert vacuum_upper_bound(scaled_count_bounds(c, Basis.Z, F_REF, EPS_PE)) == 10_000

    def test_degenerate_intensities_rejected(self):
        with pytest.raises(IntensityDegenerate):
            DecoyFactors(replace(P_REF, nu=P_REF.mu))


class TestSinglePhotonBound:
    def test_frozen_oracle_value(self):
        sb = scaled_count_bounds(ORACLE_COUNTS, Basis.Z, F_REF, EPS_PE)
        s1 = single_photon_bound(sb, vacuum_upper_bound(sb))
        assert s1 == pytest.approx(ORACLE["s_z1"], rel=1e-12)

    def test_all_zero_counts(self):
        sb = scaled_count_bounds(ObservedCounts(), Basis.Z, F_REF, EPS_PE)
        assert single_photon_bound(sb, 0.0) == 0.0

    def test_single_photon_source_recovered(self):
        # Counts constructed as if every pulse carried exactly one photon
        # with yield y; in the no-fluctuation limit with s0_up = 0 the
        # bound recovers the full detection count tau1 * N * y.
        N, y = 10**9, 0.01
        cells = {}
        for tag, k, pk in (("mu", P_REF.mu, P_REF.p_mu), ("nu", P_REF.nu, P_REF.p_nu)):
            cells[f"n_z_{tag}"] = round(N * pk * k * math.exp(-k) * y)
        c = ObservedCounts(**cells)
        sb = scaled_count_bounds(c, Basis.Z, F_REF, 1.0 - 1e-12)
        s1 = single_photon_bound(sb, 0.0)
        assert s1 == pytest.approx(rates.tau_n(1, P_REF) * N * y, rel=1e-4)

    def test_zero_decoy_rejected(self):
        with pytest.raises(IntensityDegenerate):
            DecoyFactors(replace(P_REF, nu=0.0))

    def test_never_negative(self):
        c = ObservedCounts(n_z_mu=10**6, n_z_nu=1)
        sb = scaled_count_bounds(c, Basis.Z, F_REF, EPS_PE)
        assert single_photon_bound(sb, 10**5) >= 0.0


class TestPhaseErrorBound:
    def test_error_free_x_basis(self):
        c = ObservedCounts(n_z_mu=10**6, n_z_nu=10**5,
                           n_x_mu=10**4, n_x_nu=10**3)
        # zero X errors with a vanishing fluctuation share drives the
        # ratio to zero, where the correction term vanishes
        sb = scaled_count_bounds(c, Basis.X, F_REF, 1.0 - 1e-12)
        pb = phase_error_bound(sb, 1e-9, 10**5, 10**4)
        assert pb.phi_z_up == pytest.approx(0.0, abs=1e-6)
        assert not pb.insufficient_test_statistics

    def test_no_test_statistics_flagged(self):
        sb = scaled_count_bounds(ObservedCounts(), Basis.X, F_REF, EPS_PE)
        pb = phase_error_bound(sb, 1e-9, 1000.0, 0.0)
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
        c = ObservedCounts(n_z_mu=1000, n_z_nu=300, m_z_mu=450, m_z_nu=140,
                           n_x_mu=100, n_x_nu=30, m_x_mu=45, m_x_nu=14)
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
