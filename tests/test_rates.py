import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import rates
from qkdlab.core import Basis, DetectorModel, Intensity, LinkModel, ProtocolParams
from qkdlab.rates import (
    EntropyDomainError,
    binary_entropy,
    dark_total,
    expected_sifted_cells,
    expected_statistics,
    gain,
    qber,
    tau_n,
)

# Frozen by independent evaluation of the closed forms before the modules
# were written.
TAU0_REF = 0.6725797821758118
TAU1_REF = 0.25250032200350514
Q_MU_75KM_REF = 0.0014376221594348815
H_011_REF = 0.499915958164528

LINK_75 = LinkModel(channel_loss_db=14.6)
LINK_B2B = LinkModel(channel_loss_db=0.0)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(H_011_REF, rel=1e-12)

    def test_domain_error(self):
        for x in (-0.01, 1.01):
            with pytest.raises(EntropyDomainError):
                binary_entropy(x)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_and_bounded(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestTauN:
    def test_vacuum_fraction(self):
        assert tau_n(0, ProtocolParams()) == pytest.approx(TAU0_REF, rel=1e-12)

    def test_single_photon_fraction(self):
        assert tau_n(1, ProtocolParams()) == pytest.approx(TAU1_REF, rel=1e-12)

    def test_vacuum_source_limit(self):
        p = ProtocolParams(mu=1e-15, nu=0.0)
        assert tau_n(0, p) == pytest.approx(1.0, abs=1e-12)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError):
            tau_n(-1, ProtocolParams())

    @settings(max_examples=30, deadline=None)
    @given(
        mu=st.floats(min_value=0.1, max_value=1.0),
        nu=st.floats(min_value=0.0, max_value=0.09),
        p_mu=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_distribution_sums_to_one(self, mu, nu, p_mu):
        p = ProtocolParams(mu=mu, nu=nu, p_mu=p_mu)
        assert sum(tau_n(n, p) for n in range(40)) == pytest.approx(1.0, abs=1e-9)


class TestGainAndQber:
    def test_q_mu_75km_frozen(self):
        assert gain(LINK_75, 0.56) == pytest.approx(Q_MU_75KM_REF, rel=1e-12)

    def test_back_to_back_gain_ratio(self):
        ratio = gain(LINK_B2B, 0.14) / gain(LINK_B2B, 0.56)
        assert ratio == pytest.approx(0.254, abs=0.003)

    def test_dark_only_limit(self):
        assert gain(LINK_75, 0.0) == pytest.approx(dark_total(LINK_75), rel=1e-12)
        assert qber(LINK_75, 0.0)[Basis.Z] == pytest.approx(0.5, rel=1e-12)

    def test_qber_never_exceeds_half(self):
        for k in (0.0, 1e-6, 0.14, 0.56, 2.0):
            for b in Basis:
                assert qber(LINK_75, k)[b] <= 0.5

    def test_qber_approaches_misalignment_without_dark(self):
        det = DetectorModel(dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=0.0, detector=det)
        assert qber(link, 0.56)[Basis.Z] == pytest.approx(link.e_mis_z, rel=1e-9)
        assert qber(link, 0.56)[Basis.X] == pytest.approx(link.e_mis_x, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        k1=st.floats(min_value=0.001, max_value=1.0),
        k2=st.floats(min_value=0.001, max_value=1.0),
    )
    def test_gain_increasing_in_intensity(self, k1, k2):
        lo, hi = sorted((k1, k2))
        assert gain(LINK_75, lo) <= gain(LINK_75, hi) + 1e-18

    @settings(max_examples=30, deadline=None)
    @given(
        mu=st.floats(min_value=0.2, max_value=1.0),
        nu=st.floats(min_value=0.01, max_value=0.19),
        loss=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_gain_ratio_bracketed(self, mu, nu, loss):
        link = LinkModel(channel_loss_db=loss)
        ratio = gain(link, nu) / gain(link, mu)
        assert nu / mu < ratio < 1.0


class TestExpectedStatistics:
    # Frozen cell tallies at the 75 km reference point, from the
    # independent closed-form evaluation.
    REF_CELLS_75 = {
        "n_z_mu": 7685528, "m_z_mu": 129179,
        "n_z_nu": 1056409, "m_z_nu": 49687,
        "n_x_mu": 94883, "m_x_mu": 1621,
        "n_x_nu": 13042, "m_x_nu": 617,
    }

    def test_frozen_75km_cells(self):
        stats = expected_statistics(ProtocolParams(), LINK_75)
        assert stats.counts.as_dict() == self.REF_CELLS_75

    def test_count_identity(self):
        p = ProtocolParams(n_pulses=10**9)
        stats = expected_statistics(p, LINK_B2B)
        for b in Basis:
            pb = p.basis_prob_alice(b) * (p.p_z_bob if b is Basis.Z else 1 - p.p_z_bob)
            for k, q in ((Intensity.SIGNAL, stats.q_mu), (Intensity.DECOY, stats.q_nu)):
                expect = p.n_pulses * p.intensity_prob(k) * pb * q
                assert stats.counts.n(b, k) == math.floor(expect + 0.5)

    def test_m_never_exceeds_n(self):
        stats = expected_statistics(ProtocolParams(n_pulses=1000), LINK_75)
        for b in Basis:
            for k in Intensity:
                assert stats.counts.m(b, k) <= stats.counts.n(b, k)

    def test_pooled_qber_back_to_back_matches_calibration(self):
        # calibration targets the exact pulse-level model; the closed-form
        # pooled QBERs sit close by but are not pinned to the targets (the
        # 90:10 splitter skews the dark-count share per basis)
        p = ProtocolParams()
        exact = expected_sifted_cells(p, LINK_B2B)
        for basis, target in ((Basis.Z, 0.0061), (Basis.X, 0.0087)):
            n = sum(v for (b, _), v in exact.sift.items() if b is basis)
            m = sum(v for (b, _), v in exact.err.items() if b is basis)
            assert m / n == pytest.approx(target, abs=5e-6)
        stats = expected_statistics(p, LINK_B2B)
        assert stats.pooled_qber(Basis.Z) == pytest.approx(0.0061, abs=5e-4)
        assert stats.pooled_qber(Basis.X) == pytest.approx(0.0087, abs=2.5e-3)


class TestExactCells:
    def test_close_to_textbook_formulas(self):
        p = ProtocolParams()
        stats = expected_statistics(p, LINK_75)
        exact = expected_sifted_cells(p, LINK_75)
        for b in Basis:
            for k in Intensity:
                simple = stats.counts.n(b, k) / p.n_pulses
                # dark-driven clicks route uniformly over detectors in the
                # exact model but with the splitter ratio in the textbook
                # formulas; the discrepancy grows with the dark share of
                # the cell (largest for the decoy X cell at high loss)
                rel = 0.12 if b is Basis.Z else 0.5
                assert exact.sift[(b, k)] == pytest.approx(simple, rel=rel)

    def test_matches_textbook_formulas_when_dark_negligible(self):
        p = ProtocolParams()
        stats = expected_statistics(p, LINK_B2B)
        exact = expected_sifted_cells(p, LINK_B2B)
        for b in Basis:
            for k in Intensity:
                simple = stats.counts.n(b, k) / p.n_pulses
                assert exact.sift[(b, k)] == pytest.approx(simple, rel=0.02)

    def test_probabilities_are_consistent(self):
        exact = expected_sifted_cells(ProtocolParams(), LINK_B2B)
        total_sift = sum(exact.sift.values())
        assert 0.0 <= exact.multi_click <= exact.any_click <= 1.0
        assert total_sift <= exact.any_click
        assert exact.single_x_err <= exact.single_x <= total_sift
        assert exact.vacuum_z + exact.single_z <= exact.any_click

    def test_no_dark_means_no_vacuum_detections(self):
        det = DetectorModel(dark_prob_per_gate=0.0)
        link = LinkModel(channel_loss_db=0.0, detector=det)
        exact = expected_sifted_cells(ProtocolParams(), link)
        assert exact.vacuum_z == 0.0

    def test_error_cells_below_detection_cells(self):
        exact = expected_sifted_cells(ProtocolParams(), LINK_75)
        for cell in exact.sift:
            assert 0.0 <= exact.err[cell] <= exact.sift[cell]
