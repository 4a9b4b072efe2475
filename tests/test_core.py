import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.core import (
    Basis,
    ConfigError,
    DetectorModel,
    E_MIS_X_DEFAULT,
    E_MIS_Z_DEFAULT,
    Intensity,
    InvalidIntensityOrder,
    LinkModel,
    NonPositivePulseCount,
    ObservedCounts,
    ParamError,
    ProbabilityOutOfRange,
    ProtocolParams,
    SimulationSettings,
    load_config,
    resolved_config_dict,
    save_config,
    validate_params,
)
from qkdlab.rates import calibrate_misalignment


class TestEnums:
    def test_basis_has_exactly_two_variants(self):
        assert {b.name for b in Basis} == {"Z", "X"}

    def test_intensity_has_exactly_two_variants(self):
        assert {k.name for k in Intensity} == {"SIGNAL", "DECOY"}


class TestValidateParams:
    def test_reference_parameters_valid(self):
        p = ProtocolParams(mu=0.56, nu=0.14, p_mu=0.66, p_z_alice=0.9,
                           p_z_bob=0.9, n_pulses=10**10)
        assert validate_params(p) is p

    def test_equal_intensities_rejected(self):
        with pytest.raises(InvalidIntensityOrder):
            validate_params(ProtocolParams(mu=0.5, nu=0.5))

    def test_probability_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            validate_params(ProtocolParams(p_mu=1.2))

    def test_nonpositive_pulse_count(self):
        with pytest.raises(NonPositivePulseCount):
            validate_params(ProtocolParams(n_pulses=0))

    def test_f_ec_below_one_rejected(self):
        with pytest.raises(ParamError):
            validate_params(ProtocolParams(f_ec=0.9))

    def test_mu_above_one_warns_but_passes(self):
        with pytest.warns(UserWarning):
            validate_params(ProtocolParams(mu=1.2, nu=0.14))

    def test_validation_idempotent(self):
        p = ProtocolParams()
        assert validate_params(validate_params(p)) == p


class TestDetectorAndLink:
    def test_negative_loss_rejected(self):
        with pytest.raises(ParamError):
            LinkModel(channel_loss_db=-1.0)

    def test_misalignment_above_half_rejected(self):
        with pytest.raises(ParamError):
            LinkModel(e_mis_z=0.6)

    def test_eta_sys_75km(self):
        link = LinkModel(channel_loss_db=14.6, receiver_loss_db=1.4)
        assert link.eta_sys == pytest.approx(10 ** (-1.6) * 0.1, rel=1e-12)

    def test_with_channel_loss_preserves_rest(self):
        link = LinkModel()
        other = link.with_channel_loss(4.8)
        assert other.channel_loss_db == 4.8
        assert other.receiver_loss_db == link.receiver_loss_db
        assert other.detector == link.detector


class TestObservedCounts:
    def test_errors_cannot_exceed_detections(self):
        with pytest.raises(ParamError, match="invalid cell z_mu: n=5, m=6"):
            ObservedCounts(sift=[[5, 0], [0, 0]], err=[[6, 0], [0, 0]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ParamError, match="invalid cell z_mu"):
            ObservedCounts(sift=[[-1, 0], [0, 0]])

    def test_accessors_and_totals(self):
        c = ObservedCounts(sift=[[10, 4], [2, 1]], err=[[3, 1], [1, 0]])
        assert c.n(Basis.Z, Intensity.SIGNAL) == 10
        assert c.m(Basis.Z, Intensity.DECOY) == 1
        assert c.n_total(Basis.Z) == 14
        assert c.m_total(Basis.X) == 1
        assert c.n_total(Basis.X) == 3

    def test_cell_index_is_basis_then_intensity(self):
        c = ObservedCounts(sift=np.arange(4).reshape(2, 2))
        for b in Basis:
            for k in Intensity:
                flat = (list(Basis).index(b) << 1) | list(Intensity).index(k)
                assert c.n(b, k) == flat

    def test_as_dict_names_and_ints(self):
        c = ObservedCounts(sift=np.array([[10.0, 4.0], [2.0, 1.0]]), err=[[3, 1], [1, 0]])
        d = c.as_dict()
        assert list(d) == ["n_z_mu", "n_z_nu", "n_x_mu", "n_x_nu",
                           "m_z_mu", "m_z_nu", "m_x_mu", "m_x_nu"]
        assert list(d.values()) == [10, 4, 2, 1, 3, 1, 1, 0]
        assert all(type(v) is int for v in d.values())

    def test_equality_is_a_bool(self):
        a = ObservedCounts(sift=[[10, 4], [2, 1]])
        assert (a == ObservedCounts(sift=np.array([[10.0, 4.0], [2.0, 1.0]]))) is True
        assert (a == ObservedCounts()) is False
        assert (a != ObservedCounts()) is True

    def test_grid_cells_broadcast(self):
        c = ObservedCounts(sift=np.full((2, 2, 3), 5), err=np.zeros((2, 2, 1)))
        assert c.n_total(Basis.Z).tolist() == [10, 10, 10]
        err = np.zeros((2, 2, 3))
        err[1, 1, 2] = 6  # one point's x_nu errors outnumber its detections
        with pytest.raises(ParamError, match="invalid cell x_nu"):
            ObservedCounts(sift=np.full((2, 2, 3), 5), err=err)

    def test_immutable(self):
        c = ObservedCounts()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.sift = np.ones((2, 2))
        with pytest.raises(ValueError):
            c.sift[0, 0] = 1


class TestCalibration:
    def test_defaults_reproduce_back_to_back_qbers(self):
        link = LinkModel(channel_loss_db=0.0)
        p = ProtocolParams()
        ez = calibrate_misalignment(0.0061, Basis.Z, link, p)
        ex = calibrate_misalignment(0.0087, Basis.X, link, p)
        assert ez == pytest.approx(E_MIS_Z_DEFAULT, abs=5e-7)
        assert ex == pytest.approx(E_MIS_X_DEFAULT, abs=5e-7)


_prob = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


class TestConfigRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        mu=st.floats(min_value=0.2, max_value=1.0),
        nu=st.floats(min_value=0.001, max_value=0.19),
        p_mu=_prob,
        loss=st.floats(min_value=0.0, max_value=60.0),
        eff=_prob,
    )
    def test_every_field_round_trips_bit_exactly(self, tmp_path_factory, mu, nu, p_mu, loss, eff):
        path = str(tmp_path_factory.mktemp("cfg") / "qkd.conf")
        p = ProtocolParams(mu=mu, nu=nu, p_mu=p_mu)
        link = LinkModel(channel_loss_db=loss, detector=DetectorModel(efficiency=eff))
        sim = SimulationSettings(seed=3, sigma=0.25)
        save_config(path, p, link, sim)
        p2, link2, sim2 = load_config(path)
        assert p2 == p
        assert link2 == link
        assert sim2 == sim

    def test_missing_file_raises_with_path(self, tmp_path):
        path = str(tmp_path / "nope.conf")
        with pytest.raises(ConfigError, match="nope.conf"):
            load_config(path)

    def test_bad_value_names_field(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[protocol]\nmu = banana\n")
        with pytest.raises(ConfigError, match="mu"):
            load_config(str(path))

    def test_defaults_fill_missing_sections(self, tmp_path):
        path = tmp_path / "partial.conf"
        path.write_text("[link]\nchannel_loss_db = 4.8\n")
        p, link, sim = load_config(str(path))
        assert p == ProtocolParams()
        assert link.channel_loss_db == 4.8

    @pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
    def test_large_seed_reads_exactly(self, tmp_path, seed):
        # through a float these would read as 2^53 and 2^64
        path = tmp_path / "seed.conf"
        path.write_text(f"[simulation]\nseed = {seed}\n")
        assert load_config(str(path))[2].seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_out_of_range_seed_refused(self, seed):
        with pytest.raises(ParamError, match="not in 0 .. 2"):
            SimulationSettings(seed=seed)

    def test_scientific_notation_counts(self, tmp_path):
        path = tmp_path / "sci.conf"
        path.write_text("[protocol]\nn_pulses = 1e7\n")
        p, _, _ = load_config(str(path))
        assert p.n_pulses == 10**7

    @pytest.mark.parametrize("text, named", [
        ("[detector]\ndark_prob_per_gat = 0.5\n", "[detector] dark_prob_per_gat"),
        ("[lnk]\nchannel_loss_db = 4.8\n", "[lnk]"),
        ("[detector]\nefficiency = 0.1\nn_detectors = 4\n", "[detector] n_detectors"),
        ("[link]\nmu = 0.5\n", "[link] mu"),
        ("[DEFAULT]\nseed = 2\n[simulation]\nsigma = 0\n", "[DEFAULT] seed"),
    ])
    def test_unknown_section_or_key_refused(self, tmp_path, text, named):
        path = tmp_path / "typo.conf"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert named in str(info.value)

    def test_empty_default_section_accepted(self, tmp_path):
        path = tmp_path / "default.conf"
        path.write_text("[DEFAULT]\n[link]\nchannel_loss_db = 4.8\n")
        assert load_config(str(path))[1].channel_loss_db == 4.8

    @pytest.mark.parametrize("text", [
        "mu = 0.5\n",
        "[protocol]\nmu = 0.5\nmu = 0.6\n",
        "[link]\n[link]\n",
    ])
    def test_malformed_file_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "malformed.conf"
        path.write_text(text)
        with pytest.raises(ConfigError, match="malformed.conf"):
            load_config(str(path))

    @pytest.mark.parametrize("section, key, owner", [
        ("protocol", "n_pulses", 0), ("simulation", "seed", 2), ("simulation", "record_cap", 2),
    ])
    def test_counts_read_as_int(self, tmp_path, section, key, owner):
        path = tmp_path / "count.conf"
        path.write_text(f"[{section}]\n{key} = 1e3\n")
        value = getattr(load_config(str(path))[owner], key)
        assert value == 1000 and type(value) is int
        path.write_text(f"[{section}]\n{key} = 1.5\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    def test_resolved_config_dict_covers_all_sections(self):
        d = resolved_config_dict(ProtocolParams(), LinkModel(), SimulationSettings())
        assert set(d) == {"protocol", "link", "detector", "simulation"}
        assert d["protocol"]["mu"] == 0.56
        assert set(d["detector"]) == {"efficiency", "dark_prob_per_gate"}
