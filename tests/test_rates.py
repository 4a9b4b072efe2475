import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qkdlab import optics, rates
from qkdlab.core import (
    Basis, DetectorModel, Intensity, LinkModel, ProtocolParams, load_config,
)
from qkdlab.rates import (
    EntropyDomainError,
    binary_entropy,
    click_patterns,
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
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# Every ExactCellProbabilities field at the three shipped configs, frozen
# from the loop-by-loop pattern enumeration before it was vectorized: sift
# then err over (Z signal, Z decoy, X signal, X decoy), then multi_click,
# any_click, vacuum_z, single_z, single_x and single_x_err.  A model change
# that moves any of them must say which.
EXACT_CELLS_REF = {
    "back_to_back.conf": (
        0.021262571979330014, 0.002783843693109603, 0.00026343522379708396, 3.484966648016376e-05,
        0.00012810700979869603, 1.857545460357825e-05, 2.115522279392428e-06, 4.795649366537467e-07,
        0.00012891336901267448, 0.02970124859374256, 9.685032642174862e-06,
        0.014819812565754525, 0.0001833067487957809, 1.3086663330692858e-06,
    ),
    "projection.conf": (
        0.021511047154062584, 0.002388691690943507, 0.0002656345138475738, 2.9504354998951148e-05,
        0.00021540586029589228, 2.395733995235426e-05, 2.687207371934112e-06, 3.028261905786779e-07,
        0.00011254163885072367, 0.02950676543765, 4.6492408795989735e-07,
        0.01519965578577944, 0.00018766916764564385, 1.8872184656743194e-06,
    ),
    "reference_75km.conf": (
        0.0007609550309612026, 0.00010172479738178551, 1.0332502784929705e-05, 1.7393264436193836e-06,
        9.112920426949656e-06, 3.009907901231281e-06, 5.841219521120773e-07, 2.792291971415316e-07,
        1.827319463255309e-07, 0.0010792514423863472, 9.685032642174862e-06,
        0.0005173674021729604, 6.745908123114508e-06, 2.403701086123035e-07,
    ),
}
_SCALAR_FIELDS = ("multi_click", "any_click", "vacuum_z", "single_z", "single_x", "single_x_err")


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


def _entropy_reference(x):
    """The out-of-place expression binary_entropy must equal bit for bit."""
    x = np.asarray(x)
    inner = np.minimum(np.maximum(x, 1e-300), 1.0 - 1e-16)
    outer = 1.0 - inner
    h = -inner * np.log2(inner) - outer * np.log2(outer)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)[()]


def _tallies_reference(p, link):
    """expected_statistics' [n or m, basis, intensity, *grid] tallies from
    out-of-place expressions, which its in-slot cells must equal bit for bit."""
    intensities = ((p.mu, p.p_mu), (p.nu, p.p_nu))
    p_b = (p.p_z_alice * p.p_z_bob, (1.0 - p.p_z_alice) * (1.0 - p.p_z_bob))
    q = [gain(link, mean) for mean, _ in intensities]
    shape = np.broadcast(p.mu, p.nu, p.p_mu, p.p_z_alice, p.p_z_bob).shape
    tally = np.empty((2, 2, 2) + shape)
    for k, (mean, p_k) in enumerate(intensities):
        for b, e in enumerate(qber(link, mean).values()):
            expected = p.n_pulses * p_k * p_b[b] * q[k]
            tally[0, b, k] = np.floor(expected + 0.5)
            tally[1, b, k] = np.floor(expected * e + 0.5)
    return tally


# exact 0 and 1, subnormals, the clip bounds and their neighbours
_EDGES = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
          1.0 - 1e-16, 1.0 - 2**-53, 0.5]


def _unit_floats():
    return st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0))


class TestInPlaceMatchesReference:
    """The in-place entropy and tallies equal the expressions they replaced
    bit for bit, leave their inputs alone and return scalars for 0-d
    inputs."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(
        _unit_floats(),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
                   elements=_unit_floats()),
    ))
    def test_binary_entropy(self, x):
        before = np.array(x, copy=True)
        h, ref = binary_entropy(x), _entropy_reference(x)
        assert type(h) is type(ref)
        assert np.asarray(h).tobytes() == np.asarray(ref).tobytes()
        assert np.asarray(x).tobytes() == before.tobytes()
        if np.ndim(x) == 0:
            assert isinstance(h, np.float64)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        shapes=hnp.mutually_broadcastable_shapes(num_shapes=5, max_dims=3, max_side=3),
        loss=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
        dark=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
        n_pulses=st.sampled_from([1, 1000, 10**10]),
    )
    def test_expected_tallies(self, data, shapes, loss, dark, n_pulses):
        intensity = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0]), st.floats(0.0, 2.0))
        probability = _unit_floats()
        fields = {
            name: data.draw(hnp.arrays(np.float64, shape, elements=elements), label=name)
            for name, shape, elements in zip(
                ("mu", "nu", "p_mu", "p_z_alice", "p_z_bob"), shapes.input_shapes,
                (intensity, intensity, probability, probability, probability))
        }
        before = {name: a.copy() for name, a in fields.items()}
        p = ProtocolParams(n_pulses=n_pulses, **fields)
        link = LinkModel(channel_loss_db=loss, detector=DetectorModel(dark_prob_per_gate=dark))
        counts = expected_statistics(p, link).counts
        tally = np.stack([counts.sift, counts.err])
        ref = _tallies_reference(p, link)
        assert tally.shape == ref.shape == (2, 2, 2) + shapes.result_shape
        assert tally.tobytes() == ref.tobytes()
        for name, a in fields.items():
            assert a.tobytes() == before[name].tobytes()

    def test_scalar_params_give_2x2_tallies(self):
        p = ProtocolParams()
        counts = expected_statistics(p, LINK_75).counts
        assert counts.sift.shape == counts.err.shape == (2, 2)
        assert np.stack([counts.sift, counts.err]).tobytes() == _tallies_reference(p, LINK_75).tobytes()


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

    def test_zero_gain_has_zero_qber(self):
        # no light and no dark counts: 0 clicks, 0 errors, and no 0/0
        # (a RuntimeWarning fails the suite)
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=0.0))
        assert gain(link, 0.0) == 0.0
        assert qber(link, 0.0) == {Basis.Z: 0.0, Basis.X: 0.0}
        grid = qber(link, np.array([0.0, 0.14]))
        for b in Basis:
            assert grid[b][0] == 0.0
            assert grid[b][1] == pytest.approx(qber(link, 0.14)[b], rel=1e-15)

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

    def test_dark_free_vacuum_decoy(self):
        link = LinkModel(detector=DetectorModel(dark_prob_per_gate=0.0))
        stats = expected_statistics(ProtocolParams(nu=0.0), link)
        assert stats.q_nu == 0.0
        for b in Basis:
            assert stats.counts.n(b, Intensity.DECOY) == stats.counts.m(b, Intensity.DECOY) == 0
            assert stats.counts.n(b, Intensity.SIGNAL) > 0

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


class TestClickPatterns:
    def test_independent_detectors(self):
        c = np.array([0.1, 0.2, 0.3, 0.4])
        probs = click_patterns(c)
        assert probs.shape == (16,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
        # pattern 0b0101: detectors 0 and 2 fire, 1 and 3 do not
        assert probs[0b0101] == pytest.approx(0.1 * 0.8 * 0.3 * 0.6, rel=1e-15)

    def test_broadcasts_over_leading_axes(self):
        c = np.random.default_rng(1).random((3, 2, 4))
        probs = click_patterns(c)
        assert probs.shape == (3, 2, 16)
        assert np.array_equal(probs[2, 1], click_patterns(c[2, 1]))


def _loop_chosen(c):
    """Chosen-detector distribution, P(>= 1 click) and P(>= 2 clicks) of
    independent detectors firing with probabilities ``c``, one pattern at a
    time: the loop the numpy pattern model replaced."""
    chosen = [0.0] * 4
    p_any = p_multi = 0.0
    for pattern in range(1, 16):
        members = [d for d in range(4) if pattern >> d & 1]
        prob = 1.0
        for d in range(4):
            prob *= c[d] if pattern >> d & 1 else 1.0 - c[d]
        p_any += prob
        p_multi += prob if len(members) > 1 else 0.0
        for d in members:
            chosen[d] += prob / len(members)
    return chosen, p_any, p_multi


def _loop_sifted_cells(p, link):
    """Reference for expected_sifted_cells: sift, err and a dict of the
    scalar fields, class by class, with the one-photon case enumerated as
    (route or loss) x dark pattern."""
    eta, dark = link.eta_sys, link.detector.dark_prob_per_gate
    sift = dict.fromkeys(itertools.product(Basis, Intensity), 0.0)
    err = dict(sift)
    out = dict.fromkeys(_SCALAR_FIELDS, 0.0)
    vacuum = _loop_chosen([dark] * 4)[0]
    for b, bit, k in itertools.product(Basis, (0, 1), Intensity):
        weight = p.intensity_prob(k) * p.basis_prob_alice(b) * 0.5
        state = optics.apply_channel(optics.prepare_state(b, bit), link.rotation_angle)
        rho = optics.detection_weights(state, p.p_z_bob, link.e_mis_z, link.e_mis_x)
        mean = p.mean_photons(k)
        c = [1.0 - math.exp(-(eta * mean) * w) * (1.0 - dark) for w in rho]
        chosen, p_any, p_multi = _loop_chosen(c)
        out["any_click"] += weight * p_any
        out["multi_click"] += weight * p_multi
        one = [0.0] * 4
        for route, p_route in enumerate([eta * w for w in rho] + [1.0 - eta]):
            for dpat in range(16):
                members = [d for d in range(4) if (dpat | 1 << route) >> d & 1]
                prob = p_route
                for d in range(4):
                    prob *= dark if dpat >> d & 1 else 1.0 - dark
                for d in members:
                    one[d] += prob / len(members)
        p0, p1 = math.exp(-mean), math.exp(-mean) * mean
        for d in range(4):
            if (Basis.Z if d < 2 else Basis.X) is not b:
                continue
            wrong = d & 1 != bit
            sift[b, k] += weight * chosen[d]
            err[b, k] += weight * chosen[d] if wrong else 0.0
            if b is Basis.Z:
                out["vacuum_z"] += weight * p0 * vacuum[d]
                out["single_z"] += weight * p1 * one[d]
            else:
                out["single_x"] += weight * p1 * one[d]
                out["single_x_err"] += weight * p1 * one[d] if wrong else 0.0
    return sift, err, out


class TestExactCells:
    def test_equals_loop_enumeration_over_random_links(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            mu = rng.uniform(0.05, 1.0)
            p = ProtocolParams(
                mu=mu, nu=rng.uniform(0.0, 0.99 * mu), p_mu=rng.uniform(0.01, 0.99),
                p_z_alice=rng.uniform(0.01, 0.99), p_z_bob=rng.uniform(0.01, 0.99),
            )
            det = DetectorModel(efficiency=rng.uniform(0.01, 1.0),
                                dark_prob_per_gate=10 ** rng.uniform(-9, -3))
            link = LinkModel(
                channel_loss_db=rng.uniform(0.0, 50.0), receiver_loss_db=rng.uniform(0.0, 3.0),
                e_mis_z=rng.uniform(0.0, 0.5), e_mis_x=rng.uniform(0.0, 0.5),
                rotation_angle=rng.uniform(-math.pi, math.pi), detector=det,
            )
            exact = expected_sifted_cells(p, link)
            sift, err, out = _loop_sifted_cells(p, link)
            # summation order differs, and exp near 0 cancels in 1 - e^-x (1 - d),
            # so the match is absolute: cells near 1e-9 agree to ~1e-8 relative
            for cell in sift:
                assert exact.sift[cell] == pytest.approx(sift[cell], rel=0, abs=1e-15)
                assert exact.err[cell] == pytest.approx(err[cell], rel=0, abs=1e-15)
            for f in _SCALAR_FIELDS:
                assert getattr(exact, f) == pytest.approx(out[f], rel=0, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(EXACT_CELLS_REF))
    def test_pinned_at_shipped_configs(self, name):
        p, link, _ = load_config(os.path.join(CONFIG_DIR, name))
        exact = expected_sifted_cells(p, link)
        cells = [(b, k) for b in Basis for k in Intensity]
        assert list(exact.sift) == list(exact.err) == cells
        got = [exact.sift[c] for c in cells] + [exact.err[c] for c in cells]
        got += [getattr(exact, f) for f in _SCALAR_FIELDS]
        assert got == pytest.approx(EXACT_CELLS_REF[name], rel=0, abs=1e-15)

    # exact / textbook per-pulse probability of each cell, (n, m) per cell
    # in (Z signal, Z decoy, X signal, X decoy) order, at the default
    # parameters.  Dark-driven clicks route uniformly over the detectors in
    # the exact model but with the splitter ratio in the textbook formulas,
    # so the gap grows with a cell's dark share: small back-to-back, large
    # at 14.6 dB and largest in the X error cells, which the 90:10 splitter
    # starves of light.
    RATIOS_B2B = [(0.9996, 0.9706), (0.9986, 0.9041), (1.0032, 1.2418), (1.0126, 1.8214)]
    RATIOS_75 = [(0.9901, 0.7054), (0.9629, 0.6058), (1.0890, 3.6035), (1.3336, 4.5256)]

    @staticmethod
    def _assert_textbook_ratios(link, ratios):
        p = ProtocolParams()
        counts = expected_statistics(p, link).counts
        exact = expected_sifted_cells(p, link)
        for (b, k), (n, m) in zip(itertools.product(Basis, Intensity), ratios):
            cell = f"{b.value} {k.value}"
            assert exact.sift[b, k] * p.n_pulses / counts.n(b, k) == pytest.approx(n, rel=1e-3), cell
            assert exact.err[b, k] * p.n_pulses / counts.m(b, k) == pytest.approx(m, rel=1e-3), cell

    def test_close_to_textbook_formulas(self):
        self._assert_textbook_ratios(LINK_75, self.RATIOS_75)

    def test_matches_textbook_formulas_when_dark_negligible(self):
        self._assert_textbook_ratios(LINK_B2B, self.RATIOS_B2B)

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
