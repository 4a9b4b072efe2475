import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import optics
from qkdlab.core import Basis
from qkdlab.optics import (
    PolarizationState,
    apply_channel,
    detection_weights,
    prepare_state,
)

S = 1.0 / math.sqrt(2.0)
TOL = 1e-12


def _same_ray(a: PolarizationState, b: PolarizationState) -> bool:
    """Equal up to global phase."""
    return abs(a.overlap(b) - 1.0) < TOL


def _random_state(theta: float, phi: float) -> PolarizationState:
    return PolarizationState(math.cos(theta), math.sin(theta) * cmath.exp(1j * phi))


class TestPrepareState:
    def test_z0_is_diagonal_plus(self):
        assert _same_ray(prepare_state(Basis.Z, 0), PolarizationState(S, S))

    def test_z1_is_diagonal_minus(self):
        assert _same_ray(prepare_state(Basis.Z, 1), PolarizationState(S, -S))

    def test_x0_is_circular_plus(self):
        assert _same_ray(prepare_state(Basis.X, 0), PolarizationState(S, 1j * S))

    def test_x1_is_circular_minus(self):
        assert _same_ray(prepare_state(Basis.X, 1), PolarizationState(S, -1j * S))

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            prepare_state(Basis.Z, 2)

    def test_intra_basis_orthogonality(self):
        for b in Basis:
            assert prepare_state(b, 0).overlap(prepare_state(b, 1)) < TOL

    def test_mutual_unbiasedness(self):
        for i in (0, 1):
            for j in (0, 1):
                ov = prepare_state(Basis.Z, i).overlap(prepare_state(Basis.X, j))
                assert abs(ov - 0.5) < TOL

    def test_states_normalized(self):
        for b in Basis:
            for bit in (0, 1):
                assert abs(prepare_state(b, bit).norm_sq() - 1.0) < TOL


class TestPolarizationState:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PolarizationState(1.0, 1.0)


class TestApplyChannel:
    def test_identity_rotation(self):
        h = PolarizationState(1.0, 0.0)
        assert _same_ray(apply_channel(h, 0.0), h)

    def test_quarter_turn_maps_h_to_v(self):
        out = apply_channel(PolarizationState(1.0, 0.0), math.pi / 2)
        assert _same_ray(out, PolarizationState(0.0, 1.0))

    def test_eighth_turn_maps_diagonal_to_v(self):
        out = apply_channel(PolarizationState(S, S), math.pi / 4)
        assert _same_ray(out, PolarizationState(0.0, 1.0))

    def test_circular_states_are_rotation_eigenstates(self):
        for bit in (0, 1):
            state = prepare_state(Basis.X, bit)
            assert _same_ray(apply_channel(state, 0.3), state)

    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(min_value=0.0, max_value=math.pi),
        p1=st.floats(min_value=0.0, max_value=2 * math.pi),
        t2=st.floats(min_value=0.0, max_value=math.pi),
        p2=st.floats(min_value=0.0, max_value=2 * math.pi),
        angle=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_unitarity(self, t1, p1, t2, p2, angle):
        a, b = _random_state(t1, p1), _random_state(t2, p2)
        ra, rb = apply_channel(a, angle), apply_channel(b, angle)
        assert abs(ra.norm_sq() - 1.0) < 1e-9
        assert abs(abs(ra.inner(rb)) - abs(a.inner(b))) < 1e-9


class TestDetectionWeights:
    def test_ideal_split_for_z0(self):
        w = detection_weights(prepare_state(Basis.Z, 0), 0.9, 0.0, 0.0)
        assert w == pytest.approx((0.9, 0.0, 0.05, 0.05), abs=TOL)

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=math.pi),
        p=st.floats(min_value=0.0, max_value=2 * math.pi),
        pz=st.floats(min_value=0.05, max_value=0.95),
        ez=st.floats(min_value=0.0, max_value=0.5),
        ex=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_weights_form_a_distribution(self, t, p, pz, ez, ex):
        w = detection_weights(_random_state(t, p), pz, ez, ex)
        assert all(x >= -TOL for x in w)
        assert sum(w) == pytest.approx(1.0, abs=1e-9)

    def test_misalignment_flips_within_arm(self):
        w = detection_weights(prepare_state(Basis.Z, 0), 0.9, 0.01, 0.0)
        assert w[0] == pytest.approx(0.9 * 0.99, abs=TOL)
        assert w[1] == pytest.approx(0.9 * 0.01, abs=TOL)


class TestAnalyzerOrder:
    def test_detector_ids_match_states(self):
        assert _same_ray(optics.ANALYZERS[0], prepare_state(Basis.Z, 0))
        assert _same_ray(optics.ANALYZERS[1], prepare_state(Basis.Z, 1))
        assert _same_ray(optics.ANALYZERS[2], prepare_state(Basis.X, 0))
        assert _same_ray(optics.ANALYZERS[3], prepare_state(Basis.X, 1))
