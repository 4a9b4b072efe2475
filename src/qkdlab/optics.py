"""Jones-calculus transmitter/channel/receiver models.

The transmitter's loop-interferometer polarization modulator prepares
the BB84 states; its intensity modulator is not modelled, and the signal
and decoy intensities mu and nu are free parameters of the protocol.  The
receiver is a passive analysis module: a 90:10 splitter into two
polarization analyzers.  States are 2-component complex Jones vectors
over the H/V amplitudes; global phase is ignored throughout, states
compare via |<a|b>|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Basis

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PolarizationState:
    """Normalized Jones vector (a_h |H> + a_v |V>)."""

    a_h: complex
    a_v: complex

    def __post_init__(self) -> None:
        if abs(self.norm_sq() - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |a|^2 = {self.norm_sq()}")

    def norm_sq(self) -> float:
        return abs(self.a_h) ** 2 + abs(self.a_v) ** 2

    def inner(self, other: "PolarizationState") -> complex:
        return self.a_h.conjugate() * other.a_h + self.a_v.conjugate() * other.a_v

    def overlap(self, other: "PolarizationState") -> float:
        """Born-rule projection probability |<self|other>|^2."""
        return abs(self.inner(other)) ** 2


_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Modulator phase for each (basis, bit); the state is
# (|H> + e^{i(phase - pi)} |V>) / sqrt(2).
_PHASE = {
    (Basis.Z, 0): math.pi,
    (Basis.Z, 1): 0.0,
    (Basis.X, 0): 1.5 * math.pi,
    (Basis.X, 1): 0.5 * math.pi,
}


def prepare_state(basis: Basis, bit: int) -> PolarizationState:
    """BB84 state leaving the transmitter for the given basis and bit.

    Z encodes the key in the diagonal pair, X tests in the circular pair:
    (Z,0) -> (H+V)/sqrt2, (Z,1) -> (H-V)/sqrt2,
    (X,0) -> (H+iV)/sqrt2, (X,1) -> (H-iV)/sqrt2.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    phase = _PHASE[(basis, bit)]
    return PolarizationState(_SQRT_HALF, _SQRT_HALF * cmath.exp(1j * (phase - math.pi)))


def apply_channel(state: PolarizationState, rotation_angle: float) -> PolarizationState:
    """Rotate the Jones vector by the channel's polarization drift angle.

    Loss is not applied here; it enters probabilistically at detection.
    """
    c, s = math.cos(rotation_angle), math.sin(rotation_angle)
    return PolarizationState(c * state.a_h - s * state.a_v,
                             s * state.a_h + c * state.a_v)


# Analyzer states in fixed detector order (Z0, Z1, X+, X-), matching
# detector ids 0..3; bit = id & 1, Z arm = id < 2.
ANALYZERS = (
    prepare_state(Basis.Z, 0),
    prepare_state(Basis.Z, 1),
    prepare_state(Basis.X, 0),
    prepare_state(Basis.X, 1),
)


def detection_weights(
    state: PolarizationState,
    p_z_bob: float,
    e_mis_z: float,
    e_mis_x: float,
) -> tuple[float, float, float, float]:
    """Probability that a detected photon lands on each of the 4 detectors.

    Splitter arm choice times the Born projection within the arm, with
    misalignment applied as an intra-basis flip.  Sums to 1.
    """
    qz0 = ANALYZERS[0].overlap(state)
    qz1 = ANALYZERS[1].overlap(state)
    qx0 = ANALYZERS[2].overlap(state)
    qx1 = ANALYZERS[3].overlap(state)
    # renormalize each arm pair against rounding drift
    sz, sx = qz0 + qz1, qx0 + qx1
    qz0, qz1 = qz0 / sz, qz1 / sz
    qx0, qx1 = qx0 / sx, qx1 / sx
    pz, px = p_z_bob, 1.0 - p_z_bob
    return (
        pz * ((1.0 - e_mis_z) * qz0 + e_mis_z * qz1),
        pz * ((1.0 - e_mis_z) * qz1 + e_mis_z * qz0),
        px * ((1.0 - e_mis_x) * qx0 + e_mis_x * qx1),
        px * ((1.0 - e_mis_x) * qx1 + e_mis_x * qx0),
    )


def routing_weights(
    rotation_angle: float,
    p_z_bob: float,
    e_mis_z: float,
    e_mis_x: float,
) -> np.ndarray:
    """``detection_weights`` of each (basis, bit) class after the channel:
    row c = (basis << 1) | bit, in ``Basis`` order, is where a detected
    photon of class c lands.  The state of class c is ``ANALYZERS[c]``."""
    return np.array([
        detection_weights(apply_channel(state, rotation_angle), p_z_bob, e_mis_z, e_mis_x)
        for state in ANALYZERS
    ])
