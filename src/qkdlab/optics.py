"""Jones-calculus transmitter/channel/receiver models.

The transmitter is a loop-interferometer intensity modulator feeding a
loop-interferometer polarization modulator; the receiver is a passive
analysis module: a 90:10 splitter into two polarization analyzers.  States
are 2-component complex Jones vectors over the H/V amplitudes; global phase
is ignored throughout, states compare via |<a|b>|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import Basis

_NORM_TOL = 1e-12


class DegenerateCoupling(ValueError):
    """Raised for a 0:100 or 100:0 splitter, which cannot interfere."""


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


@dataclass(frozen=True)
class SagnacImLevels:
    """Transmittances of the two interferometer arms (signal at phase pi)."""

    t_signal: float
    t_decoy: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_decoy <= self.t_signal <= 1.0 + _NORM_TOL:
            raise ValueError(f"need 0 <= t_decoy <= t_signal <= 1, got {self}")

    @property
    def ratio(self) -> float:
        return self.t_decoy / self.t_signal


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


def sagnac_im_levels(coupling_t: float) -> SagnacImLevels:
    """Intensity levels produced by a loop interferometer with splitter
    fraction ``coupling_t``.

    The loop transmits T(phase) = t^2 + r^2 - 2 t r cos(phase) with
    r = 1 - t; the signal arm sits at phase pi (T = 1) and the decoy arm at
    phase 0 (T = (t - r)^2), so the splitter ratio sets decoy/signal.
    """
    if not 0.0 < coupling_t < 1.0:
        raise DegenerateCoupling(f"coupling_t={coupling_t} must lie in (0, 1)")
    t, r = coupling_t, 1.0 - coupling_t
    return SagnacImLevels(t_signal=(t + r) ** 2, t_decoy=(t - r) ** 2)


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

