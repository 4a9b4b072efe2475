"""Desk-scale laboratory for a one-decoy BB84 QKD link.

Modules: core (types, validation, config), optics (Jones-calculus models),
rates (closed-form expected statistics), finitekey (secure length),
mcsim (pulse-level Monte Carlo), optimizer (parameter search and loss
scans), cli (command-line front end).
"""

from .core import (
    Basis,
    DetectorModel,
    Intensity,
    KeyRateReport,
    LinkModel,
    ObservedCounts,
    ProtocolParams,
    SimulationSettings,
    load_config,
    save_config,
    validate_params,
)
from .finitekey import key_length
from .rates import expected_statistics

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "DetectorModel",
    "Intensity",
    "KeyRateReport",
    "LinkModel",
    "ObservedCounts",
    "ProtocolParams",
    "SimulationSettings",
    "load_config",
    "save_config",
    "validate_params",
    "key_length",
    "expected_statistics",
    "__version__",
]
