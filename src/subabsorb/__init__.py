"""Transient light absorption in disordered cold-atom ensembles.

Two complementary solvers (a Maxwell-Bloch propagation model treating the
gas as non-interacting, and a collective coupled-dipole model with
density-dependent dephasing) plus the rise-time extraction and
uncertainty pipeline used to analyze both.
"""

from .core import (AtomicSpecies, ConfigError, DomainError, EnsembleConfig,
                   PulseShape, box_side_for_sigma_ss, gamma_dd_from_beta,
                   optical_depth_from_geometry)

__version__ = "0.1.0"

__all__ = [
    "AtomicSpecies", "ConfigError", "DomainError", "EnsembleConfig", "PulseShape",
    "box_side_for_sigma_ss", "gamma_dd_from_beta", "optical_depth_from_geometry",
    "__version__",
]
