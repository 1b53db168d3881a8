"""Free-particle wavepackets with Hermite envelopes.

Closed-form spreading solutions, their density ridges and classical caustic
companions, an independent spectral propagator used as a cross-check, and
moment tables with uncertainty products. See the command-line tool
``hermitewave`` for the artifact-producing front end.
"""

from .core_math import (HermitePair, QuadratureResult, find_root,
                        hermite_pair, integrate)
from .errors import (BracketingError, ConvergenceError, DomainError,
                     GridMismatchError, GridTooSmallError)
from .observables import (AiryParams, MomentRow, airy_closed_forms,
                          closed_form_moments, numeric_moments,
                          spreading_check, table_report)
from .propagator_oracle import (FieldComparison, SpectralField, SpectralGrid,
                                analytic_field, compare_fields,
                                spectral_propagate)
from .semiclassics import (CausticPair, PathFamily, PhasePoint, caustic,
                           enclosed_area, evolve_path, expected_area,
                           find_peaks, initial_conditions, path_family,
                           peak_hyperbola_n2, phase_space_snapshot)
from .wavefunction import (MAX_ORDER, ComplexField, GridSpec, RealField,
                           WaveParams,
                           density, density_grid, energy, psi, psi_dx,
                           psi_initial, psi_phase_flipped,
                           residual_convergence, sample_field,
                           schrodinger_residual, total_probability)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MAX_ORDER", "AiryParams", "BracketingError", "CausticPair",
    "ComplexField", "ConvergenceError", "DomainError", "FieldComparison",
    "GridMismatchError", "GridSpec", "GridTooSmallError", "HermitePair",
    "MomentRow", "PathFamily", "PhasePoint", "QuadratureResult", "RealField",
    "SpectralField", "SpectralGrid", "WaveParams",
    "airy_closed_forms", "analytic_field", "caustic",
    "closed_form_moments", "compare_fields", "density", "density_grid",
    "enclosed_area", "energy", "evolve_path", "expected_area", "find_peaks",
    "find_root", "hermite_pair", "initial_conditions", "integrate",
    "numeric_moments", "path_family", "peak_hyperbola_n2",
    "phase_space_snapshot",
    "psi", "psi_dx", "psi_initial", "psi_phase_flipped",
    "residual_convergence", "sample_field", "schrodinger_residual",
    "spectral_propagate", "spreading_check", "table_report",
    "total_probability",
]
