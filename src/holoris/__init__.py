"""holoris: spatial correlation, wavenumber spectra, mutual coupling and
beamforming analysis for dense planar (holographic) RIS apertures."""

from .analysis import (EigenSpectrum, asymptotic_dof,
                       dominant_count, effective_correlation, eigen_spectrum,
                       icsi, knee_index)
from .config import ExperimentConfig
from .correlation import correlation_matrix_isotropic
from .coupling import (DEFAULT_ISOTROPIC_RESISTANCE, FREE_SPACE_IMPEDANCE,
                       HALF_WAVE_DIPOLE_SELF_IMPEDANCE, ImpedanceMatrix,
                       coupling_rx, coupling_tx, dipole_mutual_impedance,
                       impedance_matrix_dipoles, impedance_matrix_isotropic)
from .errors import (ConfigError, DomainError, HolorisError,
                     KneeUndefinedError, NumericalError)
from .geometry import (ArrayGeometry, Direction, ElementKind, ParityBlocks,
                       make_dipole_array, make_uniform_grid, parity_blocks,
                       unit_direction)
from .response import (BeamformingScheme, array_gain, beamforming_vector,
                       gain_sweep, max_gain_closed_form, steering_vector)
from .specfun import cosine_integral, sine_integral
from .spectrum import (GeneratorSequence, WavenumberSpectrum, asymptotic_spectrum,
                       generator_sequence, power_spectrum)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry", "BeamformingScheme", "ConfigError",
    "DEFAULT_ISOTROPIC_RESISTANCE", "Direction", "DomainError",
    "EigenSpectrum", "ElementKind", "ExperimentConfig",
    "FREE_SPACE_IMPEDANCE", "GeneratorSequence",
    "HALF_WAVE_DIPOLE_SELF_IMPEDANCE", "HolorisError", "ImpedanceMatrix",
    "KneeUndefinedError", "NumericalError", "ParityBlocks",
    "WavenumberSpectrum", "array_gain", "asymptotic_dof",
    "asymptotic_spectrum", "beamforming_vector",
    "correlation_matrix_isotropic", "cosine_integral", "coupling_rx",
    "coupling_tx", "dipole_mutual_impedance", "dominant_count",
    "effective_correlation", "eigen_spectrum", "gain_sweep",
    "generator_sequence", "icsi", "impedance_matrix_dipoles",
    "impedance_matrix_isotropic", "knee_index", "make_dipole_array",
    "make_uniform_grid", "max_gain_closed_form", "parity_blocks",
    "power_spectrum", "sine_integral", "steering_vector", "unit_direction",
]
