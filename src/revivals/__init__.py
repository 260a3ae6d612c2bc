"""Numerical laboratory for wave-packet revivals of coherent states.

Coherent states evolved under number-diagonal spectra (Kerr, harmonic,
square well) collapse, interfere, and reassemble; this package provides
the Fock-space numerics, the closed-form moment engine with its
truncated-matrix verification oracle, cat-state decompositions at
fractional revival times, angular-momentum moments of two-mode states,
space-time density carpets, and the classical analogs (pendulum waves,
Talbot self-imaging), plus a deterministic command-line front end.
"""

from .angular import (
    TriModeLabel,
    angular_moment,
    lx_moment,
    lx_moment_oracle,
)
from .carpets import (
    CarpetGrid,
    carpet,
    count_lobes,
    grid_to_csv,
    grid_to_pgm,
    hermite_functions,
    position_wavefunction,
)
from .classical import (
    PendulumArray,
    paraxial_talbot_length,
    pendulum_positions,
    period_increment_positions,
    talbot_length,
    wave_count,
)
from .cli import main
from .fock import (
    CoherentLabel,
    FockVector,
    auto_truncation,
    coherent_amplitudes,
    inner_product,
    ladder_matrix,
    ladder_product_matrix,
    number_distribution,
)
from .moments import (
    BurstReport,
    autocorrelation,
    detect_bursts,
    expect_p,
    expect_p2,
    expect_x,
    expect_x2,
    expect_x_power,
    ladder_moment,
    numerical_expectation,
    uncertainty_trace,
)
from .ordering import interference_power_terms, x_power_terms
from .spectra import (
    CatDecomposition,
    Spectrum,
    decompose_fractional,
    evolve,
    fractional_revival_times,
    revival_time,
)

__all__ = [
    "BurstReport",
    "CarpetGrid",
    "CatDecomposition",
    "CoherentLabel",
    "FockVector",
    "PendulumArray",
    "Spectrum",
    "TriModeLabel",
    "angular_moment",
    "auto_truncation",
    "autocorrelation",
    "carpet",
    "coherent_amplitudes",
    "count_lobes",
    "decompose_fractional",
    "detect_bursts",
    "evolve",
    "expect_p",
    "expect_p2",
    "expect_x",
    "expect_x2",
    "expect_x_power",
    "fractional_revival_times",
    "grid_to_csv",
    "grid_to_pgm",
    "hermite_functions",
    "inner_product",
    "interference_power_terms",
    "ladder_matrix",
    "ladder_moment",
    "ladder_product_matrix",
    "lx_moment",
    "lx_moment_oracle",
    "main",
    "number_distribution",
    "numerical_expectation",
    "paraxial_talbot_length",
    "pendulum_positions",
    "period_increment_positions",
    "position_wavefunction",
    "revival_time",
    "talbot_length",
    "uncertainty_trace",
    "wave_count",
    "x_power_terms",
]
