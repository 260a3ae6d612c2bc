"""The public surface, written out: adding or removing a name is a one-line diff here."""

import revivals

PUBLIC_NAMES = [
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
    "hermite_functions",
    "inner_product",
    "interference_power_terms",
    "ladder_moment",
    "ladder_product_matrix",
    "lx_moment",
    "lx_moment_oracle",
    "main",
    "number_distribution",
    "numerical_expectation",
    "paraxial_talbot_length",
    "pendulum_positions",
    "position_wavefunction",
    "revival_time",
    "talbot_length",
    "uncertainty_trace",
    "wave_count",
    "x_power_terms",
]


def test_public_names_are_exactly_the_listed_ones():
    assert revivals.__all__ == PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 41
    assert all(hasattr(revivals, name) for name in PUBLIC_NAMES)
