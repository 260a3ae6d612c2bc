"""Property tests: closed forms against the dense oracles over random labels and orders.

Each closed form must match its oracle within MARGIN eps * scale * (N + chi |t| N²),
where scale bounds the moment's magnitude, N is the oracle's truncation (its
sums over N levels round at about N eps) and chi |t| N² is the largest phase
it evolves (the error of a Kerr phase is about eps times its size). The
margins are frozen at about twice the largest ratio measured over 12,000
random cases of the same strategies, a quarter of them at whole multiples of
the revival period and a seventh on the edges of the label box.
"""

import math

import numpy as np
import pytest
from conftest import ladder

from revivals.angular import _AXIS_PAIRS, TriModeLabel, angular_moment, lx_moment_oracle
from revivals.fock import (
    CoherentLabel,
    auto_truncation,
    coherent_amplitudes,
    ladder_product_matrix,
)
from revivals.moments import expect_x_power, ladder_moment, numerical_expectation
from revivals.spectra import Spectrum, evolve

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(np.float64).eps)

#: Frozen margins; the largest measured ratios were 0.31, 0.26 and 0.19.
LADDER_MARGIN = 0.7
X_POWER_MARGIN = 0.6
ANGULAR_MARGIN = 0.4

labels = st.builds(CoherentLabel, st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
rates = st.floats(0.2, 5.0)
#: Times as fractions of the revival period pi / chi.
revivals = st.floats(-1.0, 3.0)


def _limit(margin, scale, chi, t, truncation):
    return margin * EPS * scale * truncation * (1.0 + chi * abs(t) * truncation)


def _evolved(label, chi, t, extra):
    state = coherent_amplitudes(label)
    return evolve(state.padded(state.truncation + extra), Spectrum.kerr(chi), t)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(label=labels, r=st.integers(0, 3), s=st.integers(0, 3), daggers_first=st.booleans(),
       chi=rates, revival=revivals)
def test_ladder_moment_matches_dense_oracle(label, r, s, daggers_first, chi, revival):
    i, j = (r + s, r) if daggers_first else (r, r + s)
    t = revival * math.pi / chi
    evolved = _evolved(label, chi, t, i + j)
    dense = numerical_expectation(evolved, ladder_product_matrix(i, j, evolved.truncation))
    scale = (1.0 + label.nu) ** (0.5 * (i + j))
    limit = _limit(LADDER_MARGIN, scale, chi, t, evolved.truncation)
    assert abs(ladder_moment(i, j, label, chi, t) - dense) <= limit


@settings(max_examples=150, deadline=None, derandomize=True)
@given(label=labels, k=st.integers(0, 4), chi=rates, revival=revivals)
def test_x_power_matches_dense_oracle(label, k, chi, revival):
    t = revival * math.pi / chi
    evolved = _evolved(label, chi, t, k)
    a, _ = ladder(evolved.truncation)
    x = np.linalg.matrix_power((a + a.T) / math.sqrt(2.0), k)
    dense = numerical_expectation(evolved, x).real
    scale = (1.0 + 2.0 * label.nu) ** (0.5 * k)
    limit = _limit(X_POWER_MARGIN, scale, chi, t, evolved.truncation)
    assert abs(expect_x_power(k, label, chi, t) - dense) <= limit


@settings(max_examples=60, deadline=None, derandomize=True)
@given(modes=st.tuples(labels, labels, labels), axis=st.sampled_from("xyz"),
       n=st.integers(1, 4), chi=rates, revival=revivals)
def test_angular_moment_matches_tensor_oracle(modes, axis, n, chi, revival):
    t = revival * math.pi / chi
    label = TriModeLabel(*modes)
    first, second = (getattr(label, name) for name in _AXIS_PAIRS[axis])
    # The oracle evaluates Lx; the axis's own mode pair in the b, c slots makes it L_axis.
    dense = lx_moment_oracle(n, TriModeLabel(label.mode_a, first, second), chi, t)
    truncation = auto_truncation(max(first.nu, second.nu))
    scale = (1.0 + first.nu + second.nu) ** n
    limit = _limit(ANGULAR_MARGIN, scale, chi, t, truncation)
    assert abs(angular_moment(axis, n, label, chi, t) - dense) <= limit
