"""Normal-ordering engine checks against brute-force matrix algebra."""

import math
from itertools import product

import numpy as np
import pytest
from conftest import ladder

from revivals.angular import TriModeLabel, angular_moment, lx_moment, lx_moment_oracle
from revivals.fock import CoherentLabel, ladder_product_matrix
from revivals.moments import expect_x_power
from revivals.ordering import (
    MAX_INTERFERENCE_POWER,
    _multiply_letter,
    interference_power_terms,
    x_power_terms,
)


def normal_order_word(word):
    """Reference: normal-order a product of letters, True meaning a† and False meaning a."""
    poly = {(0, 0): 1}
    for creation in word:
        poly = _multiply_letter(poly, creation)
    return poly


def _word_matrix(word, truncation):
    """Multiply truncated ladder matrices left to right for the given word."""
    a, adag = ladder(truncation)
    out = np.eye(truncation + 1, dtype=np.complex128)
    for creation in word:
        out = out @ (adag if creation else a)
    return out


def _terms_matrix(terms, truncation):
    out = np.zeros((truncation + 1, truncation + 1), dtype=np.complex128)
    for (i, j), coeff in terms.items():
        out = out + coeff * ladder_product_matrix(i, j, truncation)
    return out


def test_single_commutator():
    # a a† = a† a + 1.
    terms = normal_order_word((False, True))
    assert terms == {(1, 1): 1, (0, 0): 1}


def test_already_ordered_word_passes_through():
    terms = normal_order_word((True, True, False))
    assert terms == {(2, 1): 1}


def test_normal_order_matches_matrices():
    rng = np.random.default_rng(11)
    truncation = 16
    for length in (2, 3, 4, 5):
        for _ in range(6):
            word = tuple(bool(b) for b in rng.integers(0, 2, size=length))
            terms = normal_order_word(word)
            direct = _word_matrix(word, truncation)
            rebuilt = _terms_matrix(terms, truncation)
            # The top rows of the truncated product are corrupted by the
            # cutoff; compare the block the truncation represents faithfully.
            keep = truncation + 1 - length
            diff = np.max(np.abs(direct[:keep, :keep] - rebuilt[:keep, :keep]))
            assert diff < 1e-10


def test_x_power_terms_low_orders():
    # (a + a†)^1 and (a + a†)^2 = a†² + a² + 2a†a + 1.
    assert dict(x_power_terms(1)) == {(0, 1): 1, (1, 0): 1}
    assert dict(x_power_terms(2)) == {(0, 2): 1, (2, 0): 1, (1, 1): 2, (0, 0): 1}


def test_x_power_terms_match_matrices():
    truncation = 20
    a, adag = ladder(truncation)
    x_op = a + adag
    for k in range(1, 5):
        rebuilt = _terms_matrix(dict(x_power_terms(k)), truncation)
        direct = np.linalg.matrix_power(x_op, k)
        keep = truncation + 1 - k
        assert np.max(np.abs(direct[:keep, :keep] - rebuilt[:keep, :keep])) < 1e-10


def test_x_power_terms_match_exact_coefficients():
    # (a + a†)^k = Σ k! / (i! j! m! 2^m) (a†)^i a^j over i + j + 2m = k.
    f = math.factorial
    for k in range(41):
        expected = {}
        for i in range(k + 1):
            for j in range(k + 1 - i):
                m, odd = divmod(k - i - j, 2)
                if not odd:
                    expected[i, j] = f(k) // (f(i) * f(j) * f(m) * 2**m)
                    assert expected[i, j] * f(i) * f(j) * f(m) * 2**m == f(k)
        terms = x_power_terms(k)
        assert [key for key, _ in terms] == sorted(expected)
        assert dict(terms) == expected


def _interference_word_sum(n):
    """[(b†c - c†b)/2i]^n by normal-ordering each of its 2^n words separately."""
    integer_terms = {}
    for choice in product((0, 1), repeat=n):
        sign = -1 if sum(choice) % 2 else 1
        poly_b = normal_order_word(tuple(c == 0 for c in choice))   # b†c picks b†, c†b picks b
        poly_c = normal_order_word(tuple(c == 1 for c in choice))   # b†c picks c, c†b picks c†
        for (i1, j1), cb in poly_b.items():
            for (i2, j2), cc in poly_c.items():
                key = (i1, j1, i2, j2)
                integer_terms[key] = integer_terms.get(key, 0) + sign * cb * cc
    prefactor = (-0.5j) ** n
    return tuple(
        (key, prefactor * coeff) for key, coeff in sorted(integer_terms.items()) if coeff != 0
    )


def test_interference_terms_match_word_sum():
    for n in range(1, 11):
        assert interference_power_terms(n) == _interference_word_sum(n)


def test_interference_terms_n1():
    terms = dict(interference_power_terms(1))
    assert terms == {(0, 1, 1, 0): 0.5j, (1, 0, 0, 1): -0.5j}


def test_interference_terms_n2():
    terms = dict(interference_power_terms(2))
    expected = {
        (0, 0, 1, 1): 0.25,
        (0, 2, 2, 0): -0.25,
        (1, 1, 0, 0): 0.25,
        (1, 1, 1, 1): 0.5,
        (2, 0, 0, 2): -0.25,
    }
    assert set(terms) == set(expected)
    for key, value in expected.items():
        assert terms[key] == pytest.approx(value)


def test_interference_expansion_is_hermitian():
    # L_x is Hermitian, so the coefficient of (i1,j1,i2,j2) must be the
    # conjugate of the coefficient of the adjoint term (j1,i1,j2,i2).
    for n in range(1, 5):
        terms = dict(interference_power_terms(n))
        for (i1, j1, i2, j2), coeff in terms.items():
            partner = terms[(j1, i1, j2, i2)]
            assert partner == pytest.approx(np.conj(coeff))


def test_interference_expansion_matches_tensor_matrices():
    # Rebuild L_x^n from the expansion as a two-mode matrix and compare
    # against the direct matrix power, away from the truncation edge.
    margin_truncation = 12
    a, adag = ladder(margin_truncation)
    lx = (np.kron(adag, a) - np.kron(a, adag)) / 2j
    for n in range(1, 5):
        direct = np.linalg.matrix_power(lx, n)
        rebuilt = np.zeros_like(direct)
        for (i1, j1, i2, j2), coeff in interference_power_terms(n):
            mode_b = ladder_product_matrix(i1, j1, margin_truncation)
            mode_c = ladder_product_matrix(i2, j2, margin_truncation)
            rebuilt = rebuilt + coeff * np.kron(mode_b, mode_c)
        # Interior comparison: keep rows/cols whose per-mode indices stay
        # clear of the cutoff by the word length.
        keep = margin_truncation + 1 - n
        keep_idx = [
            bi * (margin_truncation + 1) + ci
            for bi in range(keep)
            for ci in range(keep)
        ]
        sub = np.ix_(keep_idx, keep_idx)
        assert np.max(np.abs(direct[sub] - rebuilt[sub])) < 1e-10


def test_interference_terms_rejects_bad_order():
    with pytest.raises(ValueError, match="interference power must be at least 1, got 0"):
        interference_power_terms(0)
    with pytest.raises(ValueError, match=r"verified range 1\.\.40\), got 41"):
        interference_power_terms(MAX_INTERFERENCE_POWER + 1)


_TRI = TriModeLabel.from_alphas(1.0, 0.5j, -0.5)


@pytest.mark.parametrize("order", [2.5, 2.0])
@pytest.mark.parametrize(
    "name, call",
    [
        ("k", x_power_terms),
        ("n", interference_power_terms),
        ("n", lambda n: angular_moment("y", n, _TRI, 0.3, 0.1)),
        ("n", lambda n: lx_moment(n, _TRI, 0.3, 0.1)),
        ("n", lambda n: lx_moment_oracle(n, _TRI, 0.3, 0.1)),
        ("k", lambda k: expect_x_power(k, CoherentLabel(1.0, 0.5), 0.3, 0.1)),
    ],
    ids=["x_power_terms", "interference_power_terms", "angular_moment", "lx_moment",
         "lx_moment_oracle", "expect_x_power"],
)
def test_non_integer_order_refused_with_its_name(name, call, order):
    # The integer order first, so that an equal float cannot pass through a cache.
    call(2)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {order}$"):
        call(order)
