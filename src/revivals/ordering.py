"""Exact normal ordering of ladder-operator words.

A single-mode operator polynomial is a dict mapping (i, j) to an integer
coefficient, the monomial being (a†)^i a^j. Words are reduced by
right-multiplying letter by letter with the rewriting rule derived from
[a, a†] = 1, namely a^j a† = a† a^j + j a^(j-1). All bookkeeping stays in
exact integers; the caller attaches whatever scalar prefactor the operator
carries (powers of 1/2i and so on).

Two-mode products such as the angular-momentum interference term factor
across modes because b-operators commute with c-operators: collect each
mode's letters in order, normal-order them separately, then take the
tensor product of the resulting polynomials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

#: Monomial keys: (dagger power, plain power) for one mode.
Monomial = tuple[int, int]

#: Two-mode keys: (i1, j1, i2, j2) meaning (b†)^i1 b^j1 (c†)^i2 c^j2.
TwoModeMonomial = tuple[int, int, int, int]


def _multiply_letter(poly: dict[Monomial, int], creation: bool) -> dict[Monomial, int]:
    """Right-multiply a normal-ordered polynomial by a single a or a†."""
    out: dict[Monomial, int] = {}
    for (i, j), coeff in poly.items():
        if creation:
            # (a†)^i a^j a† = (a†)^(i+1) a^j + j (a†)^i a^(j-1)
            out[(i + 1, j)] = out.get((i + 1, j), 0) + coeff
            if j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + j * coeff
        else:
            out[(i, j + 1)] = out.get((i, j + 1), 0) + coeff
    return out


def normal_order_word(word: tuple[bool, ...]) -> dict[Monomial, int]:
    """Normal-order a product of letters, True meaning a† and False meaning a."""
    poly: dict[Monomial, int] = {(0, 0): 1}
    for creation in word:
        poly = _multiply_letter(poly, creation)
    return poly


@lru_cache(maxsize=None)
def x_power_terms(k: int) -> tuple[tuple[Monomial, int], ...]:
    """Normal-ordered expansion of (a + a†)^k, sorted; the 2^(-k/2) factor is not included."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    terms: dict[Monomial, int] = {}
    for word in product((False, True), repeat=k):
        for mono, coeff in normal_order_word(word).items():
            terms[mono] = terms.get(mono, 0) + coeff
    return tuple(sorted(terms.items()))


@lru_cache(maxsize=None)
def interference_power_terms(n: int) -> tuple[tuple[TwoModeMonomial, complex], ...]:
    """Normal-ordered expansion of [(b†c - c†b)/2i]^n, sorted for determinism."""
    if n < 1:
        raise ValueError("power must be >= 1")
    integer_terms: dict[TwoModeMonomial, int] = {}
    # Each factor of (b†c - c†b) contributes one letter to the b-word and one
    # to the c-word; cross-mode letters commute, in-mode order is preserved.
    for choice in product((0, 1), repeat=n):
        sign = -1 if sum(choice) % 2 else 1
        b_word = tuple(c == 0 for c in choice)   # b†c picks b†, c†b picks b
        c_word = tuple(c == 1 for c in choice)   # b†c picks c,  c†b picks c†
        poly_b = normal_order_word(b_word)
        poly_c = normal_order_word(c_word)
        for (i1, j1), cb in poly_b.items():
            for (i2, j2), cc in poly_c.items():
                key = (i1, j1, i2, j2)
                integer_terms[key] = integer_terms.get(key, 0) + sign * cb * cc
    prefactor = (-0.5j) ** n   # (1/2i)^n
    return tuple(
        (key, prefactor * coeff)
        for key, coeff in sorted(integer_terms.items())
        if coeff != 0
    )
