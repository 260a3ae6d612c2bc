"""Exact normal ordering of ladder-operator words and powers.

A single-mode operator polynomial is a dict mapping (i, j) to an integer
coefficient, the monomial being (a†)^i a^j. Words are reduced by
right-multiplying letter by letter with the rewriting rule derived from
[a, a†] = 1, namely a^j a† = a† a^j + j a^(j-1). All bookkeeping stays in
exact integers; the caller attaches whatever scalar prefactor the operator
carries (powers of 1/2i and so on).

A power of a linear form such as a + a† or b†c - c†b is the polynomial
right-multiplied by the form n times, so the work grows with the number of
terms, not with the 2^n words. Two-mode keys hold one (i, j) pair per mode;
b-operators commute with c-operators, so a letter rewrites only its mode's pair.
"""

from __future__ import annotations

__all__ = ["interference_power_terms", "x_power_terms"]

from functools import lru_cache

from .fock import _check_count

#: Monomial keys: (dagger power, plain power) for one mode.
Monomial = tuple[int, int]

#: Two-mode keys: (i1, j1, i2, j2) meaning (b†)^i1 b^j1 (c†)^i2 c^j2.
TwoModeMonomial = tuple[int, int, int, int]

#: Linear forms: (coefficient, letters) products, a letter being (creation, key position).
_X_FORM = ((1, ((False, 0),)), (1, ((True, 0),)))   # a + a†
_L_FORM = ((1, ((True, 0), (False, 2))), (-1, ((False, 0), (True, 2))))   # b†c - b c†

#: Largest order of [(b†c - c†b)/2i]^n that interference_power_terms builds:
#: the range checked against the dense oracle. The expansion takes about n^4
#: steps: 0.5 s at n = 40 and 2.3 s at n = 60 on a 2-core Intel Xeon.
MAX_INTERFERENCE_POWER = 40


def _multiply_letter(poly: dict, creation: bool, position: int = 0) -> dict:
    """Right-multiply a normal-ordered polynomial by an a or a† of the mode at key[position]."""
    out: dict = {}
    for key, coeff in poly.items():
        head, (i, j), tail = key[:position], key[position : position + 2], key[position + 2 :]
        if creation:
            # (a†)^i a^j a† = (a†)^(i+1) a^j + j (a†)^i a^(j-1)
            raised = head + (i + 1, j) + tail
            out[raised] = out.get(raised, 0) + coeff
            if j > 0:
                lowered = head + (i, j - 1) + tail
                out[lowered] = out.get(lowered, 0) + j * coeff
        else:
            lowered = head + (i, j + 1) + tail
            out[lowered] = out.get(lowered, 0) + coeff
    return out


def _power(form, n: int, one: tuple[int, ...]) -> dict:
    """Normal-ordered form^n with exact integer coefficients; one is the identity key."""
    poly = {one: 1}
    for _ in range(n):
        out: dict = {}
        for coeff, letters in form:
            product = poly
            for creation, position in letters:
                product = _multiply_letter(product, creation, position)
            for key, value in product.items():
                out[key] = out.get(key, 0) + coeff * value
        poly = out
    return poly


# typed=True on both caches: a float order equal to a cached integer one
# misses the cache and meets the integer check.
@lru_cache(maxsize=None, typed=True)
def x_power_terms(k: int) -> tuple[tuple[Monomial, int], ...]:
    """Normal-ordered expansion of (a + a†)^k, sorted; the 2^(-k/2) factor is not included."""
    k = _check_count("k", k, None)
    if k < 0:
        raise ValueError("power must be nonnegative")
    return tuple(sorted(_power(_X_FORM, k, (0, 0)).items()))


@lru_cache(maxsize=None, typed=True)
def interference_power_terms(n: int) -> tuple[tuple[TwoModeMonomial, complex], ...]:
    """Normal-ordered expansion of [(b†c - c†b)/2i]^n, sorted for determinism.

    n must be an integer in 1..MAX_INTERFERENCE_POWER, the verified range.
    """
    n = _check_count("n", n, None)
    if n < 1:
        raise ValueError(f"interference power must be at least 1, got {n}")
    if n > MAX_INTERFERENCE_POWER:
        raise ValueError(
            f"interference power must be at most {MAX_INTERFERENCE_POWER} "
            f"(the verified range 1..{MAX_INTERFERENCE_POWER}), got {n}"
        )
    prefactor = (-0.5j) ** n   # (1/2i)^n
    return tuple(
        (key, prefactor * coeff)
        for key, coeff in sorted(_power(_L_FORM, n, (0, 0, 0, 0)).items())
        if coeff != 0
    )
