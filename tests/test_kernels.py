"""The term-map kernels on integer numerator maps, as `Poly` calls
them: canonical-form pruning, and agreement with the same kernels run on
Fraction maps."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import homlie
from homlie import kernels
from homlie.kernels import pack
from homlie.polyring import Poly

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
int_maps = st.dictionaries(exponents, st.integers(-30, 30).filter(bool), max_size=6)


def over(num, den):
    return {k: Fraction(v, den) for k, v in num.items()}


def packed(terms):
    return {pack(k): v for k, v in terms.items()}


def test_backend_is_pure_python():
    assert homlie.BACKEND == "python"


def test_mul_cancellation_prunes():
    a = packed({(1, 0, 0): 1, (0, 1, 0): 1})
    b = packed({(1, 0, 0): 1, (0, 1, 0): -1})
    # (x+y)(x-y) = x^2 - y^2: the xy terms cancel exactly
    assert kernels.poly_mul(a, b) == packed({(2, 0, 0): 1, (0, 2, 0): -1})


def test_add_cancellation_prunes():
    a = {(1, 0, 0): 3, (0, 0, 0): 2}
    assert kernels.poly_add(a, kernels.poly_neg(a)) == {}
    assert kernels.poly_add(a, {(1, 0, 0): -3}) == {(0, 0, 0): 2}


def test_normalisation():
    # (2/3)(3/4) = 1/2: the kernel multiplies numerators, Poly reduces once
    one = pack((0, 0, 0))
    assert kernels.poly_mul({one: 2}, {one: 3}) == {one: 6}
    p = Poly.const(3, Fraction(2, 3)) * Poly.const(3, Fraction(3, 4))
    assert (p.num, p.den) == ({one: 1}, 2)
    assert type(p.num[one]) is int
    assert p.constant_value() == Fraction(1, 2)


@given(int_maps, int_maps, st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=80)
def test_int_maps_agree_with_fraction_maps(a, b, da, db):
    a, b = packed(a), packed(b)
    assert over(kernels.poly_add(a, b), da) == kernels.poly_add(over(a, da), over(b, da))
    assert over(kernels.poly_mul(a, b), da * db) == kernels.poly_mul(over(a, da), over(b, db))
    for i in range(3):
        assert over(kernels.poly_partial(a, i), da) == kernels.poly_partial(over(a, da), i)
