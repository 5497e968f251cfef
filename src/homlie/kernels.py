"""Term-map kernels for sparse multivariate polynomials.

A term map is a plain dict from packed monomial keys to nonzero
coefficients.  A key is one non-negative int: the exponent of x_i sits
in bits [F*i, F*(i+1)).  The top bit of each field is a guard, so an
exponent is below LIMIT = 2**(F-1) and the sum of two exponents fits
its field without carrying into the next variable.  Multiplying
monomials is adding keys; differentiating by x_i is a shift, a mask and
a subtraction.  A product whose result holds a term with a guard bit
set raises ExponentOverflow instead of returning it.

`pack` and `unpack` convert between keys and exponent tuples.  Outside
this module, code reads no more of a key than whether it is 0, the key
of the constant monomial.

The kernels only add, multiply and test coefficients for zero, so they
work on any exact ring elements; `Poly` passes integer numerators.
Every kernel returns a new dict in the same canonical form: zero
coefficients are never stored.
"""

F = 16
LIMIT = 1 << (F - 1)
MASK = (1 << F) - 1
# keys hold at most MAX_VARS fields; GUARD has the top bit of each
MAX_VARS = 256
GUARD = sum(LIMIT << (F * i) for i in range(MAX_VARS))


class ExponentOverflow(OverflowError):
    """An exponent of LIMIT or more."""


def pack(exps) -> int:
    """The key of an exponent sequence; refuses one no key can hold."""
    if len(exps) > MAX_VARS:
        raise ValueError(f"more than {MAX_VARS} variables")
    key = 0
    for i, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        if e >= LIMIT:
            raise ExponentOverflow(f"exponent {e} in {tuple(exps)} is not below {LIMIT}")
        key |= e << (F * i)
    return key


def unpack(key, n):
    """The exponent tuple of the key of a monomial in n variables."""
    return tuple((key >> (F * i)) & MASK for i in range(n))


def poly_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def poly_neg(a):
    return {k: -v for k, v in a.items()}


def poly_scale(a, c):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    for k in out:
        if k & GUARD:
            raise ExponentOverflow(f"a product has an exponent of {LIMIT} or more")
    return out


def mono_mul(ka, kb):
    """The key of the product of the monomials of keys ka and kb; a
    guarded key raises as in poly_mul."""
    k = ka + kb
    if k & GUARD:
        raise ExponentOverflow(f"a product has an exponent of {LIMIT} or more")
    return k


def poly_sum_products(triples):
    """sum s * a * b over (s, a, b) triples of a scalar and two term
    maps, accumulated into one fresh dict; zeros are dropped once at
    the end, and a guarded key raises as in poly_mul."""
    out = {}
    get = out.get
    for s, a, b in triples:
        if len(a) > len(b):
            a, b = b, a
        for ka, va in a.items():
            c = s * va
            for kb, vb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + c * vb
    out = {k: v for k, v in out.items() if v}
    for k in out:
        if k & GUARD:
            raise ExponentOverflow(f"a product has an exponent of {LIMIT} or more")
    return out


def poly_partial(a, i):
    # exponent maps stay distinct under d/dx_i, so no merging is needed
    shift = F * i
    unit = 1 << shift
    out = {}
    for k, v in a.items():
        e = (k >> shift) & MASK
        if e:
            out[k - unit] = v * e
    return out


def poly_substitute(a, powers, nvars):
    """Substitute variable i by the polynomial powers[i][1].

    powers[i][e] must hold the e-th power of the image of variable i as
    a term dict; powers[i][0] is unused.
    """
    out = {}
    for k, v in a.items():
        prod = {0: v}
        for i in range(nvars):
            e = (k >> (F * i)) & MASK
            if e:
                prod = poly_mul(prod, powers[i][e])
        out = poly_add(out, prod)
    return out
