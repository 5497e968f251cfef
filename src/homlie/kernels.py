"""Term-map kernels for sparse multivariate polynomials.

A term map is a plain dict from exponent tuples (one non-negative int
per variable) to nonzero coefficients.  The kernels only add, multiply
and test coefficients for zero, so they work on any exact ring
elements; `Poly` passes integer numerators.  Every kernel returns a new
dict in the same canonical form: zero coefficients are never stored.
"""

from operator import add


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
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            s = out.get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def poly_partial(a, i):
    # exponent maps stay distinct under d/dx_i, so no merging is needed
    out = {}
    for k, v in a.items():
        e = k[i]
        if e:
            out[k[:i] + (e - 1,) + k[i + 1 :]] = v * e
    return out


def poly_substitute(a, powers, nvars):
    """Substitute variable i by the polynomial powers[i][1].

    powers[i][e] must hold the e-th power of the image of variable i as
    a term dict; powers[i][0] is unused.
    """
    out = {}
    zero_key = (0,) * nvars
    for k, v in a.items():
        prod = {zero_key: v}
        for i, e in enumerate(k):
            if e:
                prod = poly_mul(prod, powers[i][e])
        out = poly_add(out, prod)
    return out
