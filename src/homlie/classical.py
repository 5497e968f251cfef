"""Classical (untwisted) operators for the lift correspondence.

`poisson.classical_poisson_lift` compares a classical bivector's
verdicts with those of its lift: the graded bracket here is the
odd-coordinate pairing on the coordinate frame of the tangent
algebroid, which shares no code path with the twisted engine, and the
pushforward moves a bivector along an affine base map.  The untwisted
Cartan calculus that tests use as a cross-check is in `tests/oracle.py`.
"""

from __future__ import annotations

from .exterior import MultiVector, _accumulate, _sum_each
from .polyring import AffineTwist, Poly


def _odd_partial(D: MultiVector, i: int) -> MultiVector:
    """Left derivative with respect to the odd coordinate i."""
    out = MultiVector.zero(D.rank, D.n, D.degree - 1)
    for I, f in D.coeffs.items():
        if i not in I:
            continue
        pos = I.index(i)
        K = I[:pos] + I[pos + 1 :]
        _accumulate(out.coeffs, K, f if pos % 2 == 0 else -f)
    return out


def _coeff_partial(D: MultiVector, i: int) -> MultiVector:
    out = MultiVector.zero(D.rank, D.n, D.degree)
    for I, f in D.coeffs.items():
        df = f.partial(i)
        if not df.is_zero():
            out.coeffs[I] = df
    return out


def schouten_classical(D1: MultiVector, D2: MultiVector) -> MultiVector:
    """Graded bracket via the odd-coordinate pairing, using left
    derivatives with respect to the odd variables; valid on the
    coordinate frame of the tangent algebroid."""
    k, l = D1.degree, D2.degree
    sign1 = -1 if (k - 1) % 2 else 1
    out = MultiVector.zero(D1.rank, D1.n, max(k + l - 1, 0))
    if k + l == 0:
        return out
    for i in range(min(D1.rank, D1.n)):
        first = _odd_partial(D1, i).wedge(_coeff_partial(D2, i))
        second = _coeff_partial(D1, i).wedge(_odd_partial(D2, i))
        out = out + first.scale(sign1) - second
    return out


def pushforward_bivector(phi: AffineTwist, pi: MultiVector) -> MultiVector:
    """The bivector moved along phi: entry (i, j) is the sum over the
    entries (k, l) of pi of the 2x2 minor M[ij, kl] of the base matrix
    times phi^-1*(pi_kl), one sum of products."""
    n = phi.n
    M = phi.matrix
    moved = [(k, l, phi.inverse_pullback(c)) for (k, l), c in pi.coeffs.items()]
    pairs = {
        (i, j): [
            (Poly.const(n, M[i][k] * M[j][l] - M[i][l] * M[j][k]), c) for k, l, c in moved
        ]
        for i in range(n)
        for j in range(i + 1, n)
    }
    return MultiVector._raw(pi.rank, n, 2, _sum_each(n, pairs))
