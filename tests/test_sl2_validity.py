"""Why scenarios/s1_sl2_full.json is a valid instance, decided by direct
Fraction arithmetic on sl(2) and no homlie checker.

Frames 3, 4, 5 of the file are h, e, f of sl(2).  The file twists the
bracket by alpha = exp(ad e) (Yau's construction), so (sl(2), alpha[.,.],
alpha) is a Hom-Lie algebra when sl(2) is a Lie algebra and alpha is an
automorphism of it.  pi's sl(2) part is the Jordanian r-matrix r = h^e;
it is a solution of the classical Yang-Baxter equation, [r, r] = 0, and
alpha fixes it.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

SL2_FULL = Path(__file__).resolve().parent.parent / "scenarios" / "s1_sl2_full.json"

# the standard bracket of sl(2) on the basis h, e, f (indices 0, 1, 2)
H, E, F = (tuple(Fraction(int(i == k)) for i in range(3)) for k in range(3))
BASIS = (H, E, F)
BRACKET = {
    (0, 1): (0, 2, 0),  # [h, e] = 2e
    (0, 2): (0, 0, -2),  # [h, f] = -2f
    (1, 2): (1, 0, 0),  # [e, f] = h
}


def add(*vectors):
    return tuple(sum(c) for c in zip(*vectors))


def scale(c, v):
    return tuple(c * x for x in v)


def bracket(u, v):
    out = (Fraction(0),) * 3
    for (i, j), w in BRACKET.items():
        c = u[i] * v[j] - u[j] * v[i]
        out = add(out, scale(c, w))
    return out


def apply(M, v):
    """M v, for a matrix whose columns are the images of the basis."""
    return tuple(sum(M[r][c] * v[c] for c in range(3)) for r in range(3))


def compose(M, N):
    return [[sum(M[r][k] * N[k][c] for k in range(3)) for c in range(3)] for r in range(3)]


def columns(images):
    return [[images[c][r] for c in range(3)] for r in range(3)]


def wedge(*vectors):
    """The wedge product of vectors of sl(2), as {sorted indices: coefficient}."""
    out = {}
    for idx in itertools.product(range(3), repeat=len(vectors)):
        if len(set(idx)) < len(idx):
            continue
        c = Fraction(1)
        for v, i in zip(vectors, idx):
            c *= v[i]
        if c:
            inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
            key = tuple(sorted(idx))
            out[key] = out.get(key, 0) + (-c if inversions % 2 else c)
    return {k: c for k, c in out.items() if c}


def schouten(br, x, y):
    """[x1^x2, y1^y2] for decomposable bivectors x = (x1, x2), y = (y1, y2):
    the bracket `br` extended to the exterior algebra as a graded
    derivation, sum of (-1)^(i+j) [xi, yj] ^ x(not i) ^ y(not j)."""
    out = {}
    for i, j in itertools.product(range(2), repeat=2):
        sign = -1 if (i + j) % 2 else 1
        term = wedge(br(x[i], y[j]), x[1 - i], y[1 - j])
        for k, c in term.items():
            out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def alpha():
    """exp(ad e) = 1 + ad e + (ad e)^2 / 2, since (ad e)^3 = 0."""
    ad_e = columns([bracket(E, b) for b in BASIS])
    square = compose(ad_e, ad_e)
    assert all(x == 0 for row in compose(square, ad_e) for x in row)
    return [
        [Fraction(int(r == c)) + ad_e[r][c] + square[r][c] / 2 for c in range(3)] for r in range(3)
    ]


def test_sl2_satisfies_jacobi():
    for a, b, c in itertools.product(BASIS, repeat=3):
        cyclic = add(bracket(a, bracket(b, c)), bracket(b, bracket(c, a)), bracket(c, bracket(a, b)))
        assert not any(cyclic)


def test_exp_ad_e_is_an_automorphism():
    A = alpha()
    # alpha(h) = h - 2e, alpha(e) = e, alpha(f) = f + h - e
    assert [apply(A, b) for b in BASIS] == [(1, -2, 0), (0, 1, 0), (1, -1, 1)]
    for u, v in itertools.product(BASIS, repeat=2):
        assert apply(A, bracket(u, v)) == bracket(apply(A, u), apply(A, v))


def test_file_holds_the_twisted_sl2():
    data = json.loads(SL2_FULL.read_text())
    A = alpha()
    block = [[Fraction(x) for x in row[2:]] for row in data["phiA_matrix"][2:]]
    assert block == A
    structure = {}
    for item in data["structure"]:
        key = (item["i"], item["j"], item["k"])
        structure[key] = structure.get(key, 0) + Fraction(item["coeff"])
    twisted = {}
    for i, j in itertools.combinations(range(3), 2):
        image = apply(A, bracket(BASIS[i], BASIS[j]))
        twisted.update({(i + 3, j + 3, k + 3): c for k, c in enumerate(image) if c})
    assert structure == twisted
    # pi's sl(2) part is r = h^e
    assert [(t["i"], t["j"], t["coeff"]) for t in data["pi"] if t["i"] >= 3] == [(3, 4, "1")]


def test_jordanian_r_matrix_is_triangular_and_alpha_invariant():
    A = alpha()

    def twisted(u, v):
        return apply(A, bracket(u, v))

    r = (H, E)
    assert schouten(bracket, r, r) == {}
    assert schouten(twisted, r, r) == {}
    assert wedge(apply(A, H), apply(A, E)) == wedge(H, E)
    # the check can fail: e^f squares to 2 h^e^f under the twisted bracket
    assert schouten(twisted, (E, F), (E, F)) == {(0, 1, 2): 2}
