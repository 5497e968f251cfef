"""Exact coefficient algebra: multivariate polynomials over the
rationals and invertible affine self-maps of the coordinate space.

Polynomials replace the smooth function algebra; base maps are
restricted to invertible affine maps so that both the pullback f |-> f
after the map and its inverse stay polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from . import kernels
from .kernels import pack, unpack


class DimensionMismatch(ValueError):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _default_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i + 1}" for i in range(n)]


class Poly:
    """Sparse multivariate polynomial over the rationals.

    Stored as integer numerators over one common denominator: `num`
    maps packed monomial keys (see `kernels`) to nonzero ints and `den`
    is a positive int with gcd(den, every numerator) == 1.  That form is
    canonical, so two polynomials are equal exactly when their
    (num, den) pairs are equal.  Arithmetic runs the term-map kernels on
    the numerators and reduces each result by one gcd.  Instances are
    immutable; all arithmetic returns new objects.

    Exponent tuples appear only at the boundary: the constructors pack
    them, refusing an exponent of `kernels.LIMIT` or more, and `terms`,
    `sorted_terms`, `degree` and `render` unpack them.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for k, v in (terms or {}).items():
            v = _as_fraction(v)
            if len(k) != n:
                raise DimensionMismatch(f"exponent {k} has wrong arity for {n} variables")
            key = pack(k)
            if v:
                clean[key] = v
        # the lcm of reduced denominators leaves no common factor
        self.den = lcm(*(v.denominator for v in clean.values()))
        self.num = {k: v.numerator * (self.den // v.denominator) for k, v in clean.items()}

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return _poly(n, {}, 1)

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = _as_fraction(c)
        return _poly(n, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for {n} variables")
        return _poly(n, {pack([int(j == i) for j in range(n)]): 1}, 1)

    @classmethod
    def monomial(cls, n: int, exps, c=1) -> "Poly":
        return cls(n, {tuple(exps): _as_fraction(c)})

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh {exponents: Fraction} dict."""
        n = self.n
        return {unpack(k, n): Fraction(v, self.den) for k, v in self.num.items()}

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise DimensionMismatch("mixed variable counts")
            return other
        return Poly.const(self.n, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        a, b = self.den, other.den
        if a == b:
            return _reduced(self.n, kernels.poly_add(self.num, other.num), a)
        if not self.num:
            return _poly(self.n, dict(other.num), b)
        if not other.num:
            return _poly(self.n, dict(self.num), a)
        g = gcd(a, b)
        num = kernels.poly_add(
            kernels.poly_scale(self.num, b // g), kernels.poly_scale(other.num, a // g)
        )
        return _reduced(self.n, num, a * (b // g))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.n, kernels.poly_neg(self.num), self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return _reduced(self.n, kernels.poly_scale(self.num, other), self.den)
            if isinstance(other, Fraction):
                num = kernels.poly_scale(self.num, other.numerator)
                return _reduced(self.n, num, self.den * other.denominator)
        other = self._coerce(other)
        a, b = self.num, other.num
        if len(a) == 1 and len(b) == 1:
            # one term by one term: one key add and one product, reduced
            # by a gcd only over a denominator
            [(ka, va)], [(kb, vb)] = a.items(), b.items()
            c, den = va * vb, self.den * other.den
            if den != 1:
                g = gcd(c, den)
                c, den = c // g, den // g
            return _poly(self.n, {kernels.mono_mul(ka, kb): c}, den)
        if len(b) == 1 and len(a) > 1:
            a, b = b, a
        if len(a) == 1 and len(b) > 1:
            [(k, c)] = a.items()
            if not k:
                # a constant factor scales the terms of the other
                return _reduced(self.n, kernels.poly_scale(b, c), self.den * other.den)
        return _reduced(self.n, kernels.poly_mul(a, b), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    __hash__ = None  # mutable-dict backed; not usable as a dict key

    def key(self) -> tuple:
        """A hashable value that is equal exactly for equal polynomials:
        the terms as a sorted tuple over the denominator."""
        return (self.n, self.den, tuple(sorted(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not k for k in self.num)

    def constant_value(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.num.values())), self.den)

    def degree(self) -> int:
        if not self.num:
            return 0
        return max(sum(unpack(k, self.n)) for k in self.num)

    def partial(self, i: int) -> "Poly":
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate index {i} out of range")
        return _reduced(self.n, kernels.poly_partial(self.num, i), self.den)

    def sorted_terms(self):
        """Terms in descending graded-lex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        return self.render()

    def render(self, names=None) -> str:
        if not self.num:
            return "0"
        names = names or _default_names(self.n)
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self.render()!r})"


def _poly(n: int, num: dict, den: int) -> Poly:
    """A Poly from numerators and a denominator already in canonical form."""
    p = object.__new__(Poly)
    p.n = n
    p.num = num
    p.den = den
    return p


def _reduced(n: int, num: dict, den: int) -> Poly:
    """A Poly from nonzero numerators over a positive denominator,
    divided by their common gcd."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    return _poly(n, num, den)


def sum_products(n: int, pairs) -> Poly:
    """sum a * b over pairs of polynomials in n variables, in one pass:
    the products of the numerators, each scaled to the lcm of the
    product denominators, accumulate in one dict that is reduced once.
    A single nonzero pair is the plain product `a * b`."""
    pairs = [(a, b) for a, b in pairs if a.num and b.num]
    if not pairs:
        return _poly(n, {}, 1)
    if len(pairs) == 1:
        a, b = pairs[0]
        return a * b
    den = lcm(*(a.den * b.den for a, b in pairs))
    num = kernels.poly_sum_products((den // (a.den * b.den), a.num, b.num) for a, b in pairs)
    return _reduced(n, num, den)


def monomials(n: int, max_degree: int) -> list[Poly]:
    """All monomials of total degree <= max_degree in graded-lex order.

    This is the default probe-function set for identity checks.
    """
    out = [Poly.const(n, 1)]
    for d in range(1, max_degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            out.append(Poly.monomial(n, exps))
    return out


# the term map of the constant 1: the left factor that turns a sum of
# scaled term maps into a sum of products
_ONE = {0: 1}


def _table_sum(f: Poly, table: dict, fill) -> Poly:
    """The linear map given on monomials by `table`, applied to f: the
    sum of the terms' coefficients times their entries, over f's
    denominator.  An entry is the (numerators, denominator) pair of a
    monomial's image; a key not yet in the table gets fill(key), once.
    One term is its entry scaled into a fresh dict; more terms are the
    scaled entries summed in one `kernels.poly_sum_products` call, with
    the constant 1 as left factor.  No entry is handed out or mutated."""
    n = f.n
    if len(f.num) == 1:
        [(k, v)] = f.num.items()
        entry = table.get(k)
        if entry is None:
            entry = table[k] = fill(k)
        num, d = entry
        return _reduced(n, {t: v * w for t, w in num.items()}, d * f.den)
    entries = []
    for k in f.num:
        entry = table.get(k)
        if entry is None:
            entry = table[k] = fill(k)
        entries.append(entry)
    den = lcm(*(d for _, d in entries))
    triples = ((v * (den // d), _ONE, num) for v, (num, d) in zip(f.num.values(), entries))
    return _reduced(n, kernels.poly_sum_products(triples), den * f.den)


def _mat_inverse(matrix):
    """Exact inverse of a square Fraction matrix via Gauss-Jordan."""
    n = len(matrix)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular over the rationals")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class AffineTwist:
    """Invertible affine self-map p |-> M p + b of the coordinate space.

    Serves as the base map: its pullback acts on Poly by substitution
    and has an exact inverse because M is invertible over the rationals.

    The map keeps one monomial table for its pullback: one entry per
    distinct packed monomial key it has seen, mapping it to the
    (numerators, denominator) pair of that monomial's image, filled once
    by the substitution kernel.  The inverse map, built once by
    `inverse()` and pointing back at this one, keeps the table of
    `inverse_pullback`.  A pullback is the sum of the scaled table
    entries of its terms (`_table_sum`); a constant is returned as it
    is.  A table is never handed out, so its entries are never mutated;
    it is bounded by the number of monomials of the inputs' degree,
    C(n + d, d).
    """

    __slots__ = (
        "n", "matrix", "offset", "matrix_inv", "_images", "_pow", "_table", "_is_id", "_inverse",
    )

    def __init__(self, matrix, offset=None):
        self.n = len(matrix)
        self.matrix = tuple(tuple(_as_fraction(x) for x in row) for row in matrix)
        if any(len(row) != self.n for row in self.matrix):
            raise DimensionMismatch("matrix is not square")
        if offset is None:
            offset = [0] * self.n
        self.offset = tuple(_as_fraction(x) for x in offset)
        if len(self.offset) != self.n:
            raise DimensionMismatch("offset has wrong length")
        self.matrix_inv = _mat_inverse(self.matrix)
        n = self.n
        self._images = [
            Poly(n, {tuple(1 if j == k else 0 for k in range(n)): self.matrix[i][j] for j in range(n) if self.matrix[i][j]})
            + Poly.const(n, self.offset[i])
            for i in range(n)
        ]
        # numerator powers of the images for the substitution kernel,
        # grown on demand; the e-th power is over the image's den ** e
        self._pow = [[{0: 1}, p.num] for p in self._images]
        self._table = {}
        self._is_id = self.is_identity()
        self._inverse = None

    @classmethod
    def identity(cls, n: int) -> "AffineTwist":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def is_identity(self) -> bool:
        ident = all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )
        return ident and all(not b for b in self.offset)

    def inverse(self) -> "AffineTwist":
        """The inverse map, built once; its inverse is this map."""
        if self._inverse is None:
            n = self.n
            inv_off = [-sum(self.matrix_inv[i][j] * self.offset[j] for j in range(n)) for i in range(n)]
            self._inverse = AffineTwist(self.matrix_inv, inv_off)
            self._inverse._inverse = self
        return self._inverse

    def compose(self, other: "AffineTwist") -> "AffineTwist":
        """The map p |-> self(other(p))."""
        if other.n != self.n:
            raise DimensionMismatch("mixed dimensions")
        n = self.n
        m = [
            [sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        b = [sum(self.matrix[i][k] * other.offset[k] for k in range(n)) + self.offset[i] for i in range(n)]
        return AffineTwist(m, b)

    def _substitute(self, f: Poly) -> Poly:
        if f.n != self.n:
            raise DimensionMismatch("polynomial and base map dimensions differ")
        if self._is_id or not f.num:
            return f
        if len(f.num) == 1 and not next(iter(f.num)):
            return f  # the pullback fixes constants
        return _table_sum(f, self._table, self._image)

    def _image(self, k: int) -> tuple:
        """The table entry of the monomial of key k: its image under the
        substitution kernel, over the product of the images' denominators."""
        exps = unpack(k, self.n)
        need = max(exps, default=0)
        powers = self._pow
        for col in powers:
            while len(col) <= need:
                col.append(kernels.poly_mul(col[-1], col[1]))
        den = 1
        for img, e in zip(self._images, exps):
            den *= img.den**e
        image = _reduced(self.n, kernels.poly_substitute({k: 1}, powers, self.n), den)
        return image.num, image.den

    def pullback(self, f: Poly) -> Poly:
        """f composed with the map (substitute each variable's image)."""
        return self._substitute(f)

    def inverse_pullback(self, f: Poly) -> Poly:
        """Two-sided inverse of pullback, through the inverse map's table."""
        return self.inverse()._substitute(f)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineTwist):
            return NotImplemented
        return self.matrix == other.matrix and self.offset == other.offset

    __hash__ = None

    def __repr__(self) -> str:
        return f"AffineTwist(matrix={self.matrix}, offset={self.offset})"


def poly_divides(g: Poly, f: Poly):
    """Exact quotient f / g if it exists, else None.

    Greedy leading-term division under graded-lex order; valid as an
    exact-divisibility test because the order is multiplicative.
    """
    if g.is_zero():
        return Poly.zero(f.n) if f.is_zero() else None
    if f.n != g.n:
        raise DimensionMismatch("mixed variable counts")
    quot = Poly.zero(f.n)
    rem = f
    g_lead, g_coeff = g.sorted_terms()[0]
    while not rem.is_zero():
        r_lead, r_coeff = rem.sorted_terms()[0]
        exps = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(e < 0 for e in exps):
            return None
        t = Poly.monomial(f.n, exps, r_coeff / g_coeff)
        quot = quot + t
        rem = rem - t * g
    return quot
