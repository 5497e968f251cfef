"""Exact coefficient algebra: multivariate polynomials over the
rationals and invertible affine self-maps of the coordinate space.

Polynomials replace the smooth function algebra; base maps are
restricted to invertible affine maps so that both the pullback f |-> f
after the map and its inverse stay polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from . import kernels


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
    """Sparse multivariate polynomial over Fraction coefficients.

    Canonical form: the term map never stores a zero coefficient, so
    two polynomials are equal exactly when their term maps are equal.
    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        if terms is None:
            self.terms = {}
        else:
            clean = {}
            for k, v in terms.items():
                v = _as_fraction(v)
                if len(k) != n:
                    raise DimensionMismatch(f"exponent {k} has wrong arity for {n} variables")
                if v:
                    clean[tuple(k)] = v
            self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = _as_fraction(c)
        p = cls(n)
        if c:
            p.terms = {(0,) * n: c}
        return p

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for {n} variables")
        exp = tuple(1 if j == i else 0 for j in range(n))
        p = cls(n)
        p.terms = {exp: Fraction(1)}
        return p

    @classmethod
    def monomial(cls, n: int, exps, c=1) -> "Poly":
        return cls(n, {tuple(exps): _as_fraction(c)})

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Poly":
        p = cls(n)
        p.terms = terms
        return p

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise DimensionMismatch("mixed variable counts")
            return other
        return Poly.const(self.n, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        return Poly._raw(self.n, kernels.poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.n, kernels.poly_neg(self.terms))

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly._raw(self.n, kernels.poly_scale(self.terms, _as_fraction(other)))
        other = self._coerce(other)
        return Poly._raw(self.n, kernels.poly_mul(self.terms, other.terms))

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
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not usable as a dict key

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(k) for k in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(k) for k in self.terms)

    def partial(self, i: int) -> "Poly":
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate index {i} out of range")
        return Poly._raw(self.n, kernels.poly_partial(self.terms, i))

    def sorted_terms(self):
        """Terms in descending graded-lex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        return self.render()

    def render(self, names=None) -> str:
        if not self.terms:
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

    def to_json(self):
        return [
            {"exp": list(k), "coeff": str(v)}
            for k, v in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, n: int, data) -> "Poly":
        if isinstance(data, (str, int)):
            return cls.const(n, data)
        terms = {}
        for item in data:
            k = tuple(item["exp"])
            terms[k] = _as_fraction(item["coeff"]) + terms.get(k, Fraction(0))
        return cls(n, terms)


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

    Each direction (pullback, inverse_pullback) keeps its own monomial
    table: one entry per distinct exponent tuple that direction has
    seen, mapping it to the term dict of that monomial's image, filled
    once by the substitution kernel.  A pullback is the sum of the
    scaled table entries of its terms.  A table is never handed out, so
    its entries are never mutated; it is bounded by the number of
    monomials of the inputs' degree, C(n + d, d).
    """

    __slots__ = (
        "n", "matrix", "offset", "matrix_inv", "_images", "_inv_images",
        "_pow", "_inv_pow", "_table", "_inv_table", "_is_id",
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
        inv_off = [-sum(self.matrix_inv[i][j] * self.offset[j] for j in range(n)) for i in range(n)]
        self._inv_images = [
            Poly(n, {tuple(1 if j == k else 0 for k in range(n)): self.matrix_inv[i][j] for j in range(n) if self.matrix_inv[i][j]})
            + Poly.const(n, inv_off[i])
            for i in range(n)
        ]
        # power caches for the substitution kernel, grown on demand
        self._pow = [[{(0,) * n: Fraction(1)}, p.terms] for p in self._images]
        self._inv_pow = [[{(0,) * n: Fraction(1)}, p.terms] for p in self._inv_images]
        self._table = {}
        self._inv_table = {}
        self._is_id = self.is_identity()

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
        n = self.n
        inv_off = [-sum(self.matrix_inv[i][j] * self.offset[j] for j in range(n)) for i in range(n)]
        return AffineTwist(self.matrix_inv, inv_off)

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

    def _substitute(self, f: Poly, powers, table) -> Poly:
        if f.n != self.n:
            raise DimensionMismatch("polynomial and base map dimensions differ")
        if self._is_id:
            return f
        out = {}
        for k, v in f.terms.items():
            image = table.get(k)
            if image is None:
                need = max(k, default=0)
                for col in powers:
                    while len(col) <= need:
                        col.append(kernels.poly_mul(col[-1], col[1]))
                image = table[k] = kernels.poly_substitute({k: Fraction(1)}, powers, self.n)
            # poly_add copies its operands' terms, so out never aliases the table
            out = kernels.poly_add(out, image if v == 1 else kernels.poly_scale(image, v))
        return Poly._raw(self.n, out)

    def pullback(self, f: Poly) -> Poly:
        """f composed with the map (substitute each variable's image)."""
        return self._substitute(f, self._pow, self._table)

    def inverse_pullback(self, f: Poly) -> Poly:
        """Two-sided inverse of pullback."""
        return self._substitute(f, self._inv_pow, self._inv_table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineTwist):
            return NotImplemented
        return self.matrix == other.matrix and self.offset == other.offset

    __hash__ = None

    def __repr__(self) -> str:
        return f"AffineTwist(matrix={self.matrix}, offset={self.offset})"


def pullback(phi: AffineTwist, f: Poly) -> Poly:
    return phi.pullback(f)


def inverse_pullback(phi: AffineTwist, f: Poly) -> Poly:
    return phi.inverse_pullback(f)


def partial(f: Poly, i: int) -> Poly:
    return f.partial(i)


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
