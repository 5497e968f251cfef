"""Graded antisymmetric tensor algebra over a free rank-r module with
Poly coefficients: multivectors, forms, endomorphisms, wedge, the
duality pairing, and invertible section twists with their duals.

Covariant and contravariant data share one coefficient-table
representation and are distinguished only by a kind tag; the pairing is
the single bridge between the two kinds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .polyring import AffineTwist, Poly, sum_products
from .report import CheckResult, PreconditionError, StructureError, first_nonzero


def _merge_sign(I: tuple, J: tuple):
    """Sorted concatenation of two disjoint increasing tuples and the
    sign of the shuffle; None if the tuples overlap."""
    if set(I) & set(J):
        return None, 0
    merged = tuple(sorted(I + J))
    inversions = sum(1 for i in I for j in J if j < i)
    return merged, -1 if inversions % 2 else 1


def _sum_each(n: int, pairs: dict) -> dict:
    """The nonzero sums of products, one `sum_products` per key of
    pairs, in the order of its keys."""
    out = {}
    for K, p in pairs.items():
        c = sum_products(n, p)
        if not c.is_zero():
            out[K] = c
    return out


def _accumulate(out: dict, K: tuple, term: Poly):
    """Add term to out[K], keeping the table free of zero values."""
    prev = out.get(K)
    total = term if prev is None else prev + term
    if total.is_zero():
        out.pop(K, None)
    else:
        out[K] = total


class GradedElement:
    """Shared container for multivectors and forms.

    coeffs maps strictly increasing index tuples (0-based, length =
    degree) to nonzero Poly coefficients.
    """

    kind = "graded"
    __slots__ = ("rank", "n", "degree", "coeffs")

    def __init__(self, rank: int, n: int, degree: int, coeffs=None):
        self.rank = rank
        self.n = n
        self.degree = degree
        clean = {}
        for k, v in (coeffs or {}).items():
            k = tuple(k)
            if len(k) != degree or list(k) != sorted(set(k)) or (k and not (0 <= k[0] and k[-1] < rank)):
                raise StructureError(f"bad index tuple {k} for degree {degree}, rank {rank}")
            if not v.is_zero():
                clean[k] = v
        self.coeffs = clean

    @classmethod
    def _raw(cls, rank: int, n: int, degree: int, coeffs: dict):
        """Unchecked constructor for internal results: coeffs must
        already be canonical (valid index tuples, nonzero Poly values)."""
        out = object.__new__(cls)
        out.rank = rank
        out.n = n
        out.degree = degree
        out.coeffs = coeffs
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int, n: int, degree: int):
        return cls._raw(rank, n, degree, {})

    @classmethod
    def basis(cls, rank: int, n: int, indices):
        return cls(rank, n, len(tuple(indices)), {tuple(indices): Poly.const(n, 1)})

    @classmethod
    def from_vector(cls, rank: int, n: int, coeffs):
        if len(coeffs) > rank:
            raise StructureError(f"bad index tuple {(rank,)} for degree 1, rank {rank}")
        out = {}
        for i, c in enumerate(coeffs):
            if not c.is_zero():
                out[(i,)] = c
        return cls._raw(rank, n, 1, out)

    @classmethod
    def scalar(cls, rank: int, n: int, f: Poly):
        return cls(rank, n, 0, {(): f})

    # -- accessors ----------------------------------------------------

    def coeff(self, indices) -> Poly:
        return self.coeffs.get(tuple(indices), Poly.zero(self.n))

    def vector(self) -> list:
        if self.degree != 1:
            raise StructureError("vector() needs degree 1")
        return [self.coeff((i,)) for i in range(self.rank)]

    def scalar_value(self) -> Poly:
        if self.degree != 0:
            raise StructureError("scalar_value() needs degree 0")
        return self.coeff(())

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other) or self.rank != other.rank or self.degree != other.degree:
            raise StructureError("incompatible graded elements")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            _accumulate(out, k, v)
        return self._raw(self.rank, self.n, self.degree, out)

    def __neg__(self):
        return self._raw(self.rank, self.n, self.degree, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        if not isinstance(f, Poly):
            f = Poly.const(self.n, f)
        if f.is_zero():
            return self.zero(self.rank, self.n, self.degree)
        # the coefficient ring has no zero divisors, so no product vanishes
        return self._raw(self.rank, self.n, self.degree, {k: f * v for k, v in self.coeffs.items()})

    def wedge(self, other):
        self._check_compatible_kind(other)
        deg = self.degree + other.degree
        if deg > self.rank:
            return self.zero(self.rank, self.n, deg)
        pairs = {}
        for I, f in self.coeffs.items():
            for J, g in other.coeffs.items():
                K, sign = _merge_sign(I, J)
                if K is not None:
                    pairs.setdefault(K, []).append((f if sign > 0 else -f, g))
        return self._raw(self.rank, self.n, deg, _sum_each(self.n, pairs))

    def _check_compatible_kind(self, other):
        if type(self) is not type(other) or self.rank != other.rank:
            raise StructureError("wedge requires the same kind and rank")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.rank == other.rank
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def key(self) -> tuple:
        """A hashable value that is equal exactly for equal elements:
        kind, shape and the coefficients sorted by index tuple."""
        items = tuple(sorted((J, c.key()) for J, c in self.coeffs.items()))
        return (self.kind, self.rank, self.n, self.degree, items)

    def render(self, names=None, frame: str = "e") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            body = self.coeffs[k].render(names)
            label = "" if not k else frame + "[" + ",".join(str(i + 1) for i in k) + "]"
            parts.append(f"({body})" + (f" {label}" if label else ""))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(deg={self.degree}, {self.render()})"


class MultiVector(GradedElement):
    kind = "multivector"
    __slots__ = ()

    def render(self, names=None, frame: str = "e") -> str:
        return super().render(names, frame)


class Form(GradedElement):
    kind = "form"
    __slots__ = ()

    def render(self, names=None, frame: str = "eps") -> str:
        return super().render(names, frame)


def wedge_all(rank: int, n: int, factors, cls=MultiVector) -> GradedElement:
    out = cls.scalar(rank, n, Poly.const(n, 1))
    for f in factors:
        out = out.wedge(f)
    return out


def combine(terms) -> GradedElement:
    """sum_t f_t * G_t over (Poly, GradedElement) terms of one kind and
    shape, the first term fixing both.  Each coefficient is one
    `sum_products`, so no intermediate element is built."""
    terms = list(terms)
    first = terms[0][1]
    pairs = {}
    for f, G in terms:
        first._check_compatible(G)
        for K, c in G.coeffs.items():
            pairs.setdefault(K, []).append((f, c))
    return first._raw(first.rank, first.n, first.degree, _sum_each(first.n, pairs))


def pair(omega: Form, D: MultiVector) -> Poly:
    """Full contraction with the determinant convention: dual frame
    wedges pair to the identity on increasing index tuples."""
    if not isinstance(omega, Form) or not isinstance(D, MultiVector):
        raise StructureError("pair() needs a Form and a MultiVector")
    if omega.degree != D.degree or omega.rank != D.rank:
        raise StructureError("pair() needs equal degrees and ranks")
    coeffs = D.coeffs
    return sum_products(omega.n, [(f, coeffs[k]) for k, f in omega.coeffs.items() if k in coeffs])


def eval_form(omega: Form, sections) -> Poly:
    """omega(X_1, ..., X_k) for degree-1 multivector arguments."""
    D = wedge_all(omega.rank, omega.n, sections, MultiVector)
    return pair(omega, D)


def poly_mat_det(matrix) -> Poly:
    """Determinant of a square Poly matrix by cofactor expansion."""
    r = len(matrix)
    if r == 0:
        raise StructureError("empty matrix")
    n = matrix[0][0].n
    if r == 1:
        return matrix[0][0]
    pairs = []
    for j, a in enumerate(matrix[0]):
        if not a.is_zero():
            minor = [[row[c] for c in range(r) if c != j] for row in matrix[1:]]
            pairs.append((a if j % 2 == 0 else -a, poly_mat_det(minor)))
    return sum_products(n, pairs)


def poly_mat_mul(a, b):
    n = a[0][0].n
    cols = list(zip(*b))
    return [[sum_products(n, zip(row, col)) for col in cols] for row in a]


def poly_mat_adjugate(matrix):
    """Cofactor adjugate of a square Poly matrix: adj(M) . M = det(M) . I."""
    r = len(matrix)
    n = matrix[0][0].n
    if r == 1:
        return [[Poly.const(n, 1)]]
    adj = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = [[matrix[a][b] for b in range(r) if b != j] for a in range(r) if a != i]
            cof = poly_mat_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def poly_mat_inverse(matrix):
    """Inverse of a Poly matrix whose determinant is a nonzero rational
    constant (adjugate over determinant, entries stay polynomial)."""
    det = poly_mat_det(matrix)
    if not det.is_constant() or det.is_zero():
        raise StructureError("determinant is not a nonzero rational constant")
    inv_det = Fraction(1) / det.constant_value()
    return [[x * inv_det for x in row] for row in poly_mat_adjugate(matrix)]


class EndoMap:
    """Function-linear bundle map in frame representation: an r x r
    matrix of Poly acting on degree-1 coefficients.  kind records which
    frame it acts on ("multivector" for A -> A, "form" for the dual)."""

    __slots__ = ("rank", "n", "matrix", "kind")

    def __init__(self, matrix, kind: str = "multivector"):
        self.rank = len(matrix)
        rows = []
        for row in matrix:
            if len(row) != self.rank:
                raise StructureError("endomorphism matrix is not square")
            rows.append(tuple(row))
        self.matrix = tuple(rows)
        self.n = self.matrix[0][0].n if self.rank else None
        self.kind = kind

    @classmethod
    def identity(cls, rank: int, n: int, kind: str = "multivector") -> "EndoMap":
        return cls(
            [[Poly.const(n, 1 if i == j else 0) for j in range(rank)] for i in range(rank)],
            kind=kind,
        )

    @classmethod
    def zero(cls, rank: int, n: int, kind: str = "multivector") -> "EndoMap":
        return cls([[Poly.zero(n)] * rank for _ in range(rank)], kind=kind)

    def _mat_apply(self, coeffs):
        return [sum_products(self.n, zip(row, coeffs)) for row in self.matrix]

    def apply(self, v: GradedElement) -> GradedElement:
        if v.degree != 1 or v.kind != self.kind:
            raise StructureError("endomorphism applied to a mismatched element")
        cls = type(v)
        return cls.from_vector(self.rank, self.n, self._mat_apply(v.vector()))

    def transpose(self) -> "EndoMap":
        flipped = "form" if self.kind == "multivector" else "multivector"
        return EndoMap(
            [[self.matrix[j][i] for j in range(self.rank)] for i in range(self.rank)],
            kind=flipped,
        )

    def compose(self, other: "EndoMap") -> "EndoMap":
        if other.kind != self.kind:
            raise StructureError("composition of mixed-kind endomorphisms")
        return EndoMap(poly_mat_mul(self.matrix, other.matrix), kind=self.kind)

    def power(self, p: int) -> "EndoMap":
        out = EndoMap.identity(self.rank, self.n, self.kind)
        for _ in range(p):
            out = self.compose(out)
        return out

    def __add__(self, other: "EndoMap") -> "EndoMap":
        return EndoMap(
            [
                [self.matrix[i][j] + other.matrix[i][j] for j in range(self.rank)]
                for i in range(self.rank)
            ],
            kind=self.kind,
        )

    def __sub__(self, other: "EndoMap") -> "EndoMap":
        return EndoMap(
            [
                [self.matrix[i][j] - other.matrix[i][j] for j in range(self.rank)]
                for i in range(self.rank)
            ],
            kind=self.kind,
        )

    def scale(self, c) -> "EndoMap":
        return EndoMap(
            [[self.matrix[i][j] * c for j in range(self.rank)] for i in range(self.rank)],
            kind=self.kind,
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.matrix for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoMap):
            return NotImplemented
        return self.kind == other.kind and self.matrix == other.matrix

    __hash__ = None

    def render(self, names=None) -> str:
        rows = ["[" + ", ".join(x.render(names) for x in row) + "]" for row in self.matrix]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"EndoMap(kind={self.kind}, {self.render()})"


class SectionTwist:
    """phi*-function-linear invertible map on sections: the coefficient
    vector (f_j) goes to (sum_j P_ij * phi*(f_j))_i.

    Invertibility requires det(P) to be a nonzero rational constant, so
    the inverse matrix stays polynomial.  Each value derived from the
    twist is built once and kept on it.
    """

    __slots__ = (
        "rank", "n", "matrix", "base", "kind", "det", "_minors", "_matrix_inv", "_inverse", "_dual", "_basis_images",
    )

    def __init__(self, matrix, base: AffineTwist, kind: str = "multivector"):
        self.rank = len(matrix)
        self.base = base
        self.n = base.n
        rows = []
        for row in matrix:
            if len(row) != self.rank:
                raise StructureError("twist matrix is not square")
            rows.append(
                tuple(x if isinstance(x, Poly) else Poly.const(self.n, x) for x in row)
            )
        self.matrix = tuple(rows)
        self.kind = kind
        self.det = poly_mat_det(self.matrix) if self.rank else Poly.const(self.n, 1)
        self._minors = {}
        self._matrix_inv = None
        self._inverse = None
        self._dual = None
        self._basis_images = {}

    @classmethod
    def identity(cls, rank: int, base: AffineTwist, kind: str = "multivector") -> "SectionTwist":
        n = base.n
        return cls(
            [[Poly.const(n, 1 if i == j else 0) for j in range(rank)] for i in range(rank)],
            base,
            kind,
        )

    def is_invertible(self) -> bool:
        return self.det.is_constant() and not self.det.is_zero()

    def _require_invertible(self):
        if not self.is_invertible():
            raise StructureError(
                f"twist determinant {self.det.render()} is not a nonzero rational constant"
            )

    def matrix_inverse(self) -> tuple:
        """P^-1 as a tuple of rows, computed once."""
        if self._matrix_inv is None:
            self._require_invertible()
            self._matrix_inv = tuple(map(tuple, poly_mat_inverse(self.matrix)))
        return self._matrix_inv

    def apply_graded(self, T: GradedElement) -> GradedElement:
        """Wedge extension to any degree via minors of the matrix."""
        if T.kind != self.kind:
            raise StructureError(f"{self.kind} twist applied to a {T.kind}")
        k = T.degree
        cls = type(T)
        if k == 0:
            return cls.scalar(self.rank, self.n, self.base.pullback(T.scalar_value()))
        pairs = {}
        for J, v in T.coeffs.items():
            pv = self.base.pullback(v)
            for I, d in self._minor_column(J):
                pairs.setdefault(I, []).append((d, pv))
        return cls._raw(self.rank, self.n, k, _sum_each(self.n, pairs))

    def _minor_column(self, J: tuple):
        """The nonzero minors det(P[I, J]) over row tuples I, computed on
        first use: column J of the k-th compound matrix."""
        col = self._minors.get(J)
        if col is None:
            col = []
            for I in combinations(range(self.rank), len(J)):
                d = poly_mat_det([[self.matrix[a][b] for b in J] for a in I])
                if not d.is_zero():
                    col.append((I, d))
            self._minors[J] = col
        return col

    def basis_image(self, J: tuple) -> GradedElement:
        """The image of the basis element e_J (eps^J for a form twist),
        computed once."""
        got = self._basis_images.get(J)
        if got is None:
            cls = MultiVector if self.kind == "multivector" else Form
            got = self._basis_images[J] = self.apply_graded(cls.basis(self.rank, self.n, J))
        return got

    def apply_endo(self, N: EndoMap) -> EndoMap:
        """Induced action on (1,1)-tensors: P . phi*(N) . P^{-1}."""
        if N.kind != self.kind:
            raise StructureError("endomorphism kind does not match the twist")
        pulled = [[self.base.pullback(x) for x in row] for row in N.matrix]
        conj = poly_mat_mul(poly_mat_mul(self.matrix, pulled), self.matrix_inverse())
        return EndoMap(conj, kind=self.kind)

    def inverse(self) -> "SectionTwist":
        """The inverse twist, built once; its inverse is this twist."""
        if self._inverse is None:
            inv = self.matrix_inverse()
            mat = [
                [self.base.inverse_pullback(inv[i][j]) for j in range(self.rank)]
                for i in range(self.rank)
            ]
            self._inverse = SectionTwist(mat, self.base.inverse(), self.kind)
            self._inverse._inverse = self
        return self._inverse

    def dual(self) -> "SectionTwist":
        """The twist on the dual frame defined by
        <dual(xi), X> = phi*<xi, inverse(X)>, built once; its
        dual is this twist."""
        if self._dual is None:
            inv = self.matrix_inverse()
            mat = [[inv[j][i] for j in range(self.rank)] for i in range(self.rank)]
            flipped = "form" if self.kind == "multivector" else "multivector"
            self._dual = SectionTwist(mat, self.base, flipped)
            self._dual._dual = self
            self._dual._matrix_inv = tuple(zip(*self.matrix))
        return self._dual

    def __eq__(self, other) -> bool:
        if not isinstance(other, SectionTwist):
            return NotImplemented
        return self.kind == other.kind and self.matrix == other.matrix and self.base == other.base

    __hash__ = None

    def __repr__(self) -> str:
        rows = ["[" + ", ".join(x.render() for x in row) + "]" for row in self.matrix]
        return f"SectionTwist(kind={self.kind}, [" + "; ".join(rows) + "])"


def dual_section_twist(Phi: SectionTwist) -> SectionTwist:
    """The dual of a section twist, carried as a twist on sections: the
    twist of a dual-side algebroid, whose sections are the coframe.  Its
    inverse matrix, the transpose of Phi's, is handed over."""
    dagger = Phi.dual()
    out = SectionTwist(dagger.matrix, Phi.base)
    out._matrix_inv = dagger.matrix_inverse()
    return out


def twist_tensor(T, Phi: SectionTwist):
    """Apply the twist to contravariant data and its dual to covariant
    data; on functions this is the pullback."""
    if Phi.kind != "multivector":
        raise StructureError("twist_tensor expects the twist on the section side")
    if isinstance(T, Poly):
        return Phi.base.pullback(T)
    if isinstance(T, MultiVector):
        return Phi.apply_graded(T)
    if isinstance(T, Form):
        return Phi.dual().apply_graded(T)
    if isinstance(T, EndoMap):
        if T.kind == "multivector":
            return Phi.apply_endo(T)
        return Phi.dual().apply_endo(T)
    raise StructureError(f"cannot twist {type(T).__name__}")


def twist_invariance(label: str, T, Phi: SectionTwist) -> CheckResult:
    """The residual twist_tensor(T) - T must vanish; a witness shows T
    under `label`."""
    return first_nonzero("twist-invariance", [({label: T}, twist_tensor(T, Phi) - T)])


def require_invariant(label: str, T, Phi: SectionTwist, reason: str) -> None:
    """Refuse a T that twist_invariance rejects: a PreconditionError
    whose message is the reason, a space and the residual."""
    inv = twist_invariance(label, T, Phi)
    if not inv.passed:
        raise PreconditionError(f"{reason} {inv.witness.residual}", inv.witness)


def reinterpret(x: GradedElement, cls) -> GradedElement:
    """Reuse a coefficient table under the other kind tag (the bridge
    used when a dual algebroid treats covectors as its own sections)."""
    return cls._raw(x.rank, x.n, x.degree, dict(x.coeffs))
