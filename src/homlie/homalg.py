"""Hom-Lie algebroid structures over a fixed global frame: axiom
checking, the conjugation calculus on pullback vector fields, and the
canonical instance constructors (pullback tangent bundle and its
trivial-line extension).
"""

from __future__ import annotations

from . import probes
from .exterior import Form, GradedElement, MultiVector, SectionTwist, _sum_each, combine
from .polyring import AffineTwist, DimensionMismatch, Poly, _poly, _table_sum, monomials, sum_products
from .report import CheckResult, StructureError, until_first_failure

# Pairwise-scaled probes grow quadratically, so they use a reduced
# degree bound; single-scaled probes use the full requested degree.
PAIRWISE_PROBE_DEGREE = 2


class PullbackVectorField:
    """Twisted derivation of the coefficient ring, a section of the
    pullback tangent bundle along phi.  With coefficients c it acts by

        X(f) = sum_i c_i * phi*(df/dx_i).

    For phi(p) = M p + b the chain rule gives
    phi*(df/dx_i) = sum_k (M^-1)_{ki} d(phi*f)/dx_k, hence

        X(f) = X~(phi*f),   X~ = M^-1 c,

    where X~ is the ordinary vector field `flat`, computed once per
    field.  The field keeps a table from a monomial key m to
    X(x^m) = X~(phi*x^m), each entry filled on its first use, and applies
    itself to f as the sum of f's scaled entries, as the base map does
    for its pullback (`polyring._table_sum`).  Fields are immutable; `+`,
    `-` and `scale` return fresh fields with empty tables."""

    __slots__ = ("phi", "coeffs", "_flat", "_table")

    def __init__(self, phi: AffineTwist, coeffs):
        self.phi = phi
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != phi.n:
            raise StructureError("coefficient count must match the base dimension")
        self._flat = None
        self._table = {}

    @classmethod
    def coordinate(cls, phi: AffineTwist, i: int) -> "PullbackVectorField":
        return cls(phi, [Poly.const(phi.n, 1 if j == i else 0) for j in range(phi.n)])

    @classmethod
    def zero(cls, phi: AffineTwist) -> "PullbackVectorField":
        return cls(phi, [Poly.zero(phi.n)] * phi.n)

    @property
    def flat(self) -> tuple:
        """The coefficients of the ordinary vector field X~ = M^-1 c."""
        if self._flat is None:
            n, inv = self.phi.n, self.phi.matrix_inv
            self._flat = tuple(
                sum_products(n, [(c, Poly.const(n, m)) for c, m in zip(self.coeffs, inv[k]) if m])
                for k in range(n)
            )
        return self._flat

    def apply(self, f: Poly) -> Poly:
        if f.n != self.phi.n:
            raise DimensionMismatch("polynomial and base map dimensions differ")
        return _table_sum(f, self._table, self._image)

    def _image(self, k: int) -> tuple:
        """The table entry of the monomial of key k: X~(phi*x^k)."""
        image = derive(self.flat, self.phi.pullback(_poly(self.phi.n, {k: 1}, 1)))
        return image.num, image.den

    def __add__(self, other: "PullbackVectorField") -> "PullbackVectorField":
        _same_base(self.phi, other)
        return PullbackVectorField(self.phi, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PullbackVectorField") -> "PullbackVectorField":
        _same_base(self.phi, other)
        return PullbackVectorField(self.phi, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, f) -> "PullbackVectorField":
        return PullbackVectorField(self.phi, [c * f for c in self.coeffs])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PullbackVectorField):
            return NotImplemented
        return self.phi == other.phi and self.coeffs == other.coeffs

    __hash__ = None

    def render(self, names=None) -> str:
        return "(" + ", ".join(c.render(names) for c in self.coeffs) + ")"

    def __repr__(self) -> str:
        return f"PullbackVectorField{self.render()}"


def derive(flat, g: Poly, partials=None) -> Poly:
    """sum_k flat_k * dg/dx_k: the ordinary vector field with
    coefficients `flat` applied to g.  A dict `partials` keeps the
    partials of g for later calls on the same g."""
    pairs = []
    for k, c in enumerate(flat):
        if c.is_zero():
            continue
        if partials is None:
            dg = g.partial(k)
        else:
            dg = partials.get(k)
            if dg is None:
                dg = partials[k] = g.partial(k)
        pairs.append((c, dg))
    return sum_products(g.n, pairs)


def _same_base(phi: AffineTwist, *fields) -> None:
    for X in fields:
        if X.phi is not phi and X.phi != phi:
            raise StructureError("pullback vector fields over different base maps")


def ad_twist(phi: AffineTwist, X: PullbackVectorField) -> PullbackVectorField:
    """Conjugation pullback . X . inverse-pullback.  Its k-th
    coefficient is the operator applied to x_k, and X(g) = X~(phi*g)
    with phi*phi^-1* x_k = x_k, so it is phi*(X~(x_k)) = phi*(X~_k):
    one pullback per coordinate."""
    _same_base(phi, X)
    return PullbackVectorField(phi, [phi.pullback(c) for c in X.flat])


def bracket_phistar(phi: AffineTwist, X: PullbackVectorField, Y: PullbackVectorField) -> PullbackVectorField:
    """The twisted commutator (phi* X phi^-1* Y - phi* Y phi^-1* X)
    phi^-1* on pullback vector fields; antisymmetric by construction.

    Since X = X~ phi* and Y = Y~ phi*, it sends f to
    phi*(X~(Y~ f) - Y~(X~ f)) = phi*(Z f), where Z = [X~, Y~] is the
    ordinary commutator of the flat fields.  So its coefficients are
    phi*(Z_l) = phi*(X~(Y~_l) - Y~(X~_l)), one sum of products and one
    pullback each."""
    _same_base(phi, X, Y)
    n = phi.n
    fx, fy = X.flat, Y.flat
    coeffs = []
    for l in range(n):
        pairs = [(a, fy[l].partial(k)) for k, a in enumerate(fx) if not a.is_zero()]
        pairs += [(-b, fx[l].partial(k)) for k, b in enumerate(fy) if not b.is_zero()]
        coeffs.append(phi.pullback(sum_products(n, pairs)))
    return PullbackVectorField(phi, coeffs)


class HomAlgebroid:
    """A candidate Hom-Lie algebroid: base map, section twist, anchor
    matrix and antisymmetric structure functions on a rank-r frame.

    The type admits invalid candidates on purpose; check_axioms decides
    whether the data actually satisfies the axioms.

    The anchor is an n x rank matrix of Poly.  The structure is given as
    functions {(i, j, k): C_ij^k} or as frame brackets {(i, j): [e_i, e_j]},
    each a degree-1 multivector or form or a list of Poly; every derived
    algebroid is built from the latter.
    """

    def __init__(self, phi: AffineTwist, phiA: SectionTwist, anchor, structure):
        self.phi = phi
        self.phiA = phiA
        self.n = phi.n
        self.rank = phiA.rank
        if phiA.kind != "multivector":
            raise StructureError("section twist must act on the section side")
        self.anchor = tuple(tuple(row) for row in anchor)
        if len(self.anchor) != self.n or any(len(row) != self.rank for row in self.anchor):
            raise StructureError("anchor matrix must be n x rank")
        # nonzero anchor entries by frame index: anchor_columns[j] lists
        # (i, anchor[i][j]), the coefficients of the vector field rho(e_j)
        self.anchor_columns = tuple(
            tuple((i, self.anchor[i][j]) for i in range(self.n) if not self.anchor[i][j].is_zero())
            for j in range(self.rank)
        )
        self.structure = self._normalize_structure(structure)
        self._anchor_phiA_frame = None
        self.is_zero_structure = not self.structure and not any(self.anchor_columns)
        # the calculus.CartanContext of this object, set on its first call
        self._context = None

    def _normalize_structure(self, structure) -> dict:
        table = {}
        if structure:
            for key, value in structure.items():
                if len(key) == 2:
                    i, j = key
                    vec = value.vector() if isinstance(value, GradedElement) else list(value)
                    for k, c in enumerate(vec):
                        self._store_entry(table, i, j, k, c)
                else:
                    i, j, k = key
                    self._store_entry(table, i, j, k, value)
        return {key: c for key, c in table.items() if not c.is_zero()}

    def _store_entry(self, table, i, j, k, c):
        if not (0 <= i < self.rank and 0 <= j < self.rank and 0 <= k < self.rank):
            raise StructureError(f"structure index ({i},{j},{k}) out of range")
        if i == j:
            if not c.is_zero():
                raise StructureError(f"structure constant C[{i},{i}] must vanish")
            return
        if i > j:
            i, j, c = j, i, -c
        prev = table.get((i, j, k))
        if prev is not None and not (prev - c).is_zero():
            raise StructureError(f"structure table is not antisymmetric at ({i},{j},{k})")
        table[(i, j, k)] = c

    # -- frame helpers -------------------------------------------------

    def frame(self, i: int) -> MultiVector:
        return MultiVector.basis(self.rank, self.n, (i,))

    def coframe(self, i: int) -> Form:
        return Form.basis(self.rank, self.n, (i,))

    def phiA_frame(self, i: int) -> MultiVector:
        return self.phiA.basis_image((i,))

    def anchor_field(self, X: MultiVector) -> PullbackVectorField:
        if X.degree != 1:
            raise StructureError("anchor_field needs a degree-1 section")
        pairs = [[] for _ in range(self.n)]
        for (j,), c in X.coeffs.items():
            for i, a in self.anchor_columns[j]:
                pairs[i].append((a, c))
        return PullbackVectorField(self.phi, [sum_products(self.n, p) for p in pairs])

    def anchor_after_twist(self, i: int) -> PullbackVectorField:
        """The field rho(phiA(e_i)), built once."""
        if self._anchor_phiA_frame is None:
            self._anchor_phiA_frame = [
                self.anchor_field(self.phiA_frame(k)) for k in range(self.rank)
            ]
        return self._anchor_phiA_frame[i]

    # -- the bracket ---------------------------------------------------

    def bracket(self, X: MultiVector, Y: MultiVector) -> MultiVector:
        """Extension of the frame bracket by the twisted Leibniz rule in
        each slot; antisymmetric:

            [f e_i, g e_j] = phi*(f) phi*(g) [e_i, e_j]
                             + phi*(f) rho(phiA e_i)(g) phiA(e_j)
                             - phi*(g) rho(phiA e_j)(f) phiA(e_i).

        Each coefficient is pulled back once, and rho(phiA e_i)(g) is
        read from the monomial table of the field rho(phiA e_i) (see
        PullbackVectorField).  The products are collected per output
        index and each coefficient is summed once."""
        pb = self.phi.pullback
        xs = [(i, f, pb(f)) for (i,), f in X.coeffs.items()]
        ys = [(j, g, pb(g)) for (j,), g in Y.coeffs.items()]
        pairs = {}
        for i, f, pf in xs:
            for j, g, pg in ys:
                if i != j:
                    lo, hi = min(i, j), max(i, j)
                    fg = None
                    for k in range(self.rank):
                        c = self.structure.get((lo, hi, k))
                        if c is not None:
                            if fg is None:
                                fg = pf * pg if i < j else -(pf * pg)
                            pairs.setdefault((k,), []).append((c, fg))
                df = self.anchor_after_twist(i).apply(g)
                if not df.is_zero():
                    w = pf * df
                    for K, a in self.phiA_frame(j).coeffs.items():
                        pairs.setdefault(K, []).append((a, w))
                dg = self.anchor_after_twist(j).apply(f)
                if not dg.is_zero():
                    w = -(pg * dg)
                    for K, a in self.phiA_frame(i).coeffs.items():
                        pairs.setdefault(K, []).append((a, w))
        out = _sum_each(self.n, dict(sorted(pairs.items())))
        return MultiVector._raw(self.rank, self.n, 1, out)

    def __repr__(self) -> str:
        return f"HomAlgebroid(n={self.n}, rank={self.rank})"


def by_label(fn, sections=()):
    """The lookup (label, section) -> fn(section), which calls fn once
    per label: at once for the labelled `sections`, and for any other
    label on its first lookup.  A label names one section."""
    seen = {label: fn(section) for label, section in sections}

    def get(label, section):
        got = seen.get(label)
        if got is None:
            got = seen[label] = fn(section)
        return got

    return get


# The identities that a Hom-Lie algebroid and the Courant double share,
# over their `twist` and `product` on sections and `anchor` to pullback
# vector fields; `twisted` is a `by_label` lookup of the twist, and
# `pulled` holds (f, phi*f, partials of phi*f) per probe function f.


def twist_homomorphism_cases(keys, pairs, twist, twisted, product):
    """twist(X . Y) - twist(X) . twist(Y) on each labelled pair."""
    kx, ky = keys
    for (lx, X), (ly, Y) in pairs:
        yield {kx: lx, ky: ly}, twist(product(X, Y)) - product(twisted(lx, X), twisted(ly, Y))


def anchor_twist_cases(phi: AffineTwist, key, sections, twisted, anchor, pulled):
    """rho(twist X) against phi* rho(X) phi^-1* on each probe function.
    Both sides are pullback vector fields, the right one the conjugate
    ad_twist(phi, rho(X)): so one difference of flat fields per probe,
    and no pullback per f."""
    for label, X in sections:
        conj = ad_twist(phi, anchor(X))
        diff = (anchor(twisted(label, X)) - conj).flat
        for f, pf, dpf in pulled:
            yield {key: label, "f": f}, derive(diff, pf, dpf)


def anchor_product_cases(phi: AffineTwist, keys, pairs, product, anchor, pulled):
    """rho(X . Y) against the twisted commutator of rho(X) and rho(Y) on
    each probe function.  Both sides are pullback vector fields: so one
    difference of flat fields per pair, and no pullback per f.  The
    anchor field of each probe is built once."""
    kx, ky = keys
    field = by_label(anchor)
    for (lx, X), (ly, Y) in pairs:
        commutator = bracket_phistar(phi, field(lx, X), field(ly, Y))
        diff = (anchor(product(X, Y)) - commutator).flat
        for f, pf, dpf in pulled:
            yield {kx: lx, ky: ly, "f": f}, derive(diff, pf, dpf)


def check_axioms(A: HomAlgebroid, probe_degree: int = 3) -> CheckResult:
    """Verify every Hom-Lie algebroid axiom as an exact polynomial
    identity on frame sections and monomial-scaled frame sections.

    Returns a passing report or the first violated identity together
    with a concrete witness.
    """
    singles = probes.sections(A, probe_degree)
    frame, scaled = singles[: A.rank], singles[A.rank :]
    scaled_small = probes.sections(A, min(probe_degree, PAIRWISE_PROBE_DEGREE))[A.rank :]
    one = Poly.const(A.n, 1)
    # phi* of each probe function, pulled back once for every identity;
    # an anchor field applied to f is its flat field applied to phi*f,
    # so each also keeps the partials of phi*f
    pulled = [(f, A.phi.pullback(f), {}) for f in monomials(A.n, probe_degree)]
    # phiA of each probe section, once per label for every identity
    # (the pairwise-scaled probes are a prefix of the scaled ones)
    twisted = by_label(A.phiA.apply_graded, singles)
    pairs = (
        [(x, y) for x in frame for y in frame]
        + [(x, y) for x in frame for y in scaled]
        + [(x, y) for x in scaled for y in frame]
        + [(x, y) for x in scaled_small for y in scaled_small]
    )

    def linearity():
        # phiA(fX) from the images of the frame, against phi*f phiA(X)
        pb = A.phi.pullback
        for label, X in singles:
            for f, pf, _ in pulled:
                terms = [(pb(f * c), A.phiA_frame(j)) for (j,), c in X.coeffs.items()]
                terms.append((-pf, twisted(label, X)))
                yield {"X": label, "f": f}, combine(terms)

    def jacobi():
        triples = [(x, y, z) for x in frame for y in frame for z in frame]
        for pos in range(3):
            for probe in scaled:
                for a in frame:
                    for b in frame:
                        t = [a, b]
                        t.insert(pos, probe)
                        triples.append(tuple(t))
        # the cyclic sum does not change when (X, Y, Z) is rotated, so
        # each rotation class is summed once, when it is first met
        residuals = {}
        for (lx, X), (ly, Y), (lz, Z) in triples:
            total = residuals.get((lx, ly, lz))
            if total is None:
                total = (
                    A.bracket(twisted(lx, X), A.bracket(Y, Z))
                    + A.bracket(twisted(ly, Y), A.bracket(Z, X))
                    + A.bracket(twisted(lz, Z), A.bracket(X, Y))
                )
                for key in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
                    residuals[key] = total
            yield {"X": lx, "Y": ly, "Z": lz}, total

    def leibniz():
        # [X, fY] once per distinct section fY while X stays the same,
        # and the field rho(phiA X) once per label, applied to f through
        # its table; each residual
        # [X, fY] - phi*f [X, Y] - rho(phiA X)(f) phiA(Y) is one sum
        last_x, brackets = None, {}
        rho = by_label(A.anchor_field)

        def bracket_x(X, Z):
            key = Z.key()
            got = brackets.get(key)
            if got is None:
                got = brackets[key] = A.bracket(X, Z)
            return got

        for (lx, X), (ly, Y) in pairs:
            if X is not last_x:
                last_x, brackets = X, {}
            rho_x = rho(lx, twisted(lx, X))
            br = bracket_x(X, Y)
            for f, pf, _ in pulled:
                terms = [
                    (one, bracket_x(X, Y.scale(f))),
                    (-pf, br),
                    (-rho_x.apply(f), twisted(ly, Y)),
                ]
                yield {"X": lx, "Y": ly, "f": f}, combine(terms)

    return until_first_failure(
        "check_axioms",
        [
            ("phiA-function-linearity", linearity()),
            (
                "phiA-bracket-homomorphism",
                twist_homomorphism_cases(
                    ("X", "Y"), pairs, A.phiA.apply_graded, twisted, A.bracket
                ),
            ),
            ("hom-jacobi", jacobi()),
            ("leibniz-rule", leibniz()),
            (
                "anchor-twist-compatibility",
                anchor_twist_cases(A.phi, "X", singles, twisted, A.anchor_field, pulled),
            ),
            (
                "anchor-bracket-compatibility",
                anchor_product_cases(A.phi, ("X", "Y"), pairs, A.bracket, A.anchor_field, pulled),
            ),
        ],
    )


def make_pullback_tangent(phi: AffineTwist) -> HomAlgebroid:
    """The pullback tangent bundle as a Hom-Lie algebroid: identity
    anchor, conjugation twist, structure functions extracted from the
    twisted commutator on the coordinate frame."""
    n = phi.n
    coords = [PullbackVectorField.coordinate(phi, i) for i in range(n)]
    ad_cols = [ad_twist(phi, X) for X in coords]
    P = [[ad_cols[j].coeffs[i] for j in range(n)] for i in range(n)]
    phiA = SectionTwist(P, phi, "multivector")
    anchor = [[Poly.const(n, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    structure = {
        (i, j): bracket_phistar(phi, coords[i], coords[j]).coeffs
        for i in range(n)
        for j in range(i + 1, n)
    }
    return HomAlgebroid(phi, phiA, anchor, structure)


def make_tm_r(phi: AffineTwist) -> HomAlgebroid:
    """Tangent-plus-line extension: rank n+1 frame whose last element
    spans the trivial factor.  The twist acts by conjugation on the
    tangent block and by plain pullback on the line coefficient; the
    anchor kills the line."""
    n = phi.n
    tangent = make_pullback_tangent(phi)
    r = n + 1
    P = [[Poly.zero(n) for _ in range(r)] for _ in range(r)]
    for i in range(n):
        for j in range(n):
            P[i][j] = tangent.phiA.matrix[i][j]
    P[n][n] = Poly.const(n, 1)
    phiA = SectionTwist(P, phi, "multivector")
    anchor = [
        [Poly.const(n, 1 if i == j else 0) for j in range(n)] + [Poly.zero(n)]
        for i in range(n)
    ]
    # line-factor brackets: [e_i, u] has vanishing tangent part and the
    # derivation hits the constant coefficient 1, so everything is zero
    return HomAlgebroid(phi, phiA, anchor, dict(tangent.structure))
