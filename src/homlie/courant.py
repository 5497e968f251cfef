"""Bialgebroid pairs and their double: the twisted product on the sum
bundle, the symmetric pairing with its metric-dual derivative, the
antisymmetrized bracket, and the full axiom verifier.

Hand-built instances with an explicit product table on the frame are
accepted through the same container; only tests build them, pending
ROADMAP item 6.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import probes
from .calculus import (
    CartanContext,
    cached_call,
    differential,
    interior,
    lie_derivative_form,
    schouten,
)
from .exterior import Form, MultiVector, dual_section_twist, reinterpret
from .exterior import pair as duality
from .homalg import (
    HomAlgebroid,
    PullbackVectorField,
    anchor_product_cases,
    anchor_twist_cases,
    by_label,
    derive,
    twist_homomorphism_cases,
)
from .poisson import Bivector, dual_algebroid
from .polyring import Poly, _mat_inverse, monomials, sum_products
from .report import (
    CheckResult,
    PreconditionError,
    StructureError,
    TheoremViolation,
    Witness,
    first_failure,
    first_nonzero,
    require,
    until_first_failure,
)


class BialgebroidPair:
    """Two algebroids in duality: same base map, mutually dagger twists,
    frames identified as dual bases."""

    def __init__(self, A, Astar):
        if A.rank != Astar.rank or A.n != Astar.n:
            raise StructureError("paired algebroids must share rank and base dimension")
        if A.phi != Astar.phi:
            raise StructureError("paired algebroids must share the base map")
        self.A = A
        self.Astar = Astar
        self.ctx = CartanContext(A)
        self.dual_ctx = CartanContext(Astar)
        if Astar.phiA.matrix != self.ctx.dagger.matrix:
            raise StructureError("dual twist must be the dagger of the primal twist")

    @classmethod
    def trivial(cls, A) -> "BialgebroidPair":
        """Dual side carries the zero bracket and zero anchor."""
        twist = dual_section_twist(A.phiA)
        anchor = [[Poly.zero(A.n)] * A.rank for _ in range(A.n)]
        return cls(A, HomAlgebroid(A.phi, twist, anchor, {}))

    @classmethod
    def from_pi(cls, ctx: CartanContext, pi: Bivector) -> "BialgebroidPair":
        """The algebroid of ctx paired with the dual algebroid that the
        bivector pi carries; refuses a non-Poisson pi."""
        return cls(ctx.algebroid, dual_algebroid(ctx, pi))

    # -- dual-side calculus on primal data ------------------------------

    def dual_differential(self, D: MultiVector) -> MultiVector:
        """Differential of the dual algebroid acting on multivectors of
        the primal side."""
        out = differential(self.dual_ctx, reinterpret(D, Form))
        return reinterpret(out, MultiVector)

    def dual_schouten(self, xi: Form, eta: Form) -> Form:
        out = schouten(
            self.dual_ctx, reinterpret(xi, MultiVector), reinterpret(eta, MultiVector)
        )
        return reinterpret(out, Form)

    def dual_bracket(self, xi: Form, eta: Form) -> Form:
        out = self.Astar.bracket(
            reinterpret(xi, MultiVector), reinterpret(eta, MultiVector)
        )
        return reinterpret(out, Form)

    def dual_lie_on_section(self, xi: Form, Y: MultiVector) -> MultiVector:
        out = lie_derivative_form(
            self.dual_ctx, reinterpret(xi, MultiVector), reinterpret(Y, Form)
        )
        return reinterpret(out, MultiVector)

    def dual_interior(self, eta: Form, D: MultiVector) -> MultiVector:
        out = interior(self.dual_ctx, reinterpret(eta, MultiVector), reinterpret(D, Form))
        return reinterpret(out, MultiVector)


def check_bialgebroid(P: BialgebroidPair, probe_degree: int = 2) -> CheckResult:
    """The dual differential is a twisted derivation of the primal
    bracket, and symmetrically with the roles exchanged; computed once
    per pair of algebroids and probe degree."""
    key = ("check_bialgebroid", P.Astar, probe_degree)
    return P.ctx.once(key, lambda: _bialgebroid_verdict(P, probe_degree))


def _bialgebroid_verdict(P: BialgebroidPair, probe_degree: int) -> CheckResult:
    A, ctx = P.A, P.ctx
    sections = probes.sections(A, probe_degree)
    # (dual d X, phi_A X) once per probe section, (d xi, dagger xi) once
    # per probe covector, each on its first lookup
    section = by_label(lambda X: (P.dual_differential(X), A.phiA.apply_graded(X)))
    covector = by_label(lambda xi: (differential(ctx, xi), ctx.dagger.apply_graded(xi)))

    def direction_primal():
        for lx, X in sections:
            for ly, Y in sections:
                lhs = P.dual_differential(A.bracket(X, Y))
                (dX, tX), (dY, tY) = section(lx, X), section(ly, Y)
                rhs = schouten(ctx, dX, tY) + schouten(ctx, tX, dY)
                yield {"X": lx, "Y": ly}, lhs - rhs

    def direction_dual():
        co = probes.coframes(A, probe_degree)
        for lx, xi in co:
            for ly, eta in co:
                lhs = differential(ctx, P.dual_bracket(xi, eta))
                (d_xi, t_xi), (d_eta, t_eta) = covector(lx, xi), covector(ly, eta)
                rhs = P.dual_schouten(d_xi, t_eta) + P.dual_schouten(t_xi, d_eta)
                yield {"xi": lx, "eta": ly}, lhs - rhs

    results = [
        first_nonzero("dual-derivation-of-bracket", direction_primal()),
        first_nonzero("primal-derivation-of-dual-bracket", direction_dual()),
    ]
    return first_failure("check_bialgebroid", results)


class ESection:
    """Section of the doubled bundle A + A*: a section X of A and a
    covector xi, held as degree-1 elements of one rank.  The constructor
    takes the 2r coefficients, primal block first."""

    __slots__ = ("X", "xi")

    def __init__(self, coeffs, n=None):
        coeffs = [c if isinstance(c, Poly) else Poly.const(n, c) for c in coeffs]
        if len(coeffs) % 2:
            raise StructureError("doubled sections need an even coefficient count")
        r = len(coeffs) // 2
        n = coeffs[0].n if coeffs else n
        self.X = MultiVector.from_vector(r, n, coeffs[:r])
        self.xi = Form.from_vector(r, n, coeffs[r:])

    @classmethod
    def of(cls, X: MultiVector, xi: Form) -> "ESection":
        """The section (X, xi) of a degree-1 multivector and form of one
        rank."""
        out = object.__new__(cls)
        out.X = X
        out.xi = xi
        return out

    @property
    def coeffs(self) -> tuple:
        """The 2r coefficients, primal block first."""
        return tuple(self.X.vector() + self.xi.vector())

    def __add__(self, other):
        return ESection.of(self.X + other.X, self.xi + other.xi)

    def __sub__(self, other):
        return ESection.of(self.X - other.X, self.xi - other.xi)

    def __neg__(self):
        return ESection.of(-self.X, -self.xi)

    def scale(self, f):
        return ESection.of(self.X.scale(f), self.xi.scale(f))

    def is_zero(self):
        return self.X.is_zero() and self.xi.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ESection):
            return NotImplemented
        return self.X == other.X and self.xi == other.xi

    __hash__ = None

    def key(self) -> tuple:
        """A hashable value that is equal exactly for equal sections."""
        return (self.X.key(), self.xi.key())

    def render(self, names=None):
        return "(" + ", ".join(c.render(names) for c in self.coeffs) + ")"

    def __repr__(self):
        return f"ESection{self.render()}"


class CourantDouble:
    """The rank-2r doubled structure on A + A*, built on the two
    algebroids of the pair: its twist is phiA on A and the dual twist on
    A*, and its anchor is the sum of the two anchors.  The product comes
    either from the bialgebroid formula or from an explicit frame table
    {(a, b): ESection} extended by the function-multiplication rules;
    only tests build a double from a table, pending ROADMAP item 6."""

    def __init__(self, pair: BialgebroidPair, product_table=None):
        self.pair = pair
        self.r = pair.A.rank
        self.n = pair.A.n
        self.phi = pair.A.phi
        self.product_table = None
        if product_table is not None:
            for a, b in product_table:
                if not (0 <= a < 2 * self.r and 0 <= b < 2 * self.r):
                    raise StructureError(f"product table index ({a},{b}) out of range")
            self.product_table = dict(product_table)
        self._frames = [self.frame_section(a) for a in range(2 * self.r)]
        self._rho_frames = None
        self._gram_inverse = None

    # -- structure maps -------------------------------------------------

    def frame_section(self, a: int) -> ESection:
        coeffs = [Poly.zero(self.n)] * (2 * self.r)
        coeffs[a] = Poly.const(self.n, 1)
        return ESection(coeffs, self.n)

    def frame_sections(self):
        return list(self._frames)

    def rho_frame(self, a: int) -> PullbackVectorField:
        """The anchor field of the a-th frame section, computed once."""
        if self._rho_frames is None:
            self._rho_frames = [self.rho_field(u) for u in self._frames]
        return self._rho_frames[a]

    def rho_twisted_frame(self, a: int) -> PullbackVectorField:
        """The anchor field rho(phiE E_a).  phiE keeps E_a in its block,
        so this is the field rho(phiA e_a) that the block's algebroid
        keeps."""
        if a < self.r:
            return self.pair.A.anchor_after_twist(a)
        return self.pair.Astar.anchor_after_twist(a - self.r)

    def gram_inverse(self):
        """Inverse of the constant Gram matrix of the pairing on the
        frame, computed once."""
        if self._gram_inverse is None:
            frames = self._frames
            gram = [
                [self.pairing(frames[a], frames[b]).constant_value() for b in range(2 * self.r)]
                for a in range(2 * self.r)
            ]
            self._gram_inverse = _mat_inverse(gram)
        return self._gram_inverse

    def phiE(self, u: ESection) -> ESection:
        """The twist of the double: phiA on the primal part and its dual
        on the covector."""
        P = self.pair
        return ESection.of(P.A.phiA.apply_graded(u.X), P.ctx.dagger.apply_graded(u.xi))

    def pairing(self, u: ESection, v: ESection) -> Poly:
        """Half the sum of the two cross pairings <xi, Y> + <eta, X>."""
        X, Y = u.X.coeffs, v.X.coeffs
        cross = [(c, Y[K]) for K, c in u.xi.coeffs.items() if K in Y]
        cross += [(c, X[K]) for K, c in v.xi.coeffs.items() if K in X]
        return sum_products(self.n, cross) * Fraction(1, 2)

    def rho_field(self, u: ESection) -> PullbackVectorField:
        return self.pair.A.anchor_field(u.X) + self.pair.Astar.anchor_field(
            reinterpret(u.xi, MultiVector)
        )

    # -- the product ------------------------------------------------------

    def product(self, u: ESection, v: ESection) -> ESection:
        """The product u o v, cached inside an operator_cache() scope."""
        return cached_call(CourantDouble._product, self, u, v)

    def _product(self, u: ESection, v: ESection) -> ESection:
        if self.product_table is not None:
            return self._product_from_table(u, v)
        return self._product_from_formula(u, v)

    def _product_from_formula(self, u, v):
        P = self.pair
        ctx = P.ctx
        X, xi = u.X, u.xi
        Y, eta = v.X, v.xi
        a_part = P.A.bracket(X, Y)
        a_part = a_part + P.dual_lie_on_section(xi, Y)
        d_star_X = P.dual_differential(ctx.phiA_inv.apply_graded(X))
        a_part = a_part - P.dual_interior(eta, d_star_X)
        b_part = P.dual_bracket(xi, eta)
        b_part = b_part + lie_derivative_form(ctx, X, eta)
        d_xi = differential(ctx, ctx.dagger_inv.apply_graded(xi))
        b_part = b_part - interior(ctx, Y, d_xi)
        return ESection.of(a_part, b_part)

    def _product_from_table(self, u, v):
        out = ESection([Poly.zero(self.n)] * (2 * self.r), self.n)
        frames = self._frames
        twisted = [self.phiE(e) for e in frames]
        pb = self.phi.pullback
        fs, gs = u.coeffs, v.coeffs
        for a, f in enumerate(fs):
            if f.is_zero():
                continue
            for b, g in enumerate(gs):
                if g.is_zero():
                    continue
                base = self.product_table.get((a, b))
                if base is None:
                    base = ESection([Poly.zero(self.n)] * (2 * self.r), self.n)
                inner = base.scale(pb(g)) + twisted[b].scale(
                    self.rho_twisted_frame(a).apply(g)
                )
                term = inner.scale(pb(f))
                term = term - twisted[a].scale(
                    pb(g) * self.rho_twisted_frame(b).apply(f)
                )
                pairing_ab = self.pairing(frames[a], frames[b])
                # the gradient term carries a factor 2 against the
                # half-normalized pairing
                term = term + self.script_D(f).scale(pb(g * pairing_ab) * 2)
                out = out + term
        return out

    def bracket(self, u: ESection, v: ESection) -> ESection:
        half = Fraction(1, 2)
        diff = self.product(u, v) - self.product(v, u)
        return diff.scale(half)

    def script_D(self, f: Poly) -> ESection:
        """Metric dual of half the anchor action, found by solving the
        pairing system against the frame."""
        inv = self.gram_inverse()
        half = Fraction(1, 2)
        rhs = [self.rho_frame(b).apply(f) * half for b in range(2 * self.r)]
        n = self.n
        coeffs = [
            sum_products(n, [(g, Poly.const(n, m)) for g, m in zip(rhs, row) if m])
            for row in inv
        ]
        return ESection(coeffs, n)


def double(P: BialgebroidPair, verify: bool = True) -> CourantDouble:
    """Double a compatible pair; refuses pairs that fail the
    compatibility identity (checked at probe degree 2) when
    verification is on."""
    if verify:
        require(check_bialgebroid(P, 2), "pair is not a bialgebroid")
    return CourantDouble(P)


def check_closed_bracket_formula(E: CourantDouble, probe_degree: int = 1) -> CheckResult:
    """The antisymmetrized product agrees with the closed bracket
    formula on probe sections (doubles only)."""
    if E.product_table is not None:
        raise PreconditionError("closed formula applies to doubles built from a pair")
    P = E.pair
    ctx = P.ctx
    half = Fraction(1, 2)
    sections = probes.double_sections(E, probe_degree)

    def cases():
        for lu, u in sections:
            for lv, v in sections:
                X, xi = u.X, u.xi
                Y, eta = v.X, v.xi
                cross = duality(eta, X) - duality(xi, Y)
                a_part = (
                    P.A.bracket(X, Y)
                    + P.dual_lie_on_section(xi, Y)
                    - P.dual_lie_on_section(eta, X)
                    + P.dual_differential(MultiVector.scalar(E.r, E.n, cross)).scale(half)
                )
                b_part = (
                    P.dual_bracket(xi, eta)
                    + lie_derivative_form(ctx, X, eta)
                    - lie_derivative_form(ctx, Y, xi)
                    - differential(ctx, cross).scale(half)
                )
                yield {"u": lu, "v": lv}, E.bracket(u, v) - ESection.of(a_part, b_part)

    return first_nonzero("closed-bracket-formula", cases())


def check_courant_axioms(E: CourantDouble, probe_degree: int = 2) -> CheckResult:
    """All six axioms plus the two function-multiplication rules, on
    frame sections, scaled frames and mixed sums.  Axioms (i)-(iii) are
    the algebroid identities of `check_axioms`, written once in homalg."""
    mixed_probes = probes.double_sections(E, min(probe_degree, 1), mixed=True)
    pair_probes = probes.double_sections(E, min(probe_degree, 1))
    pairs = [(x, y) for x in pair_probes for y in pair_probes]
    pb = E.phi.pullback
    pulled = [(f, pb(f), {}) for f in monomials(E.n, probe_degree)]
    phiE = by_label(E.phiE)

    def axiom_i_b():
        frames = probes.double_sections(E, 0)
        funcs1 = probes.nonconstant_monomials(E.n, 1)
        triples = [(x, y, z) for x in frames for y in frames for z in frames]
        for pos in range(3):
            for f in funcs1:
                for la, ua in frames:
                    for lb, ub in frames:
                        base = [(la, ua), (lb, ub)]
                        probe = (f"({f.render()})*{base[0][0]}", base[0][1].scale(f))
                        t = [base[0], base[1]]
                        t.insert(pos, probe)
                        triples.append(tuple(t))
        # the product of each pair of probes, keyed by their labels
        prod = by_label(lambda uv: E.product(*uv))

        for (l1, e1), (l2, e2), (l3, e3) in triples:
            lhs = E.product(phiE(l1, e1), prod((l2, l3), (e2, e3)))
            rhs = E.product(prod((l1, l2), (e1, e2)), phiE(l3, e3)) + E.product(
                phiE(l2, e2), prod((l1, l3), (e1, e3))
            )
            yield {"e1": l1, "e2": l2, "e3": l3}, lhs - rhs

    def axiom_iv():
        for lu, u in mixed_probes:
            yield {"u": lu}, E.product(u, u) - E.script_D(E.pairing(u, u))

    def axiom_v():
        for lu, u in mixed_probes:
            for lv, v in mixed_probes:
                res = E.pairing(phiE(lu, u), phiE(lv, v)) - pb(E.pairing(u, v))
                yield {"u": lu, "v": lv}, res

    def axiom_vi():
        # <e1, e2> does not depend on e, so it is pulled back once per
        # (e1, e2), with the partials that each rho(phiE e) applies
        pulled_pairings = [
            [(pb(E.pairing(e1, e2)), {}) for _, e2 in pair_probes] for _, e1 in pair_probes
        ]
        for le, e in pair_probes:
            rho_flat = E.rho_field(phiE(le, e)).flat
            products = [(l1, e1, E.product(e, e1)) for l1, e1 in pair_probes]
            for (l1, e1, prod_e1), row in zip(products, pulled_pairings):
                for (l2, e2, prod_e2), (pg, partials) in zip(products, row):
                    lhs = derive(rho_flat, pg, partials)
                    rhs = E.pairing(prod_e1, phiE(l2, e2)) + E.pairing(phiE(l1, e1), prod_e2)
                    yield {"e": le, "e1": l1, "e2": l2}, lhs - rhs

    def function_rules():
        frames = probes.double_sections(E, 0)
        scalars = probes.nonconstant_monomials(E.n, probe_degree)
        # keyed by the index of f and of the frames: phi*f and D f once
        # per f, rho(phiE E_a)(f) once per (a, f), and phi*<E_a, E_b>
        # once per (a, b), each on its first lookup
        pulled_f = by_label(pb)
        gradient = by_label(E.script_D)
        derivative = by_label(lambda af: E.rho_twisted_frame(af[0]).apply(af[1]))
        pulled_pairing = by_label(lambda uv: pb(E.pairing(*uv)) * 2)
        for a, (la, u) in enumerate(frames):
            for b, (lb, v) in enumerate(frames):
                base = E.product(u, v)
                for i, f in enumerate(scalars):
                    left = E.product(u, v.scale(f))
                    right1 = base.scale(pulled_f(i, f)) + phiE(lb, v).scale(
                        derivative((a, i), (a, f))
                    )
                    slots = {"u": la, "v": lb, "f": f}
                    yield {"rule": "right-slot", **slots}, left - right1
                    left2 = E.product(u.scale(f), v)
                    right2 = (
                        base.scale(pulled_f(i, f))
                        - phiE(la, u).scale(derivative((b, i), (b, f)))
                        + gradient(i, f).scale(pulled_pairing((a, b), (u, v)))
                    )
                    yield {"rule": "left-slot", **slots}, left2 - right2

    return until_first_failure(
        "check_courant_axioms",
        [
            (
                "product-twist-homomorphism",
                twist_homomorphism_cases(("u", "v"), pairs, E.phiE, phiE, E.product),
            ),
            ("product-hom-leibniz", axiom_i_b()),
            (
                "anchor-twist-conjugation",
                anchor_twist_cases(E.phi, "u", pair_probes, phiE, E.rho_field, pulled),
            ),
            (
                "anchor-product-compatibility",
                anchor_product_cases(E.phi, ("u", "v"), pairs, E.product, E.rho_field, pulled),
            ),
            ("square-is-metric-gradient", axiom_iv()),
            ("pairing-twist-compatibility", axiom_v()),
            ("pairing-derivation", axiom_vi()),
            ("function-multiplication-rules", function_rules()),
        ],
    )


def jacobiator(E: CourantDouble, e1: ESection, e2: ESection, e3: ESection):
    """Cyclic bracket sum and the pairing defect; the sum must equal the
    metric gradient of the defect."""
    cyc = [(e1, e2, e3), (e2, e3, e1), (e3, e1, e2)]
    total = ESection([Poly.zero(E.n)] * (2 * E.r), E.n)
    T = Poly.zero(E.n)
    third = Poly.const(E.n, Fraction(1, 3))
    for a, b, c in cyc:
        inner = E.bracket(a, b)
        twisted = E.phiE(c)
        total = total + E.bracket(inner, twisted)
        T = T + E.pairing(inner, twisted)
    T = third * T
    res = total - E.script_D(T)
    if not res.is_zero():
        raise TheoremViolation(
            "cyclic bracket sum does not match the metric gradient: " + res.render()
        )
    return total, T


def check_jacobiator(E: CourantDouble) -> CheckResult:
    """`jacobiator` on every ordered triple of frame sections; the first
    triple that breaks it is the witness."""
    frames = E.frame_sections()
    for i, j, k in product(range(len(frames)), repeat=3):
        try:
            jacobiator(E, frames[i], frames[j], frames[k])
        except TheoremViolation as exc:
            triple = f"(E{i + 1},E{j + 1},E{k + 1})"
            witness = Witness("jacobiator", {"triple": triple}, str(exc))
            return CheckResult("jacobiator", False, witness)
    return CheckResult("jacobiator", True)
