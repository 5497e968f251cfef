"""Labelled probe families shared by every identity checker.

Each checker evaluates an exact residual on the probes built here and
reports the first nonzero one with its label, so the families, their
labels and their order fix the witnesses.

Why the probes suffice.  Every residual checked in this package is
first order in each section, covector or form slot: scaling a slot by a
function f changes the residual by phi*(f) times its old value plus
terms linear in the anchor derivatives rho(X)(f) (a twisted Leibniz
rule).  Those derivative terms are phi-derivations in f, and a
phi-derivation of a polynomial ring is fixed by its values on the
coordinates x_j.  So a residual that vanishes on the frame elements
e_i (eps^I) and on x_j*e_i (x_j*eps^I) vanishes on every section, and
each checker's default probe degree is at least 1.  Higher-degree
monomials add redundant cross-checks.  The Courant square axiom
u o u = D<u, u> is quadratic in u, so its probes add the sums E_a + E_b
and E_a + x*E_b, which reach the polarised cross terms.
"""

from __future__ import annotations

from itertools import combinations

from .exterior import Form
from .polyring import Poly, monomials


def nonconstant_monomials(n: int, degree: int) -> list[Poly]:
    """The monomials of total degree 1..degree in graded-lex order."""
    return monomials(n, degree)[1:]


def _scaled(frame: list, symbol: str, n: int, degree: int) -> list:
    """Frame probes `<symbol>i`, then `(f)*<symbol>i` monomial-major."""
    probes = [(f"{symbol}{i + 1}", b) for i, b in enumerate(frame)]
    for f in nonconstant_monomials(n, degree):
        probes += [(f"({f.render()})*{symbol}{i + 1}", b.scale(f)) for i, b in enumerate(frame)]
    return probes


def sections(A, degree: int) -> list:
    """Frame sections e_i, then the monomial-scaled (f)*e_i."""
    return _scaled([A.frame(i) for i in range(A.rank)], "e", A.n, degree)


def coframes(A, degree: int) -> list:
    """Coframe covectors eps_i, then the monomial-scaled (f)*eps_i."""
    return _scaled([A.coframe(i) for i in range(A.rank)], "eps", A.n, degree)


def forms(A, degree: int) -> list:
    """Basis forms eps[I] of every degree up to the rank, each followed
    by its monomial-scaled versions (f)*eps[I]."""
    funcs = nonconstant_monomials(A.n, degree)
    probes = []
    for k in range(A.rank + 1):
        for I in combinations(range(A.rank), k):
            base = Form.basis(A.rank, A.n, I)
            label = "eps[" + ",".join(str(i + 1) for i in I) + "]"
            probes.append((label, base))
            probes += [(f"({f.render()})*{label}", base.scale(f)) for f in funcs]
    return probes


def double_sections(E, degree: int, mixed: bool = False) -> list:
    """Frame sections E_a of the double, the monomial-scaled (f)*E_a,
    and with `mixed` the sums E_a+E_b and E_a+(f)*E_b for the first
    nonconstant monomial f."""
    frames = E.frame_sections()
    probes = _scaled(frames, "E", E.n, degree)
    if mixed:
        funcs = nonconstant_monomials(E.n, degree)
        for a in range(2 * E.r):
            for b in range(a + 1, 2 * E.r):
                probes.append((f"E{a + 1}+E{b + 1}", frames[a] + frames[b]))
                if funcs:
                    f = funcs[0]
                    probes.append(
                        (f"E{a + 1}+({f.render()})*E{b + 1}", frames[a] + frames[b].scale(f))
                    )
    return probes
