"""The shared probe families: counts, labels, order, and the default
degree of every checker that draws on them."""

import inspect
from math import comb

import pytest

from homlie import probes
from homlie.calculus import check_differential_props
from homlie.courant import (
    BialgebroidPair,
    CourantDouble,
    check_bialgebroid,
    check_closed_bracket_formula,
    check_courant_axioms,
)
from homlie.dirac import is_integrable
from homlie.exterior import Form
from homlie.fixtures import algebroid_s0, algebroid_s1, algebroid_s2, algebroid_s3
from homlie.homalg import check_axioms
from homlie.nijenhuis import (
    bialgebroid_defect_checks,
    d_n_props,
    hierarchy,
    hpn_bialgebroid_equiv,
    is_hom_nijenhuis,
    is_hpn,
    lemma_checks,
)
from homlie.poisson import sharp_commutes
from homlie.polyring import monomials

BUILDERS = {"S0": algebroid_s0, "S1": algebroid_s1, "S2": algebroid_s2, "S3": algebroid_s3}

# last label of each family at degree 2: the top frame element scaled by
# the last monomial in graded-lex order (mixed sums end on E_{2r-1}+x*E_{2r})
LAST = {
    "S0": ("(x^2)*e1", "(x^2)*eps1", "(x^2)*eps[1]", "(x^2)*E2", "E1+(x)*E2"),
    "S1": ("(y^2)*e2", "(y^2)*eps2", "(y^2)*eps[1,2]", "(y^2)*E4", "E3+(x)*E4"),
    "S2": ("(y^2)*e3", "(y^2)*eps3", "(y^2)*eps[1,2,3]", "(y^2)*E6", "E5+(x)*E6"),
    "S3": ("(z^2)*e3", "(z^2)*eps3", "(z^2)*eps[1,2,3]", "(z^2)*E6", "E5+(x)*E6"),
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def inst(request):
    A = BUILDERS[request.param]()
    return request.param, A, CourantDouble(BialgebroidPair.trivial(A))


def n_monomials(n, d):
    """Monomials of total degree <= d in n variables, constant included."""
    return comb(n + d, d)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_counts(inst, d):
    _, A, E = inst
    m = n_monomials(A.n, d)
    assert len(probes.nonconstant_monomials(A.n, d)) == m - 1
    assert len(probes.sections(A, d)) == A.rank * m
    assert len(probes.coframes(A, d)) == A.rank * m
    assert len(probes.forms(A, d)) == 2**A.rank * m
    assert len(probes.double_sections(E, d)) == 2 * E.r * m
    pairs = comb(2 * E.r, 2)
    mixed = 2 * E.r * m + pairs * (2 if d else 1)
    assert len(probes.double_sections(E, d, mixed=True)) == mixed


def test_first_and_last_labels(inst):
    name, A, E = inst
    families = (
        probes.sections(A, 2),
        probes.coframes(A, 2),
        probes.forms(A, 2),
        probes.double_sections(E, 2),
        probes.double_sections(E, 2, mixed=True),
    )
    firsts = [fam[0][0] for fam in families]
    assert firsts == ["e1", "eps1", "eps[]", "E1", "E1"]
    assert tuple(fam[-1][0] for fam in families) == LAST[name]


@pytest.mark.parametrize(
    "family, symbol", [(probes.sections, "e"), (probes.coframes, "eps")], ids=["e", "eps"]
)
def test_frame_first_then_monomial_major(inst, family, symbol):
    _, A, _ = inst
    got = family(A, 2)
    r = A.rank
    frame = got[:r]
    assert [label for label, _ in frame] == [f"{symbol}{i + 1}" for i in range(r)]
    for k, f in enumerate(monomials(A.n, 2)[1:]):
        block = got[r * (k + 1) : r * (k + 2)]
        assert [label for label, _ in block] == [
            f"({f.render()})*{symbol}{i + 1}" for i in range(r)
        ]
        assert all(v == frame[i][1].scale(f) for i, (_, v) in enumerate(block))


def test_double_sections_frame_first(inst):
    _, _, E = inst
    got = probes.double_sections(E, 1)
    frames = E.frame_sections()
    assert [v for _, v in got[: 2 * E.r]] == frames
    assert [label for label, _ in got[: 2 * E.r]] == [f"E{a + 1}" for a in range(2 * E.r)]
    assert got[2 * E.r][0] == "(x)*E1"


def test_forms_each_basis_then_its_scalings(inst):
    _, A, _ = inst
    got = probes.forms(A, 1)
    step = 1 + A.n
    bases = got[::step]
    assert bases[0][1] == Form.basis(A.rank, A.n, ())
    assert [om.degree for _, om in bases] == sorted(om.degree for _, om in bases)
    for j, (label, om) in enumerate(bases):
        block = got[j * step + 1 : (j + 1) * step]
        assert [lb for lb, _ in block] == [
            f"({f.render()})*{label}" for f in monomials(A.n, 1)[1:]
        ]


CHECKERS = [
    check_axioms,
    check_differential_props,
    sharp_commutes,
    is_hom_nijenhuis,
    lemma_checks,
    d_n_props,
    is_hpn,
    hierarchy,
    hpn_bialgebroid_equiv,
    bialgebroid_defect_checks,
    check_bialgebroid,
    check_courant_axioms,
    check_closed_bracket_formula,
    is_integrable,
]


@pytest.mark.parametrize("fn", CHECKERS, ids=lambda fn: fn.__name__)
def test_default_degree_reaches_first_order(fn):
    # a first-order residual is fixed by its values on e_i and x_j*e_i
    default = inspect.signature(fn).parameters["probe_degree"].default
    assert isinstance(default, int) and default >= 1
