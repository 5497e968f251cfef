"""S0 to S3 and the standard frame bivector, built in code for the
benchmark workloads and the tests.  The instances `homlie check` runs
are the scenario files under scenarios/; s2_full.json and s3_full.json
hold S2 and S3.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import SectionTwist
from .homalg import HomAlgebroid, make_pullback_tangent, make_tm_r
from .poisson import Bivector
from .polyring import AffineTwist, Poly


def base_map_s1() -> AffineTwist:
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


def algebroid_s0() -> HomAlgebroid:
    phi = AffineTwist.identity(1)
    return HomAlgebroid(phi, SectionTwist.identity(1, phi), [[Poly.zero(1)]], {})


def algebroid_s1() -> HomAlgebroid:
    return make_pullback_tangent(base_map_s1())


def algebroid_s2() -> HomAlgebroid:
    return make_tm_r(base_map_s1())


def algebroid_s3() -> HomAlgebroid:
    return make_pullback_tangent(AffineTwist.identity(3))


def standard_pi(A: HomAlgebroid) -> Bivector:
    return Bivector(A.frame(0).wedge(A.frame(1)))

