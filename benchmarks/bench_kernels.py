"""Benchmark the term-map kernels: compiled extension vs pure Python.

Times the three operations that dominate every identity sweep
(polynomial product, merge-add, affine substitution), a warm
AffineTwist.pullback (the path verdicts take: monomial images are
looked up in the twist's table, so the substitution kernel runs only
while the table fills), and one end-to-end axiom check.  Run from the
repository root:

    python3 benchmarks/bench_kernels.py
"""

import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homlie import _kernels_py  # noqa: E402

try:
    from homlie import _kernels_cy
except ImportError:
    _kernels_cy = None


def dense_terms(n, degree, scale=1):
    from itertools import product

    out = {}
    count = 0
    for exps in product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            count += 1
            out[exps] = Fraction(scale * (count % 7 - 3), (count % 4) + 1)
    return {k: v for k, v in out.items() if v}


def bench(impl, repeats=2000):
    a = dense_terms(3, 4)
    b = dense_terms(3, 3, scale=2)
    start = time.perf_counter()
    for _ in range(repeats):
        impl.poly_mul(a, b)
    t_mul = time.perf_counter() - start

    big = impl.poly_mul(a, b)
    start = time.perf_counter()
    for _ in range(repeats):
        impl.poly_add(big, a)
    t_add = time.perf_counter() - start

    # powers of the affine images of a 3-variable map, precomputed the
    # way the pullback cache does
    images = [
        {tuple(1 if j == k else 0 for k in range(3)): Fraction(2 if j == i else 1, 1 + j) for j in range(3)}
        for i in range(3)
    ]
    powers = []
    for img in images:
        col = [{(0, 0, 0): Fraction(1)}, img]
        for _ in range(6):
            col.append(impl.poly_mul(col[-1], img))
        powers.append(col)
    start = time.perf_counter()
    for _ in range(repeats):
        impl.poly_substitute(a, powers, 3)
    t_sub = time.perf_counter() - start
    return t_mul, t_add, t_sub


def bench_pullback(repeats=2000):
    from homlie.polyring import AffineTwist, Poly

    phi = AffineTwist([[2, 1, 0], [1, 1, 1], [0, 1, 3]], [1, 0, Fraction(1, 2)])
    f = Poly(3, dense_terms(3, 4))
    phi.pullback(f)  # fill the monomial table once
    start = time.perf_counter()
    for _ in range(repeats):
        phi.pullback(f)
    return time.perf_counter() - start


def bench_axioms():
    from homlie.homalg import check_axioms, make_pullback_tangent
    from homlie.polyring import AffineTwist

    A = make_pullback_tangent(AffineTwist([[2, 1], [0, Fraction(1, 2)]]))
    start = time.perf_counter()
    assert check_axioms(A).passed
    return time.perf_counter() - start


def main():
    rows = [("python", _kernels_py)]
    if _kernels_cy is not None:
        rows.append(("compiled", _kernels_cy))
    else:
        print("compiled extension not built; showing pure Python only")
    print(f"{'backend':<10} {'poly_mul':>10} {'poly_add':>10} {'substitute':>12}")
    results = {}
    for name, impl in rows:
        t_mul, t_add, t_sub = bench(impl)
        results[name] = (t_mul, t_add, t_sub)
        print(f"{name:<10} {t_mul:>9.3f}s {t_add:>9.3f}s {t_sub:>11.3f}s")
    if len(results) == 2:
        py, cy = results["python"], results["compiled"]
        speedups = ", ".join(f"{p / c:.2f}x" for p, c in zip(py, cy))
        print(f"speedup (python/compiled): {speedups}")
    from homlie.kernels import BACKEND

    print(f"\nwarm AffineTwist.pullback (selected backend: {BACKEND}): {bench_pullback():.3f}s")
    print(f"end-to-end axiom check (selected backend: {BACKEND}): {bench_axioms():.3f}s")


if __name__ == "__main__":
    main()
