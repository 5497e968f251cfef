"""The three workloads: how their inputs are made, how their instances
are built, and how their checks run.

The harness (run.py) makes the inputs without importing homlie; the
worker builds the instances and runs the checks in a fresh process.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import expected

WORKLOADS = ("scenarios_full", "courant_sweep", "dense_twist")
SCENARIO_NAMES = tuple(expected.SCENARIOS)
DENSE_PROBE_DEGREE = 3
# The seed relabels one dense map: it draws a signed permutation S of
# the coordinates (swap x and y, flip their signs), and the map becomes
# S * BASE * S^-1 with offset S * OFFSET.  These eight maps are
# isomorphic, so every instance does the same arithmetic on different
# inputs.  Free draws of bounded entries made one instance cost anywhere
# from 9.4 s to 15.7 s over eight seeds, which no run length here can
# average out.
DENSE_BASE = ((Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))
DENSE_OFFSET = (Fraction(1, 3), Fraction(1, 2))


# -- inputs (harness side; no homlie import) --------------------------------


def prepare_scenarios(root: Path, workdir: Path) -> list:
    """Copy each scenario with its task list set to ["full"] inside the
    JSON, so the expansion does not depend on how the CLI treats
    `--task full`."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in SCENARIO_NAMES:
        data = json.loads((root / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
        data["tasks"] = ["full"]
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def _signed_permutation(rng: random.Random):
    cols = [0, 1]
    rng.shuffle(cols)
    return [[rng.choice((1, -1)) if cols[i] == j else 0 for j in range(2)] for i in range(2)]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def draw_dense_twist(seed: int, index: int) -> dict:
    """A dense invertible 2x2 rational matrix and a nonzero offset.

    Every entry is nonzero, with numerators and denominators bounded by
    those of DENSE_BASE and DENSE_OFFSET.  A singular matrix would be
    drawn again; none occurs while det(DENSE_BASE) != 0.  The result
    holds strings, so it can be written into the run record and
    replayed.
    """
    rng = random.Random(f"dense_twist:{seed}:{index}")
    while True:
        s = _signed_permutation(rng)
        s_inv = [list(col) for col in zip(*s)]  # a signed permutation is orthogonal
        m = _matmul(_matmul(s, DENSE_BASE), s_inv)
        if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            break
    offset = [sum(s[i][k] * DENSE_OFFSET[k] for k in range(2)) for i in range(2)]
    return {
        "id": f"seed{seed}.{index}",
        "matrix": [[str(x) for x in row] for row in m],
        "offset": [str(x) for x in offset],
    }


def inputs(workload: str, root: Path, workdir: Path, seed: int, index: int) -> dict:
    """The inputs of pass `index`.  Only dense_twist uses the seed; the
    two fixed workloads ignore it."""
    if workload == "scenarios_full":
        return {"files": prepare_scenarios(root, workdir)}
    if workload == "courant_sweep":
        return {"pairs": list(expected.COURANT_PAIRS)}
    if workload == "dense_twist":
        return {"instances": [draw_dense_twist(seed, index)], "probe_degree": DENSE_PROBE_DEGREE}
    raise ValueError(f"unknown workload {workload!r}")


def parts(workload: str, inp: dict) -> list:
    if workload == "scenarios_full":
        return [Path(p).stem for p in inp["files"]]
    if workload == "courant_sweep":
        return list(inp["pairs"])
    return [inst["id"] for inst in inp["instances"]]


# -- instances and checks (worker side) -----------------------------------


def _courant_pairs(names):
    from homlie.calculus import CartanContext
    from homlie.courant import BialgebroidPair
    from homlie.fixtures import algebroid_s0, algebroid_s1, algebroid_s2, algebroid_s3, standard_pi
    from homlie.poisson import dual_algebroid

    def s1_from_pi():
        s1 = algebroid_s1()
        return BialgebroidPair(s1, dual_algebroid(CartanContext(s1), standard_pi(s1)))

    builders = {
        "S0-trivial": lambda: BialgebroidPair.trivial(algebroid_s0()),
        "S1-trivial": lambda: BialgebroidPair.trivial(algebroid_s1()),
        "S1-from-pi": s1_from_pi,
        "S2-trivial": lambda: BialgebroidPair.trivial(algebroid_s2()),
        "S3-trivial": lambda: BialgebroidPair.trivial(algebroid_s3()),
    }
    return [(name, builders[name]()) for name in names]


def build(workload: str, inp: dict):
    """Every instance the workload checks, from its prepared inputs."""
    if workload == "scenarios_full":
        from homlie.scenario import load_scenario

        return [(Path(p).stem, load_scenario(p)) for p in inp["files"]]
    if workload == "courant_sweep":
        from homlie.courant import double

        return [(name, P, double(P, verify=False)) for name, P in _courant_pairs(inp["pairs"])]
    from homlie.calculus import CartanContext
    from homlie.homalg import make_pullback_tangent
    from homlie.polyring import AffineTwist

    out = []
    for inst in inp["instances"]:
        phi = AffineTwist(
            [[Fraction(x) for x in row] for row in inst["matrix"]],
            [Fraction(x) for x in inst["offset"]],
        )
        A = make_pullback_tangent(phi)
        out.append((inst["id"], A, CartanContext(A)))
    return out


def _row(check_id, result):
    if result.passed:
        return (check_id, expected.PASS, None)
    ident = result.witness.identity if result.witness is not None else None
    return (check_id, expected.FAIL, ident)


def _guarded(check_id, fn):
    """Run one check; a check that raises gets the verdict "error"."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a raising check is a wrong verdict, not a crash
        return (check_id, "error", f"{type(exc).__name__}: {exc}")


def _jacobiator_sweep(E):
    """The cyclic-identity sweep of acceptance criterion 8: every frame
    triple, then function-scaled probes."""
    from homlie.courant import jacobiator
    from homlie.polyring import monomials

    frames = E.frame_sections()
    for i in range(len(frames)):
        for j in range(len(frames)):
            for k in range(len(frames)):
                jacobiator(E, frames[i], frames[j], frames[k])
    funcs = [f for f in monomials(E.n, 1) if not f.is_constant()]
    for f in funcs:
        for a in range(2 * E.r):
            u = frames[a].scale(f)
            for b, c in ((0, min(1, 2 * E.r - 1)), (2 * E.r - 1, 0)):
                jacobiator(E, u, frames[b], frames[c])
                jacobiator(E, frames[b], u, frames[c] + frames[b])


def _jacobiator_row(cid, E):
    from homlie.report import TheoremViolation

    try:
        _jacobiator_sweep(E)
    except TheoremViolation:
        return (cid, expected.FAIL, "jacobiator")
    return (cid, expected.PASS, None)


def check(workload: str, instances, probe_degree: int = DENSE_PROBE_DEGREE) -> list:
    """Run every check and return (check id, verdict, identity) rows in
    the order of the expected table."""
    rows = []
    if workload == "scenarios_full":
        from homlie.cli import run_scenario

        for name, scn in instances:
            try:
                report = run_scenario(scn)
            except Exception as exc:  # noqa: BLE001 - see _guarded
                rows.append((f"{name}/run_scenario", "error", f"{type(exc).__name__}: {exc}"))
                continue
            for entry in report["tasks"]:
                ident = entry["witness"]["identity"] if entry["verdict"] == "fail" else None
                if entry["verdict"] == "error":
                    ident = entry.get("error")
                rows.append((f"{name}/{entry['task']}", entry["verdict"], ident))
        return rows
    if workload == "courant_sweep":
        from homlie.courant import check_bialgebroid, check_courant_axioms

        for name, P, E in instances:
            cid = f"{name}/check_bialgebroid"
            rows.append(_guarded(cid, lambda: _row(cid, check_bialgebroid(P, probe_degree=2))))
            cid = f"{name}/check_courant_axioms"
            rows.append(_guarded(cid, lambda: _row(cid, check_courant_axioms(E, probe_degree=2))))
            cid = f"{name}/jacobiator"
            rows.append(_guarded(cid, lambda: _jacobiator_row(cid, E)))
        return rows
    from homlie.calculus import check_differential_props
    from homlie.homalg import check_axioms

    for name, A, ctx in instances:
        cid = f"{name}/check_axioms"
        rows.append(_guarded(cid, lambda: _row(cid, check_axioms(A, probe_degree))))
        cid = f"{name}/check_differential_props"
        rows.append(_guarded(cid, lambda: _row(cid, check_differential_props(ctx, probe_degree))))
    return rows
