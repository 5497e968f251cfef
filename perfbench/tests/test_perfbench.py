"""Self-tests of the benchmark.  They run the workloads on reduced
inputs (lower probe degrees, fewer pairs) so the whole file takes about
a minute:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import expected  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402

# per-layer metric -> the workload that must use it
HIT_ON = {
    "scenarios_full": [
        "poisson.self_s",
        "nijenhuis.self_s",
        "dirac.self_s",
        "scenario.load_s",
        "calculus.schouten.calls",
    ],
    "courant_sweep": [
        "exterior.self_s",
        "exterior.graded_init.calls",
        "exterior.mat_det.calls",
        "exterior.twist_apply.calls",
        "homalg.self_s",
        "homalg.anchor_field.calls",
        "calculus.self_s",
        "calculus.differential.calls",
        "courant.self_s",
        "courant.gram_inverse.calls",
        "courant.script_D.calls",
        "courant.jacobiator.calls",
        "kernels.mul.empty_operand",
    ],
    "dense_twist": [
        "kernels.self_s",
        "kernels.calls",
        "kernels.terms_out",
        "kernels.max_terms",
        "kernels.mul.calls",
        "kernels.substitute.calls",
        "polyring.self_s",
        "polyring.ops",
        "polyring.pullback.calls",
    ],
}


def _reduced_inputs(workload, tmp_path):
    if workload == "scenarios_full":
        paths = workloads.prepare_scenarios(ROOT, tmp_path)
        for p in paths:
            data = json.loads(Path(p).read_text())
            data["probe_degree"] = 1
            data["hierarchy_depth"] = 1
            Path(p).write_text(json.dumps(data))
        return {"files": paths}
    if workload == "courant_sweep":
        return {"pairs": ["S0-trivial", "S1-from-pi"]}
    return {"instances": [workloads.draw_dense_twist(1, 0)], "probe_degree": 1}


@pytest.fixture(scope="module", params=list(HIT_ON))
def passes(request, tmp_path_factory):
    """An untraced and a traced pass of one workload on the same inputs."""
    workload = request.param
    inp = _reduced_inputs(workload, tmp_path_factory.mktemp(workload))
    plain = worker.run({"workload": workload, "mode": "verdict", "inputs": inp})
    traced = worker.run({"workload": workload, "mode": "trace", "inputs": inp})
    return workload, inp, plain, traced


def test_verdicts_match_table_and_trace_changes_none(passes):
    workload, inp, plain, traced = passes
    exp = expected.expected(workload, workloads.parts(workload, inp))
    assert expected.wrong(exp, plain["rows"]) == []
    assert traced["rows"] == plain["rows"]


def test_each_wrapper_is_hit(passes):
    workload, _, _, traced = passes
    layers = traced["layers"]
    missing = [name for name in HIT_ON[workload] if not layers[name] > 0]
    assert missing == []


def test_self_times_sum_to_root_span(passes):
    _, _, _, traced = passes
    summary = traced["trace"]
    total = sum(summary["self_s"].values())
    assert total == pytest.approx(summary["root_s"], rel=1e-9, abs=1e-9)
    assert set(summary["self_s"]) == set(LAYERS)


def test_uninstall_restores_every_binding():
    import homlie.courant as courant
    import homlie.kernels as kernels
    import homlie.polyring as polyring

    before = (kernels.poly_mul, courant.differential, courant._mat_inverse, polyring.Poly.__add__)
    tracer = Tracer().install()
    try:
        during = (kernels.poly_mul, courant.differential, courant._mat_inverse, polyring.Poly.__add__)
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    after = (kernels.poly_mul, courant.differential, courant._mat_inverse, polyring.Poly.__add__)
    assert all(a is b for a, b in zip(before, after))


def test_table_catches_a_changed_verdict():
    exp = expected.expected("scenarios_full", ["s1_bad_pi"])
    flipped = [tuple(r) for r in exp]
    check_id, _, _ = flipped[2]
    flipped[2] = (check_id, expected.PASS, None)
    assert len(expected.wrong(exp, flipped)) == 1
    assert len(expected.wrong(exp, flipped[:-1])) == 2
    assert sum(1 for _, verdict, _ in exp if verdict == expected.FAIL) == 7


def test_dense_twist_generator_is_seeded_bounded_and_invertible():
    from fractions import Fraction

    assert workloads.draw_dense_twist(7, 1) == workloads.draw_dense_twist(7, 1)
    assert workloads.draw_dense_twist(7, 1) != workloads.draw_dense_twist(8, 1)
    for seed in range(50):
        inst = workloads.draw_dense_twist(seed, 0)
        m = [[Fraction(x) for x in row] for row in inst["matrix"]]
        entries = [x for row in m for x in row] + [Fraction(x) for x in inst["offset"]]
        assert all(x != 0 for x in entries)
        assert all(abs(x.numerator) <= 3 and x.denominator <= 3 for x in entries)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0


def test_compare_refuses_differing_backends():
    def rec(backend, value):
        return {"workload": "dense_twist", "trace": 0, "env": {"backend": backend}, "metrics": {"verdict_s": value}}

    rows = compare.compare([rec("python", 2.0)], [rec("python", 1.0)])
    assert rows == [("verdict_s", 2.0, 1.0, 0.5)]
    with pytest.raises(ValueError):
        compare.compare([rec("python", 2.0)], [rec("compiled", 1.0)])


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_twist", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
