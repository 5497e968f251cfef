"""Command-line entry point: run verification tasks from a scenario
file, or list the built-in fixture catalog.

Exit status: 0 when every task passes, 1 when any identity fails (or a
task errors, or the reader closes stdout early), 2 on malformed input.
Output is deterministic; wall times are only included behind --timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import product

from .calculus import CartanContext, check_differential_props, operator_cache
from .courant import (
    BialgebroidPair,
    check_courant_axioms,
    double,
    jacobiator,
)
from .dirac import Subbundle, dirac_checks, graph, graph_theorem_check, maurer_cartan_defect
from .exterior import EndoMap
from .fixtures import fixture_tags, list_fixtures
from .homalg import check_axioms
from .kernels import ExponentOverflow
from .nijenhuis import (
    bialgebroid_defect_checks,
    d_n_props,
    hierarchy,
    hpn_bialgebroid_equiv,
    is_hom_nijenhuis,
    is_hpn,
    lemma_checks,
)
from .poisson import (
    check_bialgebroid_pair,
    dual_algebroid,
    is_hom_poisson,
    pi_pi_cases,
    sharp_commutes,
)
from .courant import check_bialgebroid
from .report import CheckResult, PreconditionError, TheoremViolation, Witness, first_nonzero
from .scenario import Scenario, ScenarioError, check_probe_degree, load_scenario


def _ctx(scn: Scenario) -> CartanContext:
    return CartanContext(scn.algebroid)


def _pair(scn: Scenario) -> BialgebroidPair:
    key = "pair"
    if key not in scn.cache:
        spec = scn.dual_spec
        if spec == "trivial":
            pair = BialgebroidPair.trivial(scn.algebroid)
        elif spec == "from_pi":
            pair = BialgebroidPair(scn.algebroid, dual_algebroid(_ctx(scn), scn.pi))
        else:
            pair = BialgebroidPair(scn.algebroid, spec)
        scn.cache[key] = pair
    return scn.cache[key]


def _double(scn: Scenario):
    if "double" not in scn.cache:
        scn.cache["double"] = double(_pair(scn), verify=False)
    return scn.cache["double"]


# task name -> function of the scenario, in the order "full" runs them
TASKS = {}

# the key a refusal asks for when a needed attribute is unset; either
# Dirac attribute the dirac key leaves unset falls back to pi's sharp map
_KEYS = {"pi": "a pi", "endo": "an N", "dirac": "a pi", "dirac_graph": "a pi"}


def _task(name: str, *needs: str):
    """Register the decorated function as the task `name`, which reads
    the Scenario attributes `needs` (kept as the function's `needs`
    attribute).  "full" expands to the tasks whose needs are all set,
    and run_scenario refuses any other task before calling it."""

    def register(fn):
        fn.needs = needs
        TASKS[name] = fn
        return fn

    return register


@_task("check_axioms")
def _task_check_axioms(scn):
    return check_axioms(scn.algebroid, scn.probe_degree)


@_task("check_differential_props")
def _task_differential_props(scn):
    return check_differential_props(_ctx(scn), scn.probe_degree)


@_task("is_hom_poisson", "pi")
def _task_is_hom_poisson(scn):
    return is_hom_poisson(_ctx(scn), scn.pi)


@_task("sharp_commutes", "pi")
def _task_sharp_commutes(scn):
    return sharp_commutes(_ctx(scn), scn.pi, scn.probe_degree)


@_task("pi_pi_identity", "pi")
def _task_pi_pi_identity(scn):
    co = [scn.algebroid.coframe(i) for i in range(scn.algebroid.rank)]
    found = first_nonzero("pi-pi-contraction", pi_pi_cases(_ctx(scn), scn.pi, product(co, co)))
    return CheckResult("pi_pi_identity", found.passed, found.witness)


@_task("check_dual_algebroid", "pi")
def _task_check_dual_algebroid(scn):
    dual = dual_algebroid(_ctx(scn), scn.pi)
    sub = check_axioms(dual, scn.probe_degree)
    return CheckResult("check_dual_algebroid", sub.passed, sub.witness, sub.details)


@_task("check_bialgebroid_pair", "pi")
def _task_check_bialgebroid_pair(scn):
    return check_bialgebroid_pair(_ctx(scn), scn.pi, min(scn.probe_degree, 2))


@_task("is_hom_nijenhuis", "endo")
def _task_is_hom_nijenhuis(scn):
    return is_hom_nijenhuis(_ctx(scn), scn.endo, scn.probe_degree)


@_task("lemma_checks", "endo")
def _task_lemma_checks(scn):
    return lemma_checks(_ctx(scn), scn.endo, scn.endo, min(scn.probe_degree, 2))


@_task("d_n_props", "endo")
def _task_d_n_props(scn):
    return d_n_props(_ctx(scn), scn.endo, scn.probe_degree)


@_task("is_hpn", "pi", "endo")
def _task_is_hpn(scn):
    return is_hpn(_ctx(scn), scn.pi, scn.endo, min(scn.probe_degree, 2))


@_task("hierarchy", "pi", "endo")
def _task_hierarchy(scn):
    _, res = hierarchy(_ctx(scn), scn.pi, scn.endo, scn.hierarchy_depth, probe_degree=1)
    return res


@_task("hpn_bialgebroid_equiv", "pi", "endo")
def _task_hpn_bialgebroid_equiv(scn):
    return hpn_bialgebroid_equiv(_ctx(scn), scn.pi, scn.endo, 1)


@_task("bialgebroid_defect_checks", "pi", "endo")
def _task_bialgebroid_defect_checks(scn):
    return bialgebroid_defect_checks(_ctx(scn), scn.pi, scn.endo, 1)


@_task("check_bialgebroid")
def _task_check_bialgebroid(scn):
    return check_bialgebroid(_pair(scn), min(scn.probe_degree, 2))


@_task("check_courant_axioms")
def _task_check_courant_axioms(scn):
    E = _double(scn)
    return check_courant_axioms(E, min(scn.probe_degree, 2))


@_task("jacobiator")
def _task_jacobiator(scn):
    E = _double(scn)
    frames = E.frame_sections()
    try:
        for i in range(len(frames)):
            for j in range(len(frames)):
                for k in range(len(frames)):
                    jacobiator(E, frames[i], frames[j], frames[k])
    except TheoremViolation as exc:
        return CheckResult(
            "jacobiator",
            False,
            Witness("jacobiator", {"triple": f"(E{i + 1},E{j + 1},E{k + 1})"}, str(exc)),
        )
    return CheckResult("jacobiator", True)


@_task("dirac_checks", "dirac")
def _task_dirac_checks(scn):
    E, L = _double(scn), scn.dirac
    return dirac_checks(graph(E, L) if isinstance(L, EndoMap) else Subbundle(E, L))


@_task("graph_theorem_check", "dirac_graph")
def _task_graph_theorem_check(scn):
    return graph_theorem_check(_pair(scn), scn.dirac_graph)


@_task("maurer_cartan", "pi")
def _task_maurer_cartan(scn):
    defect = maurer_cartan_defect(_pair(scn), scn.pi)
    found = first_nonzero("maurer-cartan-equation", [({"pi": scn.pi}, defect)])
    return CheckResult("maurer_cartan", found.passed, found.witness)


def _missing(scn: Scenario, fn):
    """The first attribute the task fn needs that scn leaves unset, or
    None."""
    return next((a for a in fn.needs if getattr(scn, a) is None), None)


def _expand_tasks(scn: Scenario, tasks=None):
    """The task list (the scenario's own by default) with "full"
    replaced by every task the scenario's data supports."""
    out = []
    for t in scn.tasks if tasks is None else tasks:
        if t == "full":
            out.extend(name for name, fn in TASKS.items() if _missing(scn, fn) is None)
        else:
            out.append(t)
    return list(dict.fromkeys(out))


def run_scenario(scn: Scenario, tasks=None, timings: bool = False) -> dict:
    names = list(tasks) if tasks else _expand_tasks(scn)
    report = {"tasks": [], "verdict": "pass"}
    for name in names:
        fn = TASKS.get(name)
        entry = {"task": name}
        start = time.monotonic()
        if fn is None:
            entry["verdict"] = "error"
            entry["error"] = f"unknown task {name!r}"
        else:
            try:
                missing = _missing(scn, fn)
                if missing is not None:
                    raise PreconditionError(f"task needs {_KEYS[missing]} key in the scenario")
                # one cache scope per task: its table is dropped with it
                with operator_cache():
                    result = fn(scn)
                entry["verdict"] = "pass" if result.passed else "fail"
                if result.witness is not None:
                    entry["witness"] = result.witness.to_json()
                if result.details:
                    entry["details"] = {
                        k: str(v) for k, v in sorted(result.details.items())
                    }
            except PreconditionError as exc:
                entry["verdict"] = "fail"
                entry["witness"] = (
                    exc.witness.to_json()
                    if exc.witness is not None
                    else {"identity": name, "inputs": {}, "residual": str(exc)}
                )
            except (TheoremViolation, ExponentOverflow) as exc:
                # an exponent below the input limit can still overflow in
                # a product: the task errs and the next one runs
                entry["verdict"] = "error"
                entry["error"] = str(exc)
        if timings:
            entry["seconds"] = round(time.monotonic() - start, 3)
        report["tasks"].append(entry)
        if entry["verdict"] != "pass" and report["verdict"] == "pass":
            report["verdict"] = "fail"
    return report


def _render_text(report: dict) -> str:
    lines = []
    for entry in report["tasks"]:
        line = f"{entry['task']}: {entry['verdict']}"
        if "witness" in entry:
            wit = entry["witness"]
            inputs = ", ".join(f"{k}={v}" for k, v in sorted(wit.get("inputs", {}).items()))
            bits = [wit.get("identity", "")]
            if inputs:
                bits.append(inputs)
            if wit.get("residual"):
                bits.append("residual=" + wit["residual"])
            line += " [" + "; ".join(b for b in bits if b) + "]"
        if "error" in entry:
            line += f" [{entry['error']}]"
        if "seconds" in entry:
            line += f" ({entry['seconds']}s)"
        lines.append(line)
    lines.append(f"overall: {report['verdict']}")
    return "\n".join(lines)


def _check_names(names, path: str):
    """Refuse the first of `names` that is neither a task nor "full";
    `path` formats the JSON path of the k-th name."""
    for k, t in enumerate(names):
        if t not in TASKS and t != "full":
            raise ScenarioError(path.format(k), f"unknown task {t!r}")


def cmd_check(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        _check_names(scn.tasks, "$.tasks[{}]")
        if args.probe_degree is not None:
            scn.probe_degree = check_probe_degree(args.probe_degree, "--probe-degree")
        _check_names(args.task or [], "$.tasks")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    tasks = _expand_tasks(scn, args.task) if args.task else None
    # parsing keeps the interpreter's int-to-str digit limit, but a
    # witness may print coefficients longer than it
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report = run_scenario(scn, tasks, timings=args.timings)
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_text(report))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return 0 if report["verdict"] == "pass" else 1


def cmd_fixtures(args) -> int:
    fixtures = list_fixtures(args.tag)
    if args.format == "json":
        payload = [
            {"name": f.name, "description": f.description, "tags": sorted(f.tags)}
            for f in fixtures
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for f in fixtures:
            print(f"{f.name} [{', '.join(sorted(f.tags))}]")
            print(f"    {f.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact verification of twisted algebroid structures over polynomial coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification tasks from a scenario file")
    check.add_argument("scenario", help="path to the scenario JSON file")
    check.add_argument(
        "--task",
        action="append",
        help="run only the named task (repeatable); overrides the scenario's task list",
    )
    check.add_argument("--probe-degree", type=int, default=None, help="probe monomial degree bound")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--timings", action="store_true", help="include wall times (breaks byte-identical output)"
    )
    check.set_defaults(func=cmd_check)

    fixtures = sub.add_parser("fixtures", help="list the built-in fixture catalog")
    fixtures.add_argument("--format", choices=("text", "json"), default="text")
    fixtures.add_argument(
        "--tag", choices=fixture_tags(), default=None, help="only fixtures carrying this tag"
    )
    fixtures.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (e.g. `| head`); Python flushes
        # stdout again at exit, so point it at devnull to exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
