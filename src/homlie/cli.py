"""Command-line entry point: run verification tasks from a scenario
file.

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

from .calculus import CartanContext, check_differential_props, operator_cache
from .courant import (
    BialgebroidPair,
    check_bialgebroid,
    check_courant_axioms,
    check_jacobiator,
    double,
)
from .dirac import Subbundle, check_maurer_cartan, dirac_checks, graph, graph_theorem_check
from .exterior import EndoMap
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
from .poisson import dual_algebroid, is_hom_poisson, pi_pi_identity, sharp_commutes
from .report import PreconditionError, TheoremViolation
from .scenario import Scenario, ScenarioError, check_probe_degree, load_scenario


def _ctx(scn: Scenario) -> CartanContext:
    return CartanContext(scn.algebroid)


def _pair(scn: Scenario) -> BialgebroidPair:
    if "pair" not in scn.cache:
        spec = scn.dual_spec
        if spec == "trivial":
            pair = BialgebroidPair.trivial(scn.algebroid)
        elif spec == "from_pi":
            pair = BialgebroidPair.from_pi(_ctx(scn), scn.pi)
        else:
            pair = BialgebroidPair(scn.algebroid, spec)
        scn.cache["pair"] = pair
    return scn.cache["pair"]


def _double(scn: Scenario):
    if "double" not in scn.cache:
        scn.cache["double"] = double(_pair(scn), verify=False)
    return scn.cache["double"]


# task name -> function of the scenario and the probe degree, in the
# order "full" runs them
TASKS = {}

# the key a refusal asks for when a needed attribute is unset; either
# Dirac attribute the dirac key leaves unset falls back to pi's sharp map
_KEYS = {"pi": "a pi", "endo": "an N", "dirac": "a pi", "dirac_graph": "a pi"}


def _task(name: str, *needs: str, cap: int | None = None):
    """Register the decorated fn(scn, degree) as the task `name`, which
    reads the Scenario attributes `needs` (kept as fn.needs) and probes
    at the scenario's degree, capped at `cap` if one is given (kept as
    fn.cap).  "full" expands to the tasks whose needs are all set, and
    run_scenario refuses any other task before calling it."""

    def register(fn):
        fn.needs, fn.cap = needs, cap
        TASKS[name] = fn
        return fn

    return register


@_task("check_axioms")
def _task_check_axioms(scn, degree):
    return check_axioms(scn.algebroid, degree)


@_task("check_differential_props")
def _task_differential_props(scn, degree):
    return check_differential_props(_ctx(scn), degree)


@_task("is_hom_poisson", "pi")
def _task_is_hom_poisson(scn, degree):
    return is_hom_poisson(_ctx(scn), scn.pi)


@_task("sharp_commutes", "pi")
def _task_sharp_commutes(scn, degree):
    return sharp_commutes(_ctx(scn), scn.pi, degree)


@_task("pi_pi_identity", "pi")
def _task_pi_pi_identity(scn, degree):
    return pi_pi_identity(_ctx(scn), scn.pi)


@_task("check_dual_algebroid", "pi")
def _task_check_dual_algebroid(scn, degree):
    return check_axioms(dual_algebroid(_ctx(scn), scn.pi), degree)


@_task("check_bialgebroid_pair", "pi", cap=2)
def _task_check_bialgebroid_pair(scn, degree):
    return check_bialgebroid(BialgebroidPair.from_pi(_ctx(scn), scn.pi), degree)


@_task("is_hom_nijenhuis", "endo")
def _task_is_hom_nijenhuis(scn, degree):
    return is_hom_nijenhuis(_ctx(scn), scn.endo, degree)


@_task("lemma_checks", "endo", cap=2)
def _task_lemma_checks(scn, degree):
    return lemma_checks(_ctx(scn), scn.endo, scn.endo, degree)


@_task("d_n_props", "endo")
def _task_d_n_props(scn, degree):
    return d_n_props(_ctx(scn), scn.endo, degree)


@_task("is_hpn", "pi", "endo", cap=2)
def _task_is_hpn(scn, degree):
    return is_hpn(_ctx(scn), scn.pi, scn.endo, degree)


@_task("hierarchy", "pi", "endo", cap=1)
def _task_hierarchy(scn, degree):
    return hierarchy(_ctx(scn), scn.pi, scn.endo, scn.hierarchy_depth, degree)[1]


@_task("hpn_bialgebroid_equiv", "pi", "endo", cap=1)
def _task_hpn_bialgebroid_equiv(scn, degree):
    return hpn_bialgebroid_equiv(_ctx(scn), scn.pi, scn.endo, degree)


@_task("bialgebroid_defect_checks", "pi", "endo", cap=1)
def _task_bialgebroid_defect_checks(scn, degree):
    return bialgebroid_defect_checks(_ctx(scn), scn.pi, scn.endo, degree)


@_task("check_bialgebroid", cap=2)
def _task_check_bialgebroid(scn, degree):
    return check_bialgebroid(_pair(scn), degree)


@_task("check_courant_axioms", cap=2)
def _task_check_courant_axioms(scn, degree):
    return check_courant_axioms(_double(scn), degree)


@_task("jacobiator")
def _task_jacobiator(scn, degree):
    return check_jacobiator(_double(scn))


@_task("dirac_checks", "dirac")
def _task_dirac_checks(scn, degree):
    E, L = _double(scn), scn.dirac
    return dirac_checks(graph(E, L) if isinstance(L, EndoMap) else Subbundle(E, L))


@_task("graph_theorem_check", "dirac_graph")
def _task_graph_theorem_check(scn, degree):
    return graph_theorem_check(_pair(scn), scn.dirac_graph)


@_task("maurer_cartan", "pi")
def _task_maurer_cartan(scn, degree):
    return check_maurer_cartan(_pair(scn), scn.pi)


def _missing(scn: Scenario, fn):
    """The first attribute the task fn needs that scn leaves unset, or
    None."""
    return next((a for a in fn.needs if getattr(scn, a) is None), None)


def _expand_tasks(scn: Scenario, tasks=None):
    """The task list (the scenario's own when tasks is empty or None)
    with "full" replaced by every task the scenario's data supports, each
    name kept once."""
    out = []
    for t in tasks or scn.tasks:
        if t == "full":
            out.extend(name for name, fn in TASKS.items() if _missing(scn, fn) is None)
        else:
            out.append(t)
    return list(dict.fromkeys(out))


def run_scenario(scn: Scenario, tasks=None, timings: bool = False) -> dict:
    """Run the tasks (the scenario's own when tasks is empty or None),
    "full" expanded, and report each one's verdict."""
    names = _expand_tasks(scn, tasks)
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
                degree = scn.probe_degree if fn.cap is None else min(scn.probe_degree, fn.cap)
                # one cache scope per task: its table is dropped with it
                with operator_cache():
                    result = fn(scn, degree)
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
    # parsing keeps the interpreter's int-to-str digit limit, but a
    # witness may print coefficients longer than it
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report = run_scenario(scn, args.task, timings=args.timings)
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_text(report))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return 0 if report["verdict"] == "pass" else 1


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
