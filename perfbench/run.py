"""End-to-end and per-layer benchmark of homlie.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]

Run from the root of the repository.  Every pass of the workload runs
in a fresh single-threaded Python process (perfbench/worker.py), one
after the other, because a CLI user pays the import and the set-up of
the structures on every invocation.  The load is a closed loop of one
caller.

--trace 0 measures the end-to-end metrics with tracing off:
  verdict_s    median over passes of the time from built instances to
               the last verdict; passes repeat until S seconds are spent
               (at least one)
  setup_s      median over several fresh processes of the time to import
               homlie and build every instance the workload checks
  peak_rss_mb  the largest peak RSS of a verdict pass's process
--trace 1 runs one untraced and one traced pass on the same inputs and
reports the per-layer metrics of the traced pass, and trace.overhead.

Every verdict is compared with the hand-written table in expected.py.
The human-readable lines come first, then a `record:` line with the
environment, the inputs and every pass, and last the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import expected
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
# fresh processes timed for setup_s, half before and half after the
# verdict passes so that they sample the machine over the whole run;
# one unmeasured process before them fills the bytecode cache
SETUP_REPS = 10
# every run ends within this many seconds, whatever --seconds asks for
DEADLINE_S = 170.0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Harness:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.jobs = []  # every job with its result, for the record
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        # an installed package imports from compiled bytecode; let the
        # first process write it even where the caller turned that off
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, mode: str, index: int) -> dict | None:
        """Run one job in a fresh process; None when it crashed."""
        inp = workloads.inputs(self.workload, ROOT, WORKDIR, self.seed, index)
        job = {"workload": self.workload, "mode": mode, "inputs": inp}
        entry = {"index": index, "job": job}
        self.jobs.append(entry)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            entry["error"] = "timed out"
            return self._crashed(mode, inp)
        if proc.returncode != 0:
            entry["error"] = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return self._crashed(mode, inp)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        entry["result"] = {k: v for k, v in result.items() if k != "trace"}
        if mode != "setup":
            exp = expected.expected(self.workload, workloads.parts(self.workload, inp))
            wrong = expected.wrong(exp, result["rows"])
            entry["wrong"] = wrong
            self.attempted += len(exp)
            self.failed += min(len(wrong), len(exp))
        return result

    def _crashed(self, mode, inp):
        n = 1
        if mode != "setup":
            n = len(expected.expected(self.workload, workloads.parts(self.workload, inp)))
        self.attempted += n
        self.failed += n
        return None

    def setup_times(self, reps: int) -> list:
        out = []
        for _ in range(reps):
            res = self.spawn("setup", 0)
            if res is not None:
                out.append(res["setup_s"])
        return out

    def verdict_passes(self) -> list:
        out = []
        t0 = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - t0 < self.seconds:
            last = out[-1]["verdict_s"] if out else 0.0
            if index and self.remaining() < 2 * last + 5:
                break
            res = self.spawn("verdict", index)
            if res is not None:
                out.append(res)
            index += 1
        return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(backends) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": sorted(backends)[0] if len(backends) == 1 else sorted(backends),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def _line(name, value, unit, extra=""):
    print(f"{name:28s} {value:>14.6g} {unit:6s} {extra}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="also write the run record to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in ("BENCHMARK.json", "src/homlie/__init__.py", "scenarios") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a homlie checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    h = Harness(args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.workload != "dense_twist":
        record["seed_note"] = "fixed workload: the seed does not change its inputs"
    metrics = {}
    if args.trace == 0:
        h.spawn("setup", 0)
        setup = h.setup_times(SETUP_REPS // 2)
        passes = h.verdict_passes()
        setup += h.setup_times(SETUP_REPS - SETUP_REPS // 2)
        verdict = [p["verdict_s"] for p in passes]
        if setup and passes:
            metrics = {
                "verdict_s": statistics.median(verdict),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            }
        record["samples"] = {"verdict_s": verdict, "setup_s": setup}
    else:
        h.spawn("setup", 0)  # fills the bytecode cache
        plain = h.spawn("verdict", 0)
        traced = h.spawn("trace", 0)
        passes = [r for r in (plain, traced) if r is not None]
        if plain is not None and traced is not None:
            if traced["rows"] != plain["rows"]:
                h.failed += 1
                h.attempted += 1
                record["trace_mismatch"] = {"untraced": plain["rows"], "traced": traced["rows"]}
            exp = expected.expected(args.workload, workloads.parts(args.workload, h.jobs[-1]["job"]["inputs"]))
            metrics = dict(traced["layers"])
            metrics["checks.attempted"] = len(exp)
            metrics["checks.failed"] = len(h.jobs[-1]["wrong"])
            metrics["trace.overhead"] = traced["verdict_s"] / plain["verdict_s"]
            record["trace"] = traced["trace"]

    backends = {p["backend"] for p in passes}
    record["env"] = environment(backends or {"unknown"})
    record["jobs"] = h.jobs
    units = metric_units(args.trace)
    correct = h.failed == 0 and all(name in metrics for name in units) and len(backends) == 1

    env = record["env"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  backend {env['backend']}  "
        f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}"
    )
    for name, unit in units.items():
        if name not in metrics:
            continue
        samples = record.get("samples", {}).get(name)
        extra = ""
        if samples:
            q1, q3 = _quartiles(samples)
            extra = f"median of n={len(samples)}, q1 {q1:.6g}, q3 {q3:.6g}"
        _line(name, metrics[name], unit, extra)
    _line("verdicts_wrong", h.failed / h.attempted if h.attempted else 1.0, "share", f"{h.failed} of {h.attempted} checks")
    record["metrics"] = metrics
    text = json.dumps(record, sort_keys=True)
    print("record: " + text)
    if args.record:
        Path(args.record).write_text(text + "\n", encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": max(h.attempted, 1),
        "failed": h.failed if h.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
