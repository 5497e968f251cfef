"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py '<job JSON>'

The job names the workload, the mode and the prepared inputs:

- mode "setup": import homlie and build every instance, nothing more;
- mode "verdict": the same, then run every check;
- mode "trace": as "verdict", with every homlie layer wrapped by
  layertrace.Tracer from after the import to the last verdict.

Prints one JSON line with the timings, the verdict rows, the peak RSS
of this process and, when traced, the per-layer figures.  Each job in a
run record can be replayed with this command.  Expects to run from the
root of the repository (it imports homlie from src/).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
def run(job: dict) -> dict:
    clock = time.perf_counter
    t0 = clock()
    import homlie
    import homlie.cli  # noqa: F401  (the CLI's full import, which every user pays)

    import_s = clock() - t0

    import workloads

    tracer = None
    if job["mode"] == "trace":
        from layertrace import Tracer

        tracer = Tracer().install()
    workload, inp = job["workload"], job["inputs"]
    span = tracer if tracer is not None else nullcontext()
    with span:
        t1 = clock()
        instances = workloads.build(workload, inp)
        setup_s = import_s + (clock() - t1)
    out = {"backend": homlie.BACKEND, "import_s": import_s, "setup_s": setup_s, "rows": []}
    if job["mode"] != "setup":
        with span:
            t2 = clock()
            out["rows"] = workloads.check(workload, instances, inp.get("probe_degree", workloads.DENSE_PROBE_DEGREE))
            out["verdict_s"] = clock() - t2
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["trace"] = tracer.summary()
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
