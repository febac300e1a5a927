"""One measured interpreter: set-up, one timed pass over a workload, checks.

Started by ``run.py``, one child at a time, so that every pass pays what a
fresh ``gcms`` process pays and no cache carries over between passes.
Prints one JSON object on stdout.

Set-up runs from the parent's spawn timestamp (``--t-spawn``, a
``time.monotonic`` reading, which is system-wide on Linux) to the moment
``gcms.cli`` is imported and the workload's matrices and generated inputs
are built.  The pass then runs every task in order; the checks run after
it, outside the timed region and with the tracer removed.

In a plain pass a ``speedprobe.SpeedProbe`` times a fixed reference loop
before the pass, every 0.1 s during it and after it; each task's cost in
reference loops (summed to ``pass_ref``) follows the program's work while
the host's speed drifts.  Probe time is cut out of the task times.  A
traced pass runs without the probe.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "pass", "traced"], required=True)
    args = p.parse_args()

    if not (SRC / "gcms" / "__init__.py").is_file():
        print(f"no gcms package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gcms.cli  # noqa: F401  (the import is part of set-up)
    if not Path(gcms.cli.__file__).resolve().is_relative_to(SRC):
        print(f"gcms was imported from {gcms.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import workloads

    tasks = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    setup_s = time.monotonic() - args.t_spawn
    result: dict = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = probe = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        from speedprobe import SpeedProbe
        probe = SpeedProbe()
        probe.start()
    outputs = []
    clock = time.perf_counter
    t0 = clock()
    for task in tasks:
        ts = clock()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a failing task is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        outputs.append((out, err, ts, clock()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    if probe is not None:
        probe.stop()

    task_rows = []
    for task, (out, err, a, b) in zip(tasks, outputs):
        if err is None:
            try:
                err = task.check(out)
            except Exception as exc:  # a check that cannot run fails the task
                err = f"check raised {type(exc).__name__}: {exc}"
        row = {"name": task.name, "wall_s": b - a, "error": err}
        if probe is not None:
            row["wall_s"] -= probe.probe_s(a, b)
            row["ref"] = probe.cost(a, b)
            row["loop_s"] = probe.loop_s(a, b)
        task_rows.append(row)
    masked = {t.name: workloads.MASKED_KEYS[t.name] for t in tasks
              if t.name in workloads.MASKED_KEYS}
    result.update(pass_s=sum(row["wall_s"] for row in task_rows), peak_rss_mb=peak_rss_mb,
                  tasks=task_rows, masked_keys=masked)
    if probe is not None:
        result["pass_ref"] = sum(row["ref"] for row in task_rows)
        result["probes"] = len(probe.starts)
        result["probe_s"] = probe.probe_s(t0, outputs[-1][3])
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer)
        result["functions"] = {
            name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s}
            for name, st in sorted(tracer.stats.items()) if st.calls}
        result["spans"] = [{"id": s, "parent": par, "name": n, "start": a - t0, "end": b - t0}
                           for s, par, n, a, b in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
