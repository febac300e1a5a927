"""Benchmark of the gcms library and CLI.

    python3 perfbench/run.py --workload oracle|partition|phase_sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  This script is a single process that
starts one child interpreter at a time (``child.py``), each doing set-up
and one pass over the workload's task list (``workloads.py``), with
``GCMS_THREADS`` unset, so one worker.  A closed loop: the next child
starts when the previous one has exited, as long as ``--seconds`` have not
passed (and until there are at least ``MIN_PASSES`` passes), so a run ends
within one child of ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the median cost of a pass in
reference loops (``pass_ref``: the pass's wall time counted in the time of
a fixed interpreter loop sampled every 0.1 s through it, see
``speedprobe.py``), the median set-up time (``setup_s``, over every child
plus ``SETUP_PROBES`` set-up-only children) and the median peak RSS of a
pass child (``peak_rss_mb``).  The wall time of a pass (``pass_s``, the sum
of its task times) is in the report file with its median, quartiles and
tail percentile.  On a shared host the wall time of the same pass moves by
20 to 30 % between runs as the host's speed drifts, more than a regression
bound can allow; its cost in reference loops moves by about 5 %.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``tracer.py``: counts from the first traced child
(they must repeat exactly in every traced child), times as medians, and the
tracing overhead.

Every task's output is checked after the pass; failed tasks are counted in
``failed``/``attempted`` of the result line, the last line of stdout.  A
fuller report (samples, quartiles, per-task wall times, masked output keys,
spans, provenance) goes to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "partition", "phase_sweep")
SETUP_PROBES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0      # the whole run, children included, ends before this


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("GCMS_THREADS", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("run time limit reached")
    t_spawn = time.monotonic()
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--t-spawn", repr(t_spawn), "--mode", mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t_spawn
    return out


def summary(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples above it."""
    xs = sorted(values)
    out = {"samples": len(xs), "median": statistics.median(xs), "min": xs[0], "max": xs[-1]}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    if len(xs) > 10:
        k = len(xs) - 10
        out["tail"] = {"percentile": 100.0 * k / len(xs), "value": xs[k - 1]}
    else:
        out["tail"] = None   # fewer than 11 samples: no percentile has ten above it
    return out


def provenance(children: list[dict]) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": children[0].get("numpy") if children else None,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "GCMS_THREADS": os.environ.get("GCMS_THREADS", "unset"),
        "child_GCMS_THREADS": "unset (one worker)",
        "note": "only wall-clock time and in-process counters are available on this "
                "host; no hardware counters or system-wide tracing",
    }


def task_walls(children: list[dict]) -> dict[str, float]:
    names = [t["name"] for t in children[0]["tasks"]]
    return {n: statistics.median(c["tasks"][i]["wall_s"] for c in children)
            for i, n in enumerate(names)}


def measure(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    """Run the children; return (metrics, report, children that ran a pass)."""
    end = time.monotonic() + args.seconds
    if not args.trace:
        probes = [run_child(args.workload, args.seed, "setup", deadline)
                  for _ in range(SETUP_PROBES)]
        passes: list[dict] = []
        while len(passes) < MIN_PASSES or time.monotonic() < end:
            passes.append(run_child(args.workload, args.seed, "pass", deadline))
        pass_s = summary([c["pass_s"] for c in passes])
        pass_ref = summary([c["pass_ref"] for c in passes])
        setup_s = summary([c["setup_s"] for c in probes + passes])
        rss = summary([c["peak_rss_mb"] for c in passes])
        metrics = {"pass_ref": (pass_ref["median"], "ref_loops"),
                   "setup_s": (setup_s["median"], "s"), "peak_rss_mb": (rss["median"], "MB")}
        report = {"pass_ref": pass_ref, "pass_s": pass_s, "setup_s": setup_s,
                  "peak_rss_mb": rss, "task_wall_s": task_walls(passes),
                  "passes": [{k: c[k] for k in ("pass_s", "pass_ref", "probes", "probe_s", "tasks")}
                             for c in passes]}
        return metrics, report, passes

    plain: list[dict] = []
    traced: list[dict] = []
    while not traced or time.monotonic() < end:
        for group, mode in ((plain, "pass"), (traced, "traced")):
            group.append(run_child(args.workload, args.seed, mode, deadline))
    first = traced[0]["layers"]
    if any(c["layers"][k][0] != v[0] for c in traced[1:]
           for k, v in first.items() if v[1] != "s"):
        raise ChildFailed("per-layer counts differ between traced children")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(c["layers"][name][0] for c in traced)
        metrics[name] = (value, unit)
    traced_pass = statistics.median(c["pass_s"] for c in traced)
    plain_pass = statistics.median(c["pass_s"] for c in plain)
    metrics["trace.pass_s"] = (traced_pass, "s")
    metrics["trace.overhead_s"] = (traced_pass - plain_pass, "s")
    report = {"untraced_pass_s": summary([c["pass_s"] for c in plain]),
              "traced_pass_s": summary([c["pass_s"] for c in traced]),
              "task_wall_s": {"untraced": task_walls(plain), "traced": task_walls(traced)},
              "functions": traced[0]["functions"], "spans": traced[0]["spans"]}
    return metrics, report, plain + traced


def check_declared(metrics: dict, trace: int) -> None:
    """The metric names must be the ones BENCHMARK.json declares, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise ChildFailed(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "gcms" / "__init__.py").is_file():
        print(f"no gcms package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        metrics, report, children = measure(args, deadline)
        check_declared(metrics, args.trace)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(c["tasks"]) for c in children)
    failures = [f"{t['name']}: {t['error']}" for c in children for t in c["tasks"] if t["error"]]
    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=attempted, failed=len(failures),
                  failed_frac=len(failures) / attempted, failures=sorted(set(failures)),
                  masked_output_keys=children[0]["masked_keys"],
                  provenance=provenance(children), metrics=named)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} children={len(children)} "
          f"failed_frac={report['failed_frac']:.6g} report={out_path.relative_to(ROOT)}")
    if not args.trace:
        for key in ("pass_ref", "pass_s"):
            p = report[key]
            tail = p["tail"] and f"p{p['tail']['percentile']:.0f}={p['tail']['value']:.4f}"
            print(f"{key} median={p['median']:.4f} samples={p['samples']} "
                  f"tail={tail or 'none (fewer than 11 samples)'}")
    for line in report["failures"]:
        print(f"FAILED {line}")
    for key, keys in report["masked_output_keys"].items():
        print(f"masked before comparison: {key} {keys}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
