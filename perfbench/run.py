"""The qwitt benchmark: one command per workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload eval_large --seed 7 --seconds 40 --trace 0

Workloads (why each exists, and why only two are declared in
BENCHMARK.json, is in perfbench/NOTES.md):

* ``eval_small``: criterion 03's grid, 90 small contexts, add/mul/neg/frob:2;
* ``eval_large``: sets up to {1..12} over every ring kind, seven ops;
* ``polys_cli``: ``qwitt polys --law mul`` cold and disk-warm, fresh processes;
* ``verify_cli``: ``qwitt verify --suite all`` with an empty cache, fresh processes.

Load comes from this one process acting as a single closed-loop client:
the next call or child starts only when the previous one has finished.
Every answer is checked against an oracle that shares no code with the
library (perfbench/oracle.py), outside the timed interval.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
amount of work untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import reference
import tracing
import workloads

ROOT, SRC = workloads.ROOT, workloads.SRC
WORKLOADS = ("eval_small", "eval_large", "polys_cli", "verify_cli")
# fixed work of a traced run, so that its counts repeat exactly
TRACE_ROUNDS = {"eval_small": 60, "eval_large": 20}
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_us": "us",
             "op_p99_us": "us", "peak_rss_mb": "MB"}
CLI_FIGURES = ("polys_cold_s", "polys_disk_s", "verify_s")
# least busy time of one window of op_metrics: about ten eval_small rounds; each
# CLI child has reference loops of its own
WINDOW_S = {"eval": 0.25, "cli": 0.0}


def percentile(values: list, p: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def windows(latencies_ns, round_ns: list, ref_ns: list, window_s: float) -> list:
    """(latencies, reference times) of windows of whole rounds, each at least ``window_s`` busy.

    Every round runs the same number of ops, and ``ref_ns`` has one
    reference time per round.  A CLI child is a round of its own.  A
    trailing part shorter than a window joins the last window.
    """
    per_round = len(latencies_ns) // len(round_ns)
    bounds, busy = [0], 0
    for i, ns in enumerate(round_ns, 1):
        busy += ns
        if busy >= window_s * 1e9:
            bounds.append(i)
            busy = 0
    if len(bounds) == 1:
        bounds.append(len(round_ns))
    bounds[-1] = len(round_ns)
    return [(latencies_ns[a * per_round:b * per_round], ref_ns[a:b])
            for a, b in zip(bounds, bounds[1:])]


def op_metrics(latencies_ns, round_ns: list, ref_ns: list, window_s: float) -> tuple[dict, dict]:
    """Throughput and op latency percentiles, scaled to the quiet host, and raw.

    The run is cut into windows of about ``window_s`` busy time.  Each
    window's latencies are multiplied by REF_NOMINAL_NS over the typical
    reference loop timed in it (reference.py), which takes out the host's
    changing speed; see perfbench/NOTES.md.  Returns the scaled
    metrics and the unscaled ones.
    """
    scaled = array("d")
    for lat, refs in windows(latencies_ns, round_ns, ref_ns, window_s):
        k = reference.REF_NOMINAL_NS / reference.typical(refs)
        scaled.extend(x * k for x in lat)

    def figures(values) -> dict:
        return {"ops_per_s": len(values) / (sum(values) / 1e9),
                "op_p50_us": statistics.median(values) / 1e3,
                "op_p99_us": percentile(values, 99) / 1e3}

    return figures(scaled), figures(latencies_ns)


def peak_rss_mb() -> float:
    """Peak RSS of the largest child process, in MB.

    The children do all the measured work: the eval process that runs the
    timed ops, the set-up processes, and the `qwitt` children.  A child's
    ru_maxrss starts at its parent's RSS at spawn, so the benchmark's own
    process stays small: it never imports qwitt, and only starts children
    and reads back their results.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_context() -> dict:
    """Machine, interpreter, commit and code size, recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass

    def lines(sub):
        return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / sub).rglob("*.py")))

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_lines": lines("src"), "tests_lines": lines("tests")}


def eval_child(name: str, seed: int, smoke: bool, tmp: Path, *args: str):
    """The eval loop in a fresh ``child.py eval`` process: (its result, its latencies)."""
    path = tmp / "latencies.bin"
    out = workloads.run_child(["eval", name, str(seed), str(path), *args]
                              + (["smoke"] if smoke else []))
    latencies = array("q", path.read_bytes())
    if len(latencies) != out["timed"]:
        raise RuntimeError(f"eval child wrote {len(latencies)} latencies, timed {out['timed']}")
    return out, latencies


def end_to_end(name: str, seed: int, seconds: int, smoke: bool, tmp: Path):
    if name.startswith("eval"):
        out, lat = eval_child(name, seed, smoke, tmp, f"seconds={seconds}")
        setup_s, rounds, refs, figures = out["setup_s"], out["round_ns"], out["ref_ns"], {}
        attempted, failed = out["attempted"], out["failed"]
        print(f"ops timed {len(lat)} in {len(rounds)} rounds of every (context, op) cell")
    else:
        setup = workloads.SetupSampler(name, seed, smoke, seconds)
        w = workloads.cli_loop(name, tmp, seed, smoke, seconds=seconds, between=setup)
        lat, refs, figures = w.latencies_ns, w.ref_ns, w.figures
        rounds = lat  # each child is a round of its own
        setup_s = setup.median()
        attempted, failed = w.attempted + setup.attempted, w.failed + setup.failed
        print(f"children timed {len(lat)}")
    kind = "eval" if name.startswith("eval") else "cli"
    ops, raw = op_metrics(lat, rounds, refs, WINDOW_S[kind])
    metrics = {"setup_s": setup_s, **ops, "peak_rss_mb": peak_rss_mb()}
    unit_of_work = "ops" if kind == "eval" else "children"
    counts = {"setup_s": f"{workloads.SETUP_REPEATS} processes",
              "ops_per_s": f"{len(lat)} {unit_of_work}",
              "op_p50_us": f"{len(lat)} {unit_of_work}", "op_p99_us": f"{len(lat)} {unit_of_work}",
              "peak_rss_mb": "1 peak"}
    print(f"reference loop {reference.typical(refs) / 1e6:.4f} ms;"
          f" times below are scaled to {reference.REF_NOMINAL_NS / 1e6:g} ms")
    for key, unit in E2E_UNITS.items():
        unscaled = f"  unscaled {raw[key]:.4f}" if key in raw else ""
        print(f"  {key:<13} {metrics[key]:>14.4f} {unit:<6} n={counts[key]}{unscaled}")
    for key in CLI_FIGURES:
        got = figures.get(key)
        shown = f"{statistics.median(got):>14.4f} s      n={len(got)}" if got else f"{'n/a':>14}"
        print(f"  {key:<13} {shown}")
    print(f"  {'failed_frac':<13} {failed / attempted:>14.4f} ratio  ({failed} of {attempted} attempted)")
    return metrics, attempted, failed


def traced(name: str, seed: int, smoke: bool, tmp: Path):
    """Fixed work, untraced and then traced; per-layer metrics."""
    if name.startswith("eval"):
        limit = f"rounds={1 if smoke else TRACE_ROUNDS[name]}"
        plain, plain_lat = eval_child(name, seed, smoke, tmp, limit)
        out, lat = eval_child(name, seed, smoke, tmp, limit, "trace")
        trace = out["trace"]
        runs = [op_metrics(plain_lat, plain["round_ns"], plain["ref_ns"], WINDOW_S["eval"])[1],
                op_metrics(lat, out["round_ns"], out["ref_ns"], WINDOW_S["eval"])[1]]
        attempted = plain["attempted"] + out["attempted"]
        failed = plain["failed"] + out["failed"]
    else:
        plain = workloads.cli_loop(name, tmp, seed, smoke, passes=1)
        w = workloads.cli_loop(name, tmp, seed, smoke, passes=1, traced=True)
        trace = tracing.merge(w.traces)
        if w.traces:
            trace["values"]["cli.startup_s"] = statistics.median(t["startup_s"] for t in w.traces)
        trace["values"]["cli.out_bytes"] = w.out_bytes
        for key in CLI_FIGURES:
            if key in plain.figures:
                trace["values"][f"cli.{key}"] = statistics.median(plain.figures[key])
        runs = [op_metrics(x.latencies_ns, x.latencies_ns, x.ref_ns, WINDOW_S["cli"])[1]
                for x in (plain, w)]
        attempted = plain.attempted + w.attempted
        failed = plain.failed + w.failed
    values = trace["values"]
    values["trace.ops_per_s.untraced"] = runs[0]["ops_per_s"]
    values["trace.ops_per_s.traced"] = runs[1]["ops_per_s"]
    values["trace.overhead_frac"] = runs[0]["ops_per_s"] / runs[1]["ops_per_s"] - 1
    units = tracing.metric_units()
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"per-layer values without a declared metric: {unknown}")
    print("end to end, same work:        untraced        traced")
    for key in runs[0]:
        print(f"  {key:<26} {runs[0][key]:>14.4f} {runs[1][key]:>13.4f} {E2E_UNITS[key]}")
    print(f"  tracing overhead {values['trace.overhead_frac']:.1%} of untraced throughput")
    for key, unit in units.items():
        if values.get(key):
            print(f"  {key:<34} {values[key]:>16.6f} {unit}")
    for key, sec in sorted(trace["derive_by_set"].items()):
        print(f"  universal.derive_s[{key}] {sec:.6f} s")
    print(f"  {'failed_frac':<34} {failed / attempted:>16.6f} ratio  ({failed} of {attempted} attempted)")
    metrics = {key: float(values.get(key, 0)) for key in units}
    return metrics, units, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (SRC / "qwitt" / "__init__.py").is_file():
        print(f"perfbench: no qwitt sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # checked in a child, which imports qwitt as every child does (see peak_rss_mb)
    found = subprocess.run([sys.executable, "-c", "import qwitt; print(qwitt.__file__)"],
                           env=workloads.child_env(), cwd=ROOT, capture_output=True,
                           text=True, timeout=60)
    if found.returncode or Path(found.stdout.strip()).resolve().parent != (SRC / "qwitt").resolve():
        where = found.stdout.strip() or found.stderr[-300:]
        print(f"perfbench: children import qwitt from {where}, not {SRC}", file=sys.stderr)
        return 2

    print("context " + json.dumps(run_context(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          + (" smoke" if args.smoke else ""))
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        if args.trace:
            metrics, units, attempted, failed = traced(args.workload, args.seed, args.smoke, tmp)
        else:
            metrics, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, args.smoke, tmp)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
