"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> [smoke]
        eval set-up time: derive + compile + first op of every context.
    python3 perfbench/child.py eval <workload> <seed> <latencies.bin> seconds=<S> [smoke]
        the timed eval loop for S seconds, with set-up sampled between rounds.
    python3 perfbench/child.py eval <workload> <seed> <latencies.bin> rounds=<R> [trace] [smoke]
        the eval loop for R rounds; with ``trace``, every layer traced.
    python3 perfbench/child.py cli <trace.json> <qwitt arguments...>
        one traced `qwitt` invocation; the trace is written to <trace.json>.
    python3 perfbench/child.py timed <refs.json> <qwitt arguments...>
        one `qwitt` invocation with reference loops timed inside it
        (reference.Sampler); they are written to <refs.json>.
    python3 perfbench/child.py import
        CLI set-up: `import qwitt.cli`, with reference loops timed inside it.

Each mode prints one JSON object on stdout, except ``cli`` and ``timed``,
whose stdout is the command's own.  ``eval`` writes the latency of every
timed op to <latencies.bin> as native int64 nanoseconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        import workloads

        seconds, ref_ns, attempted, failed = workloads.eval_setup(
            rest[0], int(rest[1]), rest[2:] == ["smoke"])
        print(json.dumps({"seconds": seconds, "ref_ns": ref_ns,
                          "attempted": attempted, "failed": failed}))
        return 0
    if mode in ("timed", "import"):
        import reference

        rc = 0
        with reference.Sampler() as sampler:
            from qwitt import cli

            if mode == "timed":
                rc = cli.main(rest[1:])
                sys.stdout.flush()
        refs = json.dumps({"refs": sampler.refs, "spent_ns": sampler.spent_ns})
        if mode == "timed":
            Path(rest[0]).write_text(refs)
        else:
            print(refs)
        return rc
    import tracing

    tracer = tracing.Tracer()
    if mode == "eval":
        import workloads

        name, seed, lat_path, (limit, _, value), flags = (
            rest[0], int(rest[1]), rest[2], rest[3].partition("="), rest[4:])
        smoke = "smoke" in flags
        setup = None
        with open(lat_path, "wb") as lat:
            if limit == "seconds":
                setup = workloads.SetupSampler(name, seed, smoke, int(value))
                stats = workloads.eval_loop(name, seed, smoke, lat, seconds=int(value),
                                            between=setup)
            else:
                if "trace" in flags:
                    tracer.install()
                stats = workloads.eval_loop(name, seed, smoke, lat, rounds=int(value))
        out = {"round_ns": stats.round_ns, "ref_ns": stats.ref_ns, "timed": stats.timed,
               "attempted": stats.attempted, "failed": stats.failed}
        if setup:
            out.update(setup_s=setup.median(), attempted=stats.attempted + setup.attempted,
                       failed=stats.failed + setup.failed)
        if "trace" in flags:
            out["trace"] = tracer.dump()
        print(json.dumps(out))
        return 0
    if mode == "cli":
        t0 = time.perf_counter()
        from qwitt import cli

        startup = time.perf_counter() - t0
        tracer.install()
        rc = cli.main(rest[1:])
        sys.stdout.flush()
        dump = tracer.dump()
        dump["startup_s"] = startup
        Path(rest[0]).write_text(json.dumps(dump))
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
