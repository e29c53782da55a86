"""Tests of the benchmark itself, at the tiny smoke size of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the command runs, declared in BENCHMARK.json or not
WORKLOADS = run.WORKLOADS


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def result(workload: str, trace: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    res = result(workload, 1)
    assert res["correct"] and res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["universal.derive_calls"] > 0
    assert values["trace.ops_per_s.traced"] > 0
    if workload == "verify_cli":
        assert all(values[f"suites.{s}_checks"] > 0 for s in tracing.SUITE_NAMES)
    if workload == "polys_cli":
        assert values["universal.cache_disk_hits"] == 2 and values["cli.out_bytes"] > 0


def test_declarations_match_the_command():
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracing.metric_units())
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.E2E_UNITS)
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


def test_each_window_is_scaled_by_its_own_reference():
    nominal = reference.REF_NOMINAL_NS
    # four rounds of two 0.1-s ops; windows of 0.4 s are rounds 1-2 and 3-4,
    # timed while the reference ran at 1x and then at 2x its nominal time
    lat = [100_000_000] * 8
    rounds = [200_000_000] * 4
    refs = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert [len(w) for w, _ in run.windows(lat, rounds, refs, 0.4)] == [4, 4]
    scaled, raw = run.op_metrics(lat, rounds, refs, 0.4)
    assert raw["ops_per_s"] == pytest.approx(10)
    assert scaled["ops_per_s"] == pytest.approx(8 / (4 * 0.1 + 4 * 0.05))
    assert scaled["op_p50_us"] == pytest.approx(75_000)
    assert scaled["op_p99_us"] == pytest.approx(100_000)
    # a tail shorter than a window joins the last one
    assert [len(w) for w, _ in run.windows(lat, rounds, refs, 0.6)] == [8]


def test_sampler_times_loops_inside_the_block_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.refs) >= 3
    assert sum(sampler.refs) <= sampler.spent_ns < 0.3e9
    assert signal.getsignal(signal.SIGALRM) is before
    with reference.Sampler() as short:
        pass
    assert len(short.refs) == 1


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "eval_small", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("ctx", [
    workloads.Context("qbar", "sym", "zq", (1, 2, 4), ("mul",)),
    workloads.Context("qdef", 2, "zmod:6", (1, 2, 3, 6), ("frob:2",)),
    workloads.Context("lenart:2", None, "twist:z:2", (1, 2, 3, 4), ("mul",)),
    workloads.Context("classical", None, "witt:zmod:4:1,2", (1, 2, 3), ("add",)),
    workloads.Context("classical", None, "witt:z:1,2,3", (1, 2), ("unghost",)),
    workloads.Context("qbar", 3, "dual", (1, 2, 4), ("ghost",)),
])
def test_oracle_accepts_library_and_rejects_a_changed_answer(ctx):
    b = workloads.Bound(ctx)
    rng = random.Random(5)
    op = ctx.ops[0]
    for _ in range(5):
        coords, vecs, known = b.inputs(op, rng)
        out = b.call(op, vecs)
        assert b.verdict(op, coords, known, out) is None
        changed = list(out)
        changed[-1] = b.ring.add(changed[-1], b.ring.from_int(1)) if ctx.ring != "twist:z:2" \
            else changed[-1] + 1
        assert b.verdict(op, coords, known, tuple(changed)) is not None


def test_polys_check_rejects_a_changed_coefficient(tmp_path):
    out = workloads.run_cli(["--cache-dir", str(tmp_path / "c"), "polys", "--family", "qbar",
                             "--set", "1,2,4", "--law", "mul"], tmp_path)
    assert out.rc == 0
    assert workloads.polys_check("qbar", (1, 2, 4), out.stdout, random.Random(1)) is None
    data = json.loads(out.stdout)
    mon = data["polys"]["4"]["monomials"][0]
    mon["coeff"] = str(int(mon["coeff"]) + 1)
    broken = json.dumps(data).encode()
    assert workloads.polys_check("qbar", (1, 2, 4), broken, random.Random(1)) is not None


def test_oracle_ghost_weights_match_the_paper():
    poly = oracle.PolyModel()
    w = oracle.Weights("qbar", "sym", poly)
    # d * (1 + (1-q) + (1-q)^2) at n/d = 3, d = 2
    assert w.weight(6, 2) == poly.scale(2, (3, -3, 1))
    assert oracle.Weights("qdef", 2, oracle.IntModel()).weight(8, 2) == 2 * 2**3
    assert oracle.Weights("lenart:3", None, oracle.IntModel()).weight(4, 1) == 27
