"""The benchmark's workloads: eval grids with their seeded op streams, and CLI passes.

The library receives only generated inputs: vectors built from this
module's own random elements, and CLI arguments.  Every answer is checked
against :mod:`oracle`, outside the timed interval.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import oracle
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CHILD_TIMEOUT = 170  # seconds; a run must end within 180
MIN_OPS = 1000  # an eval run stops only after at least this many timed ops
MIN_PASSES = 2  # a CLI run stops only after at least this many passes
POLYS_POINTS = 3  # seeded points at which each emitted polys output is checked
SETUP_REPEATS = 15  # timed set-up processes per run; setup_s is their median

# ----------------------------------------------------------------------
# Eval contexts.


@dataclass(frozen=True)
class Context:
    family: str  # classical | qdef | qbar | lenart:<Q>
    q: object  # None, an integer binding, or "sym" for the generator of Z[q]
    ring: str  # a qwitt ring descriptor
    tset: tuple  # sorted, divisor-closed
    ops: tuple


def _upto(n: int) -> tuple:
    return tuple(range(1, n + 1))


def eval_small_contexts(smoke: bool = False) -> list[Context]:
    """The grid of acceptance criterion 03: 90 contexts, four ops each."""
    rings = ("zmod:4", "zmod:6", "zmod:9", "zq")
    sets = ((1, 2), (1, 2, 4), (1, 2, 3, 6))
    families = (
        ("classical", None), ("qdef", 1), ("qdef", 2), ("qbar", 1), ("qbar", 2),
        ("lenart:1", None), ("lenart:2", None),
    )
    ops = ("add", "mul", "neg", "frob:2")
    ctxs = [Context(f, q, r, s, ops) for f, q in families for r in rings for s in sets]
    ctxs += [Context(f, "sym", "zq", s, ops) for f in ("qdef", "qbar") for s in sets]
    return ctxs[::13] if smoke else ctxs


def eval_large_contexts(smoke: bool = False) -> list[Context]:
    """Larger sets and every ring kind; unghost where the ring is torsion-free."""
    big, qbar_set, witt_set = (_upto(4), _upto(4), _upto(4)) if smoke else (
        _upto(12), _upto(10), _upto(6))
    base_ops = ("add", "mul", "neg", "frob:2", "frob:3", "ghost")

    def ops(ring):
        return base_ops if "zmod" in ring else base_ops + ("unghost",)

    ctxs = []
    for family, q, tset in (
        ("classical", None, big), ("qdef", 3, big), ("lenart:2", None, big),
        ("qbar", 3, qbar_set),
    ):
        for ring in ("z", "zmod:8", "dual", "zq"):
            ctxs.append(Context(family, q, ring, tset, ops(ring)))
    for family in ("classical", "lenart:2"):
        ctxs.append(Context(family, None, "twist:z:2", big, ops("twist:z:2")))
    for ring in ("witt:z:1,2,3", "witt:zmod:4:1,2"):
        ctxs.append(Context("classical", None, ring, witt_set, ops(ring)))
    return ctxs


EVAL_CONTEXTS = {"eval_small": eval_small_contexts, "eval_large": eval_large_contexts}


def random_element(ring: str, rng: random.Random):
    """A seeded element in the library's representation of ``ring``."""
    if ring == "z" or ring.startswith("twist:z:"):
        return rng.randint(-9, 9)
    if ring.startswith("zmod:"):
        return rng.randrange(int(ring.split(":", 1)[1]))
    if ring == "zq":
        cs = [rng.randint(-3, 3) for _ in range(rng.randrange(3) + 1)]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)
    if ring == "dual":
        return (rng.randint(-9, 9), rng.randint(-9, 9))
    if ring.startswith("witt:"):
        base, setpart = ring[len("witt:"):].rsplit(":", 1)
        return tuple(random_element(base, rng) for _ in setpart.split(","))
    raise ValueError(f"no element generator for ring {ring!r}")


class Bound:
    """One context bound to library objects, with its oracle."""

    def __init__(self, ctx: Context):
        from qwitt import witt
        from qwitt.rings import parse_ring
        from qwitt.truncset import TruncationSet
        from qwitt.universal import Family

        self.ctx = ctx
        self.witt = witt
        tag, _, param = ctx.family.partition(":")
        self.family = (
            Family.lenart(int(param)) if tag == "lenart" else getattr(Family, tag)()
        )
        self.tset = TruncationSet.make(ctx.tset)
        self.ring = parse_ring(ctx.ring)
        self.q = None if ctx.q in (None, "sym") else ctx.q
        self.oracle = oracle.ContextOracle(ctx.ring, ctx.family, ctx.q, ctx.tset)
        qpart = "" if ctx.q is None else f"@q={ctx.q}"
        self.label = f"{ctx.family}{qpart} {ctx.ring} {{{self.tset}}}"

    def inputs(self, op: str, rng: random.Random):
        """Coordinate tuples for ``op`` and the library arguments built from them."""
        n_vec = 2 if op in ("add", "mul") else 1
        coords = [
            tuple(random_element(self.ctx.ring, rng) for _ in self.ctx.tset)
            for _ in range(n_vec)
        ]
        if op == "unghost":
            ghosts = self.oracle.ghost(coords[0])
            return [ghosts], (list(ghosts),), coords[0]
        vecs = tuple(
            self.witt.make(self.family, self.tset, self.ring, c, self.q) for c in coords
        )
        return coords, vecs, None

    def call(self, op: str, vecs):
        """One library operation; returns coordinates (ghost components for ghost)."""
        witt = self.witt
        if op == "add":
            return witt.add(*vecs).coords
        if op == "mul":
            return witt.mul(*vecs).coords
        if op == "neg":
            return witt.neg(*vecs).coords
        if op.startswith("frob:"):
            return witt.frobenius(vecs[0], int(op[5:])).coords
        if op == "ghost":
            return tuple(witt.ghost(vecs[0]))
        if op == "unghost":
            return witt.unghost(self.family, self.tset, self.ring, vecs[0], self.q).coords
        raise ValueError(f"unknown op {op!r}")

    def verdict(self, op: str, coords, known, out) -> str | None:
        """None if ``out`` is the oracle's answer, else what went wrong."""
        if isinstance(out, Exception):
            return f"raised {out!r:.200}"
        try:
            want = known if known is not None else self.oracle.expected(op, coords)
        except oracle.OracleError as exc:
            return f"oracle error {exc}"
        return None if tuple(out) == tuple(want) else "oracle mismatch"


@dataclass
class EvalStats:
    round_ns: list = field(default_factory=list)  # busy time of each timed round
    ref_ns: list = field(default_factory=list)  # reference.loop_ns() after each timed round
    timed: int = 0
    attempted: int = 0
    failed: int = 0


def _report_failure(stats: EvalStats, what: str) -> None:
    stats.failed += 1
    if stats.failed <= 5:
        print(f"perfbench: FAILED {what}", file=sys.stderr)


def eval_loop(name: str, seed: int, smoke: bool, latencies: BinaryIO,
              seconds: float | None = None, rounds: int | None = None,
              between=None) -> EvalStats:
    """A closed loop over every (context, op) cell, one call at a time.

    Each round visits every cell once, in a seeded order, on fresh seeded
    vectors; a first untimed round warms every law.  The loop stops after
    ``rounds`` timed rounds, or once ``seconds`` have passed and at least
    ``MIN_OPS`` ops were timed.  ``between(elapsed)`` runs before each
    timed round, and one reference loop after it.  Each round's op
    latencies (ns, native int64) are appended to ``latencies`` after the
    round, so the process does not grow with the number of ops.
    """
    rng = random.Random(seed)
    cells = [(b, op) for b in map(Bound, EVAL_CONTEXTS[name](smoke)) for op in b.ctx.ops]
    stats = EvalStats()
    lat = array("q")
    perf = time.perf_counter_ns
    start = None
    while True:
        timed = start is not None
        if timed and between:
            between(time.perf_counter() - start)
        order = cells[:]
        rng.shuffle(order)
        busy = 0
        for b, op in order:
            coords, vecs, known = b.inputs(op, rng)
            t0 = perf()
            try:
                out = b.call(op, vecs)
            except Exception as exc:  # any exception is a failed op, not a crash
                out = exc
            dt = perf() - t0
            problem = b.verdict(op, coords, known, out)
            if problem:
                _report_failure(stats, f"{op} on {b.label}: {problem}")
            stats.attempted += 1
            if timed:
                lat.append(dt)
                busy += dt
        if not timed:
            start = time.perf_counter()
            continue
        stats.round_ns.append(busy)
        stats.ref_ns.append(reference.loop_ns())
        stats.timed += len(lat)
        lat.tofile(latencies)
        del lat[:]
        if rounds is not None:
            if len(stats.round_ns) >= rounds:
                return stats
        elif time.perf_counter() - start >= seconds and stats.timed >= MIN_OPS:
            return stats


def eval_setup(name: str, seed: int, smoke: bool) -> tuple[float, float, int, int]:
    """Derive + compile + first op of every context, in this (fresh) interpreter.

    Returns (seconds, reference ns, attempted, failed); the reference is
    reference.typical() of loops timed just before and just after.
    Inputs are built before the clock starts; answers are checked after
    it stops.
    """
    rng = random.Random(seed)
    work = []
    for ctx in EVAL_CONTEXTS[name](smoke):
        b = Bound(ctx)
        work.append((b, ctx.ops[0], *b.inputs(ctx.ops[0], rng)))
    refs = reference.loops_ns(3)
    t0 = time.perf_counter()
    outs = []
    for b, op, _, vecs, _ in work:
        try:
            outs.append(b.call(op, vecs))
        except Exception as exc:  # counted as a failure below
            outs.append(exc)
    elapsed = time.perf_counter() - t0
    ref_ns = reference.typical(refs + reference.loops_ns(3))
    failed = 0
    for (b, op, coords, _, known), out in zip(work, outs):
        problem = b.verdict(op, coords, known, out)
        if problem:
            failed += 1
            print(f"perfbench: FAILED set-up {op} on {b.label}: {problem}", file=sys.stderr)
    return elapsed, ref_ns, len(work), failed


# ----------------------------------------------------------------------
# CLI workloads.

POLYS_PAIRS = (("classical", _upto(24)), ("qbar", (1, 2, 4, 8, 16)))
POLYS_PAIRS_SMOKE = (("classical", _upto(4)), ("qbar", (1, 2, 4)))
VERIFY_BUDGET = 500
VERIFY_BUDGET_SMOKE = 2


def child_env() -> dict:
    """The environment of every child: only the checkout's sources, no user cache."""
    env = dict(os.environ)
    env.pop("WITT_CACHE", None)
    env.pop("XDG_CACHE_HOME", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class CliRun:
    rc: int
    seconds: float  # from spawn to exit, less the reference loops run inside
    stdout: bytes
    stderr: bytes
    trace: dict | None
    ref_ns: float  # reference.typical() loop inside the child; nominal if traced or failed

    def scaled(self) -> float:
        """``seconds`` on the quiet host."""
        return self.seconds * reference.REF_NOMINAL_NS / self.ref_ns


def run_cli(args: list, tmp: Path, traced: bool = False) -> CliRun:
    """One `qwitt` process, timed from spawn to exit; stdout goes to a file.

    Untraced, it runs under ``child.py timed``, which times reference loops
    inside it (reference.Sampler).
    """
    out_path = tmp / "stdout"
    side_path = tmp / "child.json"  # the trace, or the reference loops
    cmd = [sys.executable, str(CHILD), "cli" if traced else "timed", str(side_path), *args]
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE,
                                  env=child_env(), cwd=ROOT, timeout=150)
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, err = -1, b"timed out"
        seconds = time.perf_counter() - t0
    trace, ref_ns = None, reference.REF_NOMINAL_NS
    if rc == 0 and traced:
        trace = json.loads(side_path.read_text())
    elif rc == 0:
        refs = json.loads(side_path.read_text())
        seconds -= refs["spent_ns"] / 1e9
        ref_ns = reference.typical(refs["refs"])
    return CliRun(rc, seconds, out_path.read_bytes(), err, trace, ref_ns)


def polys_check(family: str, tset: tuple, stdout: bytes, rng: random.Random) -> str | None:
    """None if the emitted pi solve their ghost equations at seeded points."""
    data = json.loads(stdout)
    label = "qbar:-q+1" if family == "qbar" else family
    if data.get("family") != label or data.get("set") != ",".join(map(str, tset)):
        return f"unexpected header {data.get('family')!r} {data.get('set')!r}"
    if set(data["polys"]) != {str(n) for n in tset}:
        return "missing polynomials"
    for _ in range(POLYS_POINTS):
        point = {f"{b}{n}": rng.choice((-3, -2, -1, 1, 2, 3)) for b in "xy" for n in tset}
        q = None
        if family == "qbar":
            q = point["q"] = rng.choice((-2, -1, 2, 3))
        bad = oracle.check_mul_polys(family, q, tset, data["polys"], point)
        if bad:
            return f"ghost equation fails at n={bad} for point {point}"
    return None


class CliWorkload:
    """Shared pass loop of the two CLI workloads."""

    def __init__(self, tmp: Path, seed: int, smoke: bool, traced: bool = False,
                 between=None):
        self.tmp, self.smoke, self.traced, self.between = tmp, smoke, traced, between
        self.start = time.perf_counter()
        self.rng = random.Random(seed)
        self.latencies_ns: list = []
        self.ref_ns: list = []  # CliRun.ref_ns of each child
        self.attempted = self.failed = 0
        self.figures: dict[str, list] = {}
        self.traces: list = []
        self.out_bytes = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def invoke(self, args: list, what: str) -> CliRun:
        if self.between:
            self.between(time.perf_counter() - self.start)
        run = run_cli(args, self.tmp, self.traced)
        self.ref_ns.append(run.ref_ns)
        self.attempted += 1
        self.latencies_ns.append(int(run.seconds * 1e9))
        self.out_bytes += len(run.stdout)
        if run.trace is not None:
            self.traces.append(run.trace)
        if run.rc != 0:
            self.fail(f"{what}: exit {run.rc}: {run.stderr[-300:].decode(errors='replace')}")
        return run

    def record(self, name: str, value: float) -> None:
        self.figures.setdefault(name, []).append(value)

    def fresh_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.tmp)

    def polys_pass(self) -> None:
        cold_total = disk_total = 0.0
        for family, tset in POLYS_PAIRS_SMOKE if self.smoke else POLYS_PAIRS:
            cache = self.fresh_cache()
            setpart = ",".join(map(str, tset))
            args = ["--cache-dir", cache, "polys", "--family", family,
                    "--set", setpart, "--law", "mul"]
            what = f"polys {family} {{{setpart}}}"
            cold = self.invoke(args, what + " cold")
            disk = self.invoke(args, what + " disk-warm")
            shutil.rmtree(cache)
            cold_total += cold.scaled()
            disk_total += disk.scaled()
            if cold.rc or disk.rc:
                continue
            if cold.stdout != disk.stdout:
                self.fail(f"{what}: cold and disk-warm output differ")
            problem = polys_check(family, tset, cold.stdout, self.rng)
            if problem:
                self.fail(f"{what}: {problem}")
        self.record("polys_cold_s", cold_total)
        self.record("polys_disk_s", disk_total)

    def verify_pass(self) -> None:
        cache = self.fresh_cache()
        seed = self.rng.randrange(1, 10**6)
        budget = VERIFY_BUDGET_SMOKE if self.smoke else VERIFY_BUDGET
        args = ["--cache-dir", cache, "verify", "--suite", "all",
                "--seed", str(seed), "--budget", str(budget)]
        run = self.invoke(args, f"verify --seed {seed}")
        shutil.rmtree(cache)
        self.record("verify_s", run.scaled())
        if run.rc:
            return
        data = json.loads(run.stdout)
        names = [r["suite"] for r in data["reports"]]
        if not data["passed"] or len(names) != 9 or not all(r["checks"] for r in data["reports"]):
            self.fail(f"verify --seed {seed}: report {names} passed={data['passed']}")


CLI_PASSES = {"polys_cli": CliWorkload.polys_pass, "verify_cli": CliWorkload.verify_pass}


def cli_loop(name: str, tmp: Path, seed: int, smoke: bool, seconds: float | None = None,
             passes: int | None = None, traced: bool = False, between=None) -> CliWorkload:
    """Closed loop of CLI passes, one child at a time.

    Stops after ``passes`` passes, or at the end of the first pass that
    finishes after ``seconds`` and after at least ``MIN_PASSES``.
    ``between(elapsed)`` runs before each child.
    """
    w = CliWorkload(tmp, seed, smoke, traced, between)
    step = CLI_PASSES[name]
    done = 0
    while True:
        step(w)
        done += 1
        if passes is not None:
            if done >= passes:
                return w
        elif time.perf_counter() - w.start >= seconds and done >= MIN_PASSES:
            return w


def cli_setup() -> tuple[float, float, int]:
    """Interpreter start + `import qwitt.cli` in a fresh process: (seconds, reference ns, rc).

    It runs as ``child.py import``, which times reference loops inside it;
    ``seconds`` leaves out their time.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), "import"], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=60)
    seconds = time.perf_counter() - t0
    if proc.returncode:
        return seconds, reference.REF_NOMINAL_NS, proc.returncode
    refs = json.loads(proc.stdout)
    return seconds - refs["spent_ns"] / 1e9, reference.typical(refs["refs"]), 0


# ----------------------------------------------------------------------
# Fresh-interpreter children and set-up sampling.


def run_child(args: list) -> dict:
    """One ``child.py`` process; returns the JSON object of its last stdout line."""
    proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT, text=True)
    sys.stderr.write(proc.stderr)  # the child's reports of failed ops
    if proc.returncode:
        raise RuntimeError(f"child {args} failed with exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


class SetupSampler:
    """Set-up time in fresh interpreters, sampled at even points of the run.

    Spreading the samples over the measured interval lets them see the same
    machine as the ops do.  One untimed sample first fills the bytecode cache.
    Each sample is scaled to the quiet host by reference loops timed inside
    its process.
    """

    def __init__(self, name: str, seed: int, smoke: bool, seconds: float):
        self.name, self.seed, self.smoke, self.seconds = name, seed, smoke, seconds
        self.samples: list[float] = []
        self.attempted = self.failed = 0
        self.take()
        self.samples.clear()

    def take(self) -> None:
        if self.name.startswith("eval"):
            out = run_child(["setup", self.name, str(self.seed)]
                            + (["smoke"] if self.smoke else []))
            seconds, ref_ns = out["seconds"], out["ref_ns"]
            self.attempted += out["attempted"]
            self.failed += out["failed"]
        else:
            seconds, ref_ns, rc = cli_setup()
            self.attempted += 1
            self.failed += rc != 0
        self.samples.append(seconds * reference.REF_NOMINAL_NS / ref_ns)

    def __call__(self, elapsed: float) -> None:
        while (len(self.samples) < SETUP_REPEATS
               and elapsed >= len(self.samples) * self.seconds / SETUP_REPEATS):
            self.take()

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.take()
        return statistics.median(self.samples)
