"""The ghost-route engine: its kernels, how they compile, and their bounds.

Witt arithmetic and the inductive-system ops run on the ghost route only.
Each of its fast routes is held against a reference: the structure
polynomials from ``universal.derive``, evaluated with ``MPoly.eval`` in
the coefficient ring itself (over ``zmod`` with no integer lift), here;
the row and ring loops, by the rows of the table in test_differential.py,
which run here under the names of the tests they replaced.
"""

import json
import random
import subprocess
import sys
import threading
import time
import types
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st
from test_differential import (BUMPS, DIVISOR_STABLE, Z_FAMILIES, ZQ_FAMILIES, LoopZ, LoopZq,
                               bind, check, compiled, outcome, reduced, results, row_loops)

from qwitt import indwitt, rings, suites, universal, witt
from qwitt.errors import BudgetExceeded, NotInGhostImage
from qwitt.exprs import MAX_BITS
from qwitt.mpoly import Q, xvar, yvar
from qwitt.rings import DUAL, Z, ZQ, TwistedRing, ZModRing, parse_ring
from qwitt.truncset import TruncationSet, divisors
from qwitt.universal import Family

bind(globals())

S2, S6, S12 = (TruncationSet.make([n]) for n in (2, 6, 12))
ORACLE_FAMILIES = {
    "classical": Family.classical(),
    "qdef": Family.qdef(),
    "qbar": Family.qbar(),
    "qbar:q": Family.qbar((0, 1)),
    "lenart:2": Family.lenart(2),
}
# (ring, q binding for the q-families, truncation set)
ORACLE_RINGS = [
    (Z, 2, S12),
    (ZModRing(8), 3, S12),
    (ZQ, None, S12),
    (DUAL, (2, 1), S12),
    (parse_ring("twist:z:2"), 3, S12),  # non-unital, q named by an integer
    (parse_ring("twist:zmod:9:3"), 2, S12),
    (TwistedRing(ZQ, (2,)), (0, 1), S12),  # non-unital, bound to its element q
    (parse_ring("witt:z:1,2"), 2, S6),
    (parse_ring("witt:zmod:4:1,2"), 3, S6),
    (witt.WittCoeffRing(ZModRing(7), S2, Family.qdef(), q=3), (2, 5), S6),
]


def poly_values(polys, a, *vecs) -> tuple:
    """The polynomials evaluated in a's ring itself (over zmod with no
    integer lift), at a's q, x_d and y_d the coordinates of the vectors."""
    assign = {} if a.qval is None else {Q: a.qval}
    for var, v in zip((xvar, yvar), vecs):
        assign.update({var(d): c for d, c in zip(a.tset, v.coords)})
    return tuple(p.eval(a.ring, assign) for p in polys)


@pytest.mark.parametrize("family, ring, q, tset", [
    pytest.param(family, ring, q if family.uses_q() else None, tset,
                 id=f"{fname}-{ring.descriptor}")
    for fname, family in ORACLE_FAMILIES.items() for ring, q, tset in ORACLE_RINGS])
def test_engine_matches_polynomial_oracle(family, ring, q, tset):
    rng = random.Random(2024)
    ps = universal.derive(family, tset)
    for _ in range(3):
        a = witt.random_vector(family, tset, ring, rng, q)
        b = witt.random_vector(family, tset, ring, rng, q)
        for op, vecs in (("add", (a, b)), ("mul", (a, b)), ("neg", (a,))):
            assert getattr(witt, op)(*vecs).coords == poly_values(
                [ps.law(op)[n] for n in tset], a, *vecs)
        assert witt.ghost(a) == poly_values(
            [universal.ghost_poly(family, tset, n) for n in tset], a, a)
        for m in tset:
            assert witt.frobenius(a, m).coords == poly_values(
                [ps.frob[m][v] for v in tset.quotient(m)], a, a)


# Inductive systems: the per-index polynomial evaluation that the engine
# replaced, kept here as the oracle.
def _ind_oracle(poly, sys_, at, *vecs):
    assign = {var(d): sys_.push(d, at, v.coord(d))
              for var, v in zip((xvar, yvar), vecs) for d in divisors(at)}
    return poly.eval(sys_.ring(at), assign)


IND_SYSTEMS = {
    "const": indwitt.constant_system(Z, S12, identity_lift=True),
    "const-zmod": indwitt.constant_system(ZModRing(6), S12),
    "trivial": indwitt.trivial_system(Z, S12),
    "chain": indwitt.chain_system(S12),
    "qpow": indwitt.qpow_system(S12),
}


@pytest.mark.parametrize("name", IND_SYSTEMS)
def test_indwitt_ops_match_polynomial_oracle(name):
    sys_ = IND_SYSTEMS[name]
    rng = random.Random(7)
    ps = universal.derive(Family.classical(), sys_.tset)
    for _ in range(3):
        v = indwitt.random_vector(sys_, rng)
        w = indwitt.random_vector(sys_, rng)
        for op, vecs in (("add", (v, w)), ("mul", (v, w)), ("neg", (v,))):
            assert getattr(indwitt, f"ind_{op}")(*vecs).coords == tuple(
                _ind_oracle(ps.law(op)[k], sys_, k, *vecs) for k in sys_.tset)
        for n in sys_.tset:
            assert indwitt.ind_frobenius(v, n).coords == tuple(
                _ind_oracle(ps.frob[n][nu], sys_, n * nu, v) for nu in sys_.tset.quotient(n))


def test_arithmetic_never_derives(monkeypatch):
    def refuse(*args):
        raise AssertionError("universal.derive was called")

    monkeypatch.setattr(universal, "derive", refuse)
    monkeypatch.setattr(witt, "_LAW_CACHE", {})
    rng = random.Random(11)
    big = TruncationSet.make(range(1, 25))
    for family, ring, q, tset in (
        (Family.classical(), Z, None, big),
        (Family.qbar(), ZQ, None, TruncationSet.make(range(1, 17))),
        (Family.qdef(), ZModRing(6), 5, S12),
    ):
        a = witt.random_vector(family, tset, ring, rng, q)
        b = witt.random_vector(family, tset, ring, rng, q)
        prod = witt.mul(a, b)
        diff = witt.add(witt.add(a, b), witt.neg(b))
        assert witt.eq(diff, a)
        assert witt.frobenius(prod, 2).tset == tset.quotient(2)
        if ring.torsion_free:
            back = witt.unghost(family, tset, ring, witt.ghost(prod), q)
            assert back.coords == prod.coords

    nested = witt.WittCoeffRing(ZModRing(4), S6)
    x, y = nested.random(rng), nested.random(rng)
    assert nested.eq(nested.add(nested.mul(x, y), nested.neg(nested.mul(x, y))),
                     nested.zero())
    over_z = witt.WittCoeffRing(Z, S6)
    x = over_z.random(rng)
    assert over_z.try_div_int(over_z.int_scale(6, x), 6) == x

    chain = indwitt.chain_system(S12)
    v, w = indwitt.random_vector(chain, rng), indwitt.random_vector(chain, rng)
    assert indwitt.eq(indwitt.ind_add(indwitt.ind_mul(v, w), indwitt.ind_neg(w)),
                      indwitt.ind_add(indwitt.ind_neg(w), indwitt.ind_mul(w, v)))
    assert indwitt.ind_frobenius(v, 3).system.tset == S12.quotient(3)


# ----------------------------------------------------------------------
def test_packed_rows_are_kept_for_a_bounded_number_of_widths():
    # above 64 bits the widths are not rounded: x_1 = 2^(8k) puts about
    # 2^(32k) in ghost row 4, so each k brings a new width and, at the
    # generator q, a new packed q
    ctx = witt.WittCoeffRing(ZQ, TruncationSet.make([4]), Family.qbar())
    at = ctx._kernels.at
    for k in range(3 * witt._PACKED_WIDTHS):
        a = ((1 << 8 * k,), (1,), ())
        assert ctx.ghost(a)[0] == (1 << 8 * k,)
        assert at.cache_info().currsize <= witt._PACKED_WIDTHS
    assert at.cache_info().misses > 2 * witt._PACKED_WIDTHS


def _widths(monkeypatch, ctx) -> list:
    """The slot widths that ctx's generated ops pick, from now on."""
    widths, at = [], ctx._kernels.at
    monkeypatch.setattr(ctx._kernels, "at", lambda s: widths.append(s) or at(s))
    return widths


def test_unghost_over_zq_divides_coefficients_not_the_packed_value(monkeypatch):
    # on {1,n}, the ghost vector (1, 2-q) leaves 1-q in row n; the widest
    # bound on a coordinate is C_1 = ||1||_1 = 1 (C_n = (||2-q||_1 +
    # ||1||_1^n) // n = 4 // n), so one bit, one more and the slack of n
    # give at most 7 bits, aligned to 8, where 1-q packs to 1 - 2^8 = -255,
    # a multiple of 3, 5 and 17 although 1-q is not
    for n, width in ((3, 8), (5, 8), (17, 8)):
        s1n = TruncationSet.make([n])
        assert rings._zp_pack((1, -1), width) % n == 0
        widths = _widths(monkeypatch, witt.WittCoeffRing(ZQ, s1n))
        with pytest.raises(NotInGhostImage, match=f"component {n} "):
            witt.unghost(Family.classical(), s1n, ZQ, [(1,), (2, -1)])
        assert widths == [width]
    s13 = TruncationSet.make([3])
    ctx = witt.WittCoeffRing(ZQ, s13)
    a = ((3,), (-7, -1))  # ghost (3, 6-3q) = 3 * (1, 2-q)
    assert ctx.ghost(a) == ((3,), (6, -3))
    assert ctx.try_div_int(a, 3) is None


def _mono(c, k):
    return (0,) * k + (c,)


def test_ghost_and_mul_of_a_high_monomial_stay_fast():
    # a run of zero coefficients packs and unpacks with one shift, so rows
    # of degree 400000 cost about what their tuples do
    k = 100_000
    s124 = TruncationSet.make([4])
    a = witt.make(Family.classical(), s124, ZQ, [_mono(1, k), (1,), ()])
    start = time.perf_counter()
    ghost = witt.ghost(a)
    square = witt.mul(a, a).coords
    elapsed = time.perf_counter() - start
    add = rings.zp_add
    assert ghost == (_mono(1, k), add(_mono(1, 2 * k), (2,)), add(_mono(1, 4 * k), (2,)))
    assert square == (
        _mono(1, 2 * k),
        add(_mono(2, 2 * k), (2,)),
        add(add(_mono(-1, 4 * k), _mono(-4, 2 * k)), (-1,)),
    )
    assert elapsed < 20, f"ghost and mul of q^{k} took {elapsed:.1f} s"


# ----------------------------------------------------------------------
def test_integer_contexts_never_call_the_generic_row(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the generic row loop was called")

    monkeypatch.setattr(witt, "_ghost", refuse)
    monkeypatch.setattr(witt, "_invert", refuse)
    monkeypatch.setattr(witt, "_LAW_CACHE", {})
    rng = random.Random(5)
    tset = TruncationSet.make(range(1, 13))
    for ring in (Z, ZModRing(9), ZQ):
        for family, q in Z_FAMILIES:
            a = witt.random_vector(family, tset, ring, rng, q)
            b = witt.random_vector(family, tset, ring, rng, q)
            ctx = a.context
            assert compiled(ctx)
            assert ctx.add.__self__ is ctx._kernels
            witt.sub(witt.mul(a, b), witt.int_scale(3, b))
            for m in tset:
                witt.frobenius(a, m)
            ghost = witt.ghost(witt.neg(a))
            if ctx.supports_div_int:
                assert witt.unghost(family, tset, ring, ghost, q) == witt.neg(a)
                assert ctx.try_div_int(ctx.int_scale(4, a.coords), 4) == a.coords
                assert not witt.is_divisible(a, 7, 30)
            with pytest.raises(NotInGhostImage):  # row 2 leaves 1, which 2 cannot divide
                ctx.unghost((ring.zero(), ring.one()) + a.coords[2:])


# Every other cover runs the ring loops of ``witt._RingKernels``, bound to
# the context as the integer kernels are, and F_m is that object's frob(m).
RING_COVERS = ["dual", "twist:z:2", "twist:zq:q", "witt:z:1,2,3", "witt:zmod:4:1,2"]


@pytest.mark.parametrize("desc", RING_COVERS)
def test_every_cover_binds_its_kernels(monkeypatch, desc):
    made = []  # (kernels, m) for each F_m made
    real = witt._RingKernels.frob
    monkeypatch.setattr(witt._RingKernels, "frob", lambda k, m: made.append((k, m)) or real(k, m))
    monkeypatch.setattr(witt, "_LAW_CACHE", {})
    ring, rng = parse_ring(desc), random.Random(8)
    for family in (Family.classical(), Family.lenart(2)):
        ps = universal.derive(family, S6)
        a = witt.random_vector(family, S6, ring, rng)
        ctx = a.context
        assert type(ctx._kernels) is witt._RingKernels
        for op in ("add", "mul", "neg", "ghost", "unghost"):
            assert getattr(ctx, op).__self__ is ctx._kernels
        for m in S6:
            made.clear()
            got = witt.frobenius(a, m).coords
            assert made == [(ctx._kernels, m)]
            assert got == poly_values([ps.frob[m][v] for v in S6.quotient(m)], a, a)


# ----------------------------------------------------------------------


def test_divisor_stable_subsets_of_one_to_twelve():
    assert len(DIVISOR_STABLE) == 252
    assert all(TruncationSet.make(s).elements == s for s in DIVISOR_STABLE)


def _upto_terms(limit: int) -> TruncationSet:
    """The largest {1, ..., N} with at most ``limit`` off-diagonal terms."""
    n = 1
    while sum(len(divisors(k)) - 1 for k in range(1, n + 2)) <= limit:
        n += 1
    return TruncationSet.make(range(1, n + 1))


@pytest.mark.parametrize("side", ["below", "above"])
def test_sets_on_each_side_of_the_term_cap(monkeypatch, side):
    compiles = []
    real = witt._compile_kernels
    monkeypatch.setattr(witt, "_KERNEL_CACHE", {})
    monkeypatch.setattr(witt, "_LAW_CACHE", {})
    monkeypatch.setattr(witt, "_compile_kernels", lambda shape: compiles.append(shape) or
                        real(shape))
    top = len(_upto_terms(witt.KERNEL_MAX_TERMS)) + (side == "above")
    tset = TruncationSet.make(range(1, top + 1))
    rng = random.Random(12)
    for ring, family, q in ((Z, Family.qdef(), 2), (ZModRing(8), Family.lenart(2), None),
                            (ZQ, Family.qbar(), None)):
        a = witt.random_vector(family, tset, ring, rng, q)
        b = witt.random_vector(family, tset, ring, rng, q)
        ctx = a.context
        if side == "below":
            assert compiled(ctx)
        else:
            assert type(ctx._kernels) is (witt._PackedLoops if ring is ZQ else witt._LoopKernels)
        loop = witt.WittCoeffRing(LoopZq() if ring is ZQ else LoopZ(), tset, family, ctx.qval)
        gs = ctx.ghost(b.coords)  # over zq, a ghost vector and the same with each bump at each row
        bumped = [gs] + [gs[:k] + (rings.zp_add(gs[k], bump),) + gs[k + 1:]
                         for bump in BUMPS for k in range(len(gs))] if ring is ZQ else []
        args = ((2,), a.coords, b.coords, *bumped)  # of the F_m, F_2 alone
        assert results(ctx._kernels, *args) == reduced(ctx._kernels.M, loop._kernels, *args)
    # the set compiles once below the cap and never above it; F_2's target
    # S/2 is below the cap either way
    assert compiles.count(witt._shape(tset)) == (side == "below")
    assert len(compiles) == len(set(compiles))


def _record_compiles(monkeypatch):
    """From here on, each method compiled, as ((shape, class, method), text),
    on empty caches; and the real ``_kernel_source``."""
    made = []
    real = witt._kernel_source
    monkeypatch.setattr(witt, "_KERNEL_CACHE", {})
    monkeypatch.setattr(witt, "_LAW_CACHE", {})
    monkeypatch.setattr(witt, "_kernel_source", lambda *key: made.append(
        (key, real(*key))) or made[-1][1])
    return made, real


BOUND_OPS = ("add", "mul", "neg", "ghost", "unghost")  # what a context's build binds


def test_each_shape_compiles_once_into_one_source(monkeypatch):
    made, real = _record_compiles(monkeypatch)

    def since(k):  # the (shape, class, method) compiled since made[k]
        return sorted(key for key, _ in made[k:])

    rng = random.Random(3)
    shape, shape2 = witt._shape(S6), witt._shape(S2)
    classical = witt.random_vector(Family.classical(), S6, ZModRing(4), rng)
    # a build compiles exactly the five ops it binds, and nothing else
    assert since(0) == sorted((shape, "Reduced", op) for op in BOUND_OPS)
    qbar = witt.random_vector(Family.qbar(), S6, ZModRing(4), rng, 2)
    z = witt.random_vector(Family.qdef(), S6, Z, rng, 2)
    assert since(5) == sorted((shape, "Plain", op) for op in BOUND_OPS)
    # F_m compiles on its first use, once: F_3 lands on {1,2}, whose
    # context's build compiles its own five ops
    for a in (classical, qbar, z):
        done = len(made)
        witt.frobenius(witt.mul(a, witt.add(a, a)), 3)
        cls = "Reduced" if a.context.down else "Plain"
        assert since(done) == ([] if a is qbar else sorted(
            [(shape, cls, "frob3")] + [(shape2, cls, op) for op in BOUND_OPS]))
    # only z and zmod contexts so far: no Z[q] text
    assert all(kind != "Packed" for (_, kind, _), _ in made)
    done = len(made)
    qdef = witt.random_vector(Family.qdef(), S6, ZQ, rng)
    assert since(done) == sorted((shape, "Packed", op) for op in BOUND_OPS)
    witt.frobenius(qdef, 6)
    witt.frobenius(qdef, 6)
    assert since(done + 5) == sorted([(shape, "Packed", "frob6")] + [
        (witt._shape(TruncationSet.make([1])), "Packed", op) for op in BOUND_OPS])
    assert witt.unghost(Family.qdef(), S6, ZQ, witt.ghost(qdef)) == qdef
    keys = [key for key, _ in made]
    assert len(keys) == len(set(keys))  # each (shape, class, method) once
    assert compiled(classical.context)
    assert type(qbar.context._kernels) is type(classical.context._kernels)
    assert classical.context._kernels.W != qbar.context._kernels.W
    assert type(qdef.context._kernels) is witt._KERNEL_CACHE[shape].packed
    text = dict(made)
    assert "def frob6(self, x):" in text[(shape, "Packed", "frob6")]
    # compiled methods replace their descriptors on the class; the rest wait
    reduced = vars(type(classical.context._kernels))
    assert type(reduced["frob3"]) is types.FunctionType
    assert isinstance(reduced["frob2"], witt._Method)
    # the text is the shape's alone: every method compiled is generated
    # again the same, and every method of S6's three classes comes out the
    # same from either family's set
    for key, t in made:
        assert real(*key) == t
    names = [*witt._ARGS, *(f"frob{n}" for _, n, _ in shape)]
    for kind in ("Plain", "Reduced", "Packed"):
        for name in names:
            assert real(witt._shape(qbar.tset), kind, name) == real(
                witt._shape(classical.tset), kind, name)
    assert len(names) == 5 + len(S6)
    above = TruncationSet.make(range(1, len(_upto_terms(witt.KERNEL_MAX_TERMS)) + 2))
    done = len(made)
    for ring in (Z, ZModRing(4), ZQ):
        ctx = witt.WittCoeffRing(ring, above)
        ctx.mul(ctx.one(), ctx.add(ctx.one(), ctx.one()))
        ctx.frobenius(2, ctx.one())
    # a set above the cap compiles nothing of its own; F_2's target S/2 is
    # below it
    assert {s for (s, _, _), _ in made[done:]} == {witt._shape(above.quotient(2))}


def test_threads_racing_on_new_shapes_compile_each_once(monkeypatch):
    made, _ = _record_compiles(monkeypatch)
    compiles = []
    real = witt._compile_kernels
    monkeypatch.setattr(witt, "_compile_kernels", lambda shape: compiles.append(shape) or
                        real(shape))
    shapes = [witt._shape(TruncationSet.make(range(1, k + 1))) for k in range(2, 8)]
    got, start = [], threading.Barrier(6)

    def work():
        factories = [witt._kernel_factory(shape) for shape in shapes]
        got.append(factories)
        start.wait(timeout=60)
        # every thread looks up the same new methods
        for factory, shape in zip(factories, shapes):
            k = factory((1,) * sum(len(terms) for _, _, terms in shape), 1, None)
            k.add, k.frob(2), factory.packed.mul

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 6 and all(factories == got[0] for factories in got)
    assert sorted(compiles) == sorted(shapes)  # each shape exactly once
    # each method looked up compiled exactly once, and nothing else
    assert sorted(key for key, _ in made) == sorted(
        (shape, kind, name) for shape in shapes
        for kind, name in (("Plain", "add"), ("Plain", "frob2"), ("Packed", "mul")))
    for k, factory in zip(range(2, 8), got[0]):  # Z[q] contexts find the same compile
        ctx = witt.WittCoeffRing(ZQ, TruncationSet.make(range(1, k + 1)))
        assert type(ctx._kernels) is factory.packed
        ctx.mul(ctx.one(), ctx.add(ctx.one(), ctx.one()))
    assert len(compiles) == len(shapes)


# A `qwitt verify --suite all` run in which every process, the forked suite
# workers too, appends to the file argv[1] a line "pid run (names, ...)" for
# the share of the suites it runs and "pid made key" for each generated
# method it compiles.
COUNT_COMPILES = """
import os, sys
from qwitt import suites, witt
from qwitt.cli import main

def logged(what, real):
    def hook(*args):
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{os.getpid()} {what} {args!r}\\n")
        return real(*args)
    return hook

witt._kernel_source = logged("made", witt._kernel_source)
suites._run_share = logged("run", suites._run_share)
sys.exit(main(sys.argv[2:]))
"""


def test_a_verify_process_compiles_only_what_it_runs(tmp_path, src_env):
    log = tmp_path / "log"
    proc = subprocess.run([sys.executable, "-c", COUNT_COMPILES, str(log), "verify", "--suite",
                           "all", "--budget", "500", "--seed", "1"],
                          env=src_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and json.loads(proc.stdout)["passed"] is True, proc.stderr
    runs, made = {}, {}
    for line in log.read_text().splitlines():
        pid, what, args = line.split(" ", 2)
        (runs if what == "run" else made).setdefault(pid, []).append(args)
    # one process for each share of the suites, each counted on its own
    assert len(runs) == min(suites._cpus(), len(suites.SUITES)), runs
    assert all(len(shares) == 1 for shares in runs.values()) and set(made) <= set(runs)
    for keys in made.values():
        # its 8 shapes have 189 methods, 3 * (5 + |S|) each
        assert len(keys) == len(set(keys)) <= 98


# {1, 37}: its term a_1^37 has an exponent above witt.FREE_EXPONENT
S37 = TruncationSet.make([37])


def test_terms_above_the_free_exponent_check_their_size_first():
    assert witt.FREE_EXPONENT == 32
    for kind in ("Plain", "Reduced", "Packed"):
        text = witt._kernel_source(witt._shape(S37), kind, "add")
        assert "E(a0, 37)" in text and "**37" not in text
    big = 1 << (MAX_BITS // 37 + 1)  # its 37th power passes MAX_BITS
    far = (0,) * (1 << 16) + (1,)  # q^65536: its 1-norm is 1, packed it passes
    for ring, a in ((Z, (big, 0)), (ZQ, ((big,), ())), (ZQ, (far, ()))):
        ctx = witt.WittCoeffRing(ring, S37)
        for k in (ctx._kernels, row_loops(ctx)):  # the generated methods and the loops
            for op, args in ((k.ghost, (a,)), (k.add, (a, a)), (k.mul, (a, a)),
                             (k.frob(1), (a,)), (k.unghost, (a,))):
                with pytest.raises(BudgetExceeded, match="budget 16777216"):
                    op(*args)
    # 1 and -1 to any power take 1 bit: the unit of {1, p} multiplies at once
    p = TruncationSet.make([100000007])
    for ring in (Z, ZModRing(4), ZQ):
        ctx = witt.WittCoeffRing(ring, p)
        one = ctx.one()
        for k in (ctx._kernels, row_loops(ctx)):
            assert k.mul(one, one) == one


# ----------------------------------------------------------------------
# The generated Z[q] ops against ``_PackedLoops``, in the row of
# test_generated_zq_ops_match_the_reference_methods, on chosen inputs.

GENERATED = "test_engine::test_generated_zq_ops_match_the_reference_methods"
LONG = tuple((-1) ** i * (i + 1) for i in range(40))
# (a, b) on {1,2,3,6}: zero coordinates, a long coordinate next to short
# ones, negative multi-digit coefficients, and digits from one bit to past
# 64 bits
S1236 = TruncationSet.make([6])
INLINE_CASES = [
    (((1,), (), (), ()), ((), (-1,), (), ())),
    (((-1, 1), (), (), ()), ((), (), (1,), ())),
    (((-300, 7, -(2**11)), (), (0, -5), (1,)), ((2,), (-(2**9) + 1, -1), (), (-3, 0, 4))),
    ((LONG, (), (-1,), (0, 0, -2)), ((), (-2,), LONG[:5], ())),
    (((2**9,), (), (1, -(2**9), 0, 2), (-3,)), ((-1, 1), LONG[:3], (), (2**9, 2**9))),
]


def test_generated_zq_ops_read_their_digits_inline(monkeypatch):
    # up to 64 bits a generated op reads all its results' digits with one
    # struct read and never calls _split; above, it returns through _split;
    # either way it gives what _PackedLoops gives, errors included
    split_widths, real = [], witt._split
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "S",
                        lambda cs, s, ns: split_widths.append(s) or real(cs, s, ns))
    seen = set()
    for fam, (family, q) in enumerate(ZQ_FAMILIES):
        widths = _widths(monkeypatch, witt.WittCoeffRing(ZQ, S1236, family, q))
        for k, (a, b) in enumerate(INLINE_CASES):
            check(GENERATED, S1236.elements, fam, a, b, k, BUMPS[k % len(BUMPS)])
        seen.update(widths)
    assert {8, 16, 32, 64} <= seen and max(seen) > 64
    assert split_widths and min(split_widths) > 64


def test_one_check_on_all_digits_falls_back_to_each_n(monkeypatch):
    # on {1,3,9}, the vector (1, 2-q, -2) of ghost components leaves 1-q
    # in row 3 at s = 8, where it packs to -255 and divides by 3; row 9
    # then leaves 1842372 = 9 * 204708, so only the digit check fails, and
    # the check on all digits must go back to each n to name 3, not 9
    s139 = TruncationSet.make([9])
    ctx = witt.WittCoeffRing(ZQ, s139)
    widths, each = _widths(monkeypatch, ctx), []
    real = witt._check_each
    counted = lambda *args: each.append(args) or real(*args)  # noqa: E731
    monkeypatch.setattr(witt, "_check_each", counted)  # as _split calls it
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "K", counted)  # as the inline read does
    gs = ((1,), (2, -1), (-2,))
    for formats in (witt._SIGNED, {}):  # the inline read of all digits, and _split
        monkeypatch.setitem(witt._KERNEL_GLOBALS, "R", formats)
        widths.clear()
        each.clear()
        with pytest.raises(NotInGhostImage, match="component 3 ") as got:
            ctx.unghost(gs)
        assert widths == [8] and len(each) == 1
        assert outcome(NotInGhostImage, row_loops(ctx).unghost, gs) == (
            f"NotInGhostImage: {got.value}")


def test_exact_ops_pass_the_check_on_all_digits(monkeypatch):
    # the slack makes the one check of the inline read pass whenever every
    # division is exact, so the check of each n never runs on a result
    # there; it does run where a quotient is not exact, so the refusal is
    # seen to reach the code that reads the digits.  _split, which the {}
    # fallback and _PackedLoops read through, checks each n always: there
    # the same ops must give what the inline read gives
    def refuse(*args):
        raise AssertionError("the check of each n ran")

    def exact(k, tset, a, b):  # exact ops on the kernels of a context, or on its row loops
        assert k.unghost(k.ghost(a)) == a  # what try_div_int(6a, 6) unghosts
        return [k.unghost(k.ghost(k.mul(k.add(a, b), k.neg(b))))] + [k.frob(m)(a) for m in tset]

    rng, cases = random.Random(10), []
    for elems in ((1, 2), (1, 2, 4), (1, 2, 3, 6), tuple(range(1, 13))):
        tset = TruncationSet.make(elems)
        for family, q in ZQ_FAMILIES:
            ctx = witt.WittCoeffRing(ZQ, tset, family, q)
            for _ in range(3):
                a, b = ([tuple(rng.choice([-(2**40), -3, -1, 0, 1, 2, 3, 2**40])
                               for _ in range(rng.randrange(4))) for _ in tset]
                        for _ in "ab")
                cases.append((ctx, tuple(map(ZQ.check, a)), tuple(map(ZQ.check, b))))
    twins = [exact(row_loops(ctx), ctx.tset, a, b) for ctx, a, b in cases]
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "R", {})  # the generated ops return through _split
    fallback = [exact(ctx._kernels, ctx.tset, a, b) for ctx, a, b in cases]
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "R", witt._SIGNED)
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "K", refuse)  # the inline read's, not _split's
    inexact = witt.WittCoeffRing(ZQ, TruncationSet.make([9]))  # as in the test above
    with pytest.raises(AssertionError, match="check of each n ran"):
        inexact.unghost(((1,), (2, -1), (-2,)))
    assert [exact(ctx._kernels, ctx.tset, a, b) for ctx, a, b in cases] == fallback == twins


@lru_cache(maxsize=None)
def _generated_read(m: int, ns):
    """The read that ends a generated Z[q] method of m results at rows ns
    (witt._read), compiled by itself against the methods' globals:
    ``read(s, c0, ..., c(m-1))``."""
    lines = [f"def read(s, {witt._listed('c', m)}):"] + ["    " + x for x in witt._read(m, ns)]
    body = {}
    exec(compile("\n".join(lines), "<read>", "exec"), witt._KERNEL_GLOBALS, body)
    return body["read"]


def _assert_reads(s, polys, ns, failing):
    """_split, and at the widths it reads itself the generated read, read
    the polys packed at width s: the polys, or the refusal of the first n
    whose digit fails, ``failing``."""
    cs = tuple(rings._zp_pack(p, s) for p in polys)
    want = tuple(polys) if failing is None else f"NotInGhostImage: {witt._unreachable(failing)}"
    assert outcome(NotInGhostImage, witt._split, cs, s, ns) == want
    if s <= 64:
        assert outcome(NotInGhostImage, _generated_read(len(cs), ns), s, *cs) == want


@st.composite
def _packed_rows(draw):
    """(s, polys, ns, failing) for _split at width s: digits that pass the
    check (below 2^(s-1-j), j the bit length of max(ns)), or below 2^(s-2)
    with no check, with runs of zeros; and maybe one digit that fails its
    own n's check, the n named."""
    s = draw(st.sampled_from([8, 16, 32, 64, 65, 72, 97, 128]))
    ns = failing = None
    if draw(st.booleans()):
        ns = tuple(sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=6))))
    top = 1 << (s - 1 - (ns[-1].bit_length() if ns else 1))
    digit = st.one_of(st.just(0), st.sampled_from([-top, top - 1, -1, 1]),
                      st.integers(-top, top - 1))
    runs = st.lists(st.one_of(digit.map(lambda d: (d,)),
                              st.integers(1, 40).map(lambda n: (0,) * n)), max_size=8)
    count = len(ns) if ns else draw(st.integers(1, 6))
    polys = [rings.zp_trim(sum(draw(runs), ())) for _ in range(count)]
    if ns and draw(st.booleans()):  # one digit that fails its own n's check
        k, half = draw(st.integers(0, count - 1)), 1 << (s - 1)
        size = draw(st.integers(-(-half // ns[k]), half))  # n*size >= 2^(s-1)
        polys[k] += (-size if size == half else draw(st.sampled_from([-1, 1])) * size,)
        failing = ns[k]  # the digits before it pass every check
    return s, polys, ns, failing


@settings(max_examples=300)
@given(_packed_rows())
@example((8, [(), (0,) * 30 + (-128 // 4,), (-1,)], (1, 2, 4), None)).via(
    "the smallest width, one block of zeros")
def test_split_reads_what_zp_unpack_reads(case):
    _assert_reads(*case)


def _split_cases(s):
    """(polys, ns, the n named) for :func:`witt._split` at width s: one long
    coordinate next to short and empty ones, in every position, with and
    without the check, and failing digits in short coordinates after a long
    one, one of them with more balanced digits than its bit length gives."""
    top = 1 << (s - 4)  # 7*top < 2^(s-1): passes the check of each n below
    long = tuple((-1) ** i * (top - i) for i in range(40))
    cases = [([long, (), (1,), (0, 0, -3)], None, None),
             ([(), (-top,), long, ()], None, None),
             ([(2,), (), (-1, 1), long], None, None),
             ([long, (), (5,), (top - 1, 0, -top)], (1, 2, 3, 6), None),
             ([(), long[:3], (1,) * 9, long], (1, 2, 4, 5), None),
             ([(7,), long, ()], (1, 3, 7), None)]
    half = 1 << (s - 1)
    big = -(-half // 3)  # 3*big >= 2^(s-1): fails the check of 3, passes that of 2
    cases += [([long, (1, 2), (0, big)], (1, 2, 3), 3),
              ([long, (0, big), (0, -big), ()], (1, 2, 3, 6), 3),  # not 2 or 6
              ([long, (big,), (big,)], (1, 3, 5), 3),  # the first to fail
              ([long, (top,), (big // 2,)], (1, 2, 5), None),  # fails the one check only
              # bit length 2s-1, three balanced digits: one more than its block
              ([long, (-1, -half, 1), (3,)], (1, 2, 3), 2),
              ([(5,), long, (-1, -half, 1)], (1, 2, 3), 3)]  # the last block
    return cases


@pytest.mark.parametrize("s", [8, 16, 32, 64, 80])
def test_split_reads_coordinates_of_very_different_lengths(s):
    # each integer has a block of its own length, so a long coordinate must
    # not shift or pad the short ones, nor hide a failing digit after it, and
    # a digit that carries out of its block must not hide the first failure
    for polys, ns, named in _split_cases(s):
        _assert_reads(s, polys, ns, named)
