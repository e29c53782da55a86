"""The ghost-route engine against the structure polynomials.

Witt arithmetic and the inductive-system ops run on the ghost route only.
The explicit polynomials from ``universal.derive``, evaluated with
``MPoly.eval`` in the coefficient ring itself (over ``zmod`` with no
integer lift), are the independent oracle they are compared with.
"""

import functools
import json
import operator
import os
import random
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qwitt import indwitt, rings, suites, universal, witt
from qwitt.errors import BudgetExceeded, NotInGhostImage
from qwitt.exprs import MAX_BITS
from qwitt.mpoly import Q, xvar, yvar
from qwitt.rings import (DUAL, Z, ZQ, Ring, TwistedRing, ZModRing, ZqRing, ZRing,
                         parse_ring)
from qwitt.truncset import TruncationSet, divisors
from qwitt.universal import Family

S6 = TruncationSet.make([6])
S12 = TruncationSet.make([12])
S2 = TruncationSet.make([2])

FAMILIES = {
    "classical": Family.classical(),
    "qdef": Family.qdef(),
    "qbar": Family.qbar(),
    "qbar:q": Family.qbar((0, 1)),
    "lenart:2": Family.lenart(2),
}

# (ring, q binding for the q-families, truncation set)
RINGS = [
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


def _cases():
    for fname, family in FAMILIES.items():
        for ring, q, tset in RINGS:
            yield pytest.param(family, ring, q if family.uses_q() else None, tset,
                               id=f"{fname}-{ring.descriptor}")


def _polys(ps, family, tset, op):
    if op == "ghost":
        return [universal.ghost_poly(family, tset, n) for n in tset]
    if isinstance(op, int):
        return [ps.frob[op][v] for v in tset.quotient(op)]
    return [ps.law(op)[n] for n in tset]


def _assign(tset, qval, *banks):
    out = {} if qval is None else {Q: qval}
    for var, coords in zip((xvar, yvar), banks):
        out.update({var(d): c for d, c in zip(tset, coords)})
    return out


@pytest.mark.parametrize("family, ring, q, tset", _cases())
def test_engine_matches_polynomial_oracle(family, ring, q, tset):
    rng = random.Random(2024)
    ps = universal.derive(family, tset)
    for _ in range(3):
        a = witt.random_vector(family, tset, ring, rng, q)
        b = witt.random_vector(family, tset, ring, rng, q)

        def want(op, *banks):
            assign = _assign(tset, a.qval, a.coords, *banks)
            return tuple(p.eval(ring, assign) for p in _polys(ps, family, tset, op))

        assert witt.add(a, b).coords == want("add", b.coords)
        assert witt.mul(a, b).coords == want("mul", b.coords)
        assert witt.neg(a).coords == want("neg")
        assert witt.ghost(a) == want("ghost")
        for m in tset:
            assert witt.frobenius(a, m).coords == want(m)


# ----------------------------------------------------------------------
# Inductive systems: the per-index polynomial evaluation that the engine
# replaced, kept here as the oracle.


def _ind_assign(at, *vecs):
    sys = vecs[0].system
    return {
        var(d): sys.push(d, at, v.coord(d))
        for var, v in zip((xvar, yvar), vecs)
        for d in _divisors(at)
    }


def _ind_oracle(op, *vecs):
    sys = vecs[0].system
    polys = universal.derive(Family.classical(), sys.tset).law(op)
    return tuple(polys[k].eval(sys.ring(k), _ind_assign(k, *vecs)) for k in sys.tset)


def _ind_frobenius_oracle(v, n):
    sys = v.system
    bank = universal.derive(Family.classical(), sys.tset).frob[n]
    return tuple(
        bank[nu].eval(sys.ring(n * nu), _ind_assign(n * nu, v))
        for nu in sys.tset.quotient(n)
    )


def _divisors(n):
    return TruncationSet.make([n]).elements


SYSTEMS = {
    "const": indwitt.constant_system(Z, S12, identity_lift=True),
    "const-zmod": indwitt.constant_system(ZModRing(6), S12),
    "trivial": indwitt.trivial_system(Z, S12),
    "chain": indwitt.chain_system(S12),
    "qpow": indwitt.qpow_system(S12),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_indwitt_ops_match_polynomial_oracle(name):
    sys = SYSTEMS[name]
    rng = random.Random(7)
    for _ in range(3):
        v = indwitt.random_vector(sys, rng)
        w = indwitt.random_vector(sys, rng)
        assert indwitt.ind_add(v, w).coords == _ind_oracle("add", v, w)
        assert indwitt.ind_mul(v, w).coords == _ind_oracle("mul", v, w)
        assert indwitt.ind_neg(v).coords == _ind_oracle("neg", v)
        for n in sys.tset:
            assert indwitt.ind_frobenius(v, n).coords == _ind_frobenius_oracle(v, n)


# ----------------------------------------------------------------------


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
# The packed Z[q] route against the generic row loop.  ``LoopZq`` is Z[q]
# as a plain ring, neither ``ZRing`` nor ``ZqRing``: a context over it
# runs every op through ``witt._ghost`` and ``witt._invert``, ring
# operations on coefficient tuples, never through a packed integer.  That
# loop is the reference here; the polynomial oracle above checks it in
# turn over ``dual``, twisted and Witt rings.


class LoopZq(Ring):
    descriptor = "zq:loop"
    unital = torsion_free = supports_div_int = True
    zero, one, from_int, is_zero, eq = (ZqRing.zero, ZqRing.one, ZqRing.from_int,
                                        ZqRing.is_zero, ZqRing.eq)
    add, neg, mul, int_scale, pow, try_div_int, to_str = map(staticmethod, (
        rings.zp_add, rings.zp_neg, rings.zp_mul, rings.zp_scale, rings.zp_pow,
        rings.zp_divexact, rings.zp_to_str))


ZQ_FAMILIES = [
    (Family.classical(), None),
    (Family.qdef(), None),  # q is the generator
    (Family.qdef(), (3,)),
    (Family.qdef(), (-1, 2)),
    (Family.qbar(), None),
    (Family.qbar((1, -2, 0, 3)), None),
    (Family.lenart(2), None),
]
COEFF = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
ZQ_ELEMENT = st.lists(COEFF, max_size=5).map(tuple)  # leading negatives included


def _engine_results(ctx, a, b):
    out = [ctx.add(a, b), ctx.mul(a, b), ctx.neg(a), ctx.ghost(a), ctx.ghost(b),
           ctx.unghost(ctx.ghost(b)), ctx.try_div_int(a, -3),
           ctx.try_div_int(ctx.add(a, a), 2)]
    out += [ctx.frobenius(m, a) for m in ctx.tset]
    try:
        out.append(ctx.unghost(a))
    except NotInGhostImage as exc:
        out.append(str(exc))
    return out


@settings(max_examples=120)
@given(
    st.sampled_from(range(len(ZQ_FAMILIES))),
    st.sets(st.integers(1, 12)),
    st.lists(ZQ_ELEMENT, min_size=12, max_size=12),
    st.lists(ZQ_ELEMENT, min_size=12, max_size=12),
)
# A digit reaches |n*d| = 2^(s-1) - 1: on {1,3}, unghost of a = (1, -2)
# has the bound A_3 = 2 + 1^3 = 3, so s = 3, and c_3 = -3/3 = -1 is a digit
# with |3*(-1)| = 3; the ghost of b = (1, 2) is (1, 7) with s = 4.  The
# same with monomials, and at s = 71: A_3 = 2^70 - 1 with c_3 = -(2^70-1)/3,
# and the ghost (3, 2^70 - 1).  On {1}, try_div_int of (15,) by -3 has
# s = 5 and the quotient digit -5.
@example(0, {3}, [(1,), (-2,)] + [()] * 10, [(1,), (2,)] + [()] * 10)
@example(0, {3}, [(0, 1), (0, 0, 0, -2)] + [()] * 10, [(0, 1), (0, 0, 0, 2)] + [()] * 10)
@example(0, {3}, [(1,), (-(2**70) + 2,)] + [()] * 10,
         [(3,), ((2**70 - 28) // 3,)] + [()] * 10)
@example(0, set(), [(15,)] + [()] * 11, [(1,)] * 12)
# rows whose result equalled their own slot bound when Z[q] packed row by row
@example(0, {2}, [(-1,), (-1,)] + [()] * 10, [(1,), (1,)] + [()] * 10)
@example(0, {2}, [(-3,), (-3,)] + [()] * 10, [(3,), (3,)] + [()] * 10)
@example(6, {4}, [(1, 1, 1, 1, 1)] * 12, [(-1, 1, -1, 1, -1)] * 12)
@example(5, {12}, [(2**70, -(2**70))] * 12, [(0, 0, 0, 0, 1)] * 12)
def test_packed_zq_rows_match_the_generic_loop(fam, picked, xs, ys):
    family, q = ZQ_FAMILIES[fam]
    tset = TruncationSet.make(picked | {1})
    a = tuple(ZQ.check(x) for x in xs[:len(tset)])
    b = tuple(ZQ.check(y) for y in ys[:len(tset)])
    packed = witt.WittCoeffRing(ZQ, tset, family, q)
    symbolic = q is None and family.uses_q()
    loop = witt.WittCoeffRing(LoopZq(), tset, family, rings.ZP_Q if symbolic else q)
    assert type(packed) is witt.WittCoeffRing and type(loop._kernels) is witt._RingKernels
    assert _engine_results(packed, a, b) == _engine_results(loop, a, b)


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
# The integer route against the generic row loop.  ``LoopZ`` is Z as a
# plain ring: a context over it runs every op through ring operations,
# never through the integer loops that a context over Z runs.


class LoopZ(Ring):
    descriptor = "z:loop"
    unital = torsion_free = supports_div_int = reduced = True
    zero, one, from_int, is_zero, try_div_int, check, to_str = (
        ZRing.zero, ZRing.one, ZRing.from_int, ZRing.is_zero, ZRing.try_div_int,
        ZRing.check, ZRing.to_str)
    add, sub, neg, mul, int_scale, pow, eq = map(staticmethod, (
        operator.add, operator.sub, operator.neg, operator.mul, operator.mul,
        operator.pow, operator.eq))


Z_FAMILIES = [
    (Family.classical(), None),
    (Family.qdef(), 3),
    (Family.qdef(), -1),
    (Family.qbar(), 2),
    (Family.lenart(2), None),
]
Z_RINGS = [Z, ZModRing(4), ZModRing(6), ZModRing(9)]
Z_COEFF = st.one_of(st.integers(-3, 3), st.integers(2**70 - 9, 2**70 + 9),
                    st.integers(-(2**70) - 9, -(2**70) + 9))


def _integer_engine_results(ctx, a, b, gs, divides):
    out = [ctx.add(a, b), ctx.mul(a, b), ctx.neg(a), ctx.ghost(a), ctx.ghost(b)]
    out += [ctx.frobenius(m, a) for m in ctx.tset]
    for g in (gs, a):  # the ghost of b over Z, and a, mostly not a ghost vector
        try:
            out.append(ctx.unghost(g))
        except NotInGhostImage as exc:
            out.append(str(exc))
    if divides:
        out += [ctx.try_div_int(a, -3), ctx.try_div_int(ctx.add(a, a), 2),
                ctx.try_div_int(ctx.int_scale(6, b), 6)]
    return out


@settings(max_examples=120)
@given(
    st.sampled_from(range(len(Z_FAMILIES))),
    st.sampled_from(range(len(Z_RINGS))),
    st.sets(st.integers(1, 12)),
    st.lists(Z_COEFF, min_size=12, max_size=12),
    st.lists(Z_COEFF, min_size=12, max_size=12),
)
# on {1,3}: a = (1, -2) has the ghost (1, -1), whose row 3 leaves -2, not
# a multiple of 3; the ghost of b = (1, 2) is (1, 7)
@example(0, 0, {3}, [1, -2] + [0] * 10, [1, 2] + [0] * 10)
@example(1, 3, {12}, [2**70] * 12, [-(2**70) - 9] * 12)
def test_integer_rows_match_the_generic_loop(fam, ring_at, picked, xs, ys):
    family, q = Z_FAMILIES[fam]
    ring = Z_RINGS[ring_at]
    tset = TruncationSet.make(picked | {1})
    a = tuple(ring.check(x) for x in xs[:len(tset)])
    b = tuple(ring.check(y) for y in ys[:len(tset)])
    ctx = witt.WittCoeffRing(ring, tset, family, q)
    # the same integer q as the context's cover, so every step agrees over Z
    loop = witt.WittCoeffRing(LoopZ(), tset, family, ctx.qval)
    assert ctx.add.__self__ is ctx._kernels and type(loop._kernels) is witt._RingKernels
    assert ctx._factory is witt._KERNEL_CACHE[witt._shape(tset)]  # compiled
    down = ctx.down or (lambda c: c)
    want = [tuple(map(down, r)) if isinstance(r, tuple) else r
            for r in _integer_engine_results(loop, a, b, loop.ghost(b), ring is Z)]
    assert _integer_engine_results(ctx, a, b, loop.ghost(b), ring is Z) == want


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
            assert ctx._factory is witt._KERNEL_CACHE[witt._shape(tset)]
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
            assert got == tuple(p.eval(ring, _assign(S6, None, a.coords))
                                for p in _polys(ps, family, S6, m))


# ----------------------------------------------------------------------
# The compiled kernels against the row loops they replace.


def _divisor_stable_subsets(top: int) -> list:
    """Every divisor-stable subset of {1, ..., top}, as ascending tuples."""
    out = [()]
    for n in range(1, top + 1):
        out += [s + (n,) for s in out if set(divisors(n)[:-1]) <= set(s)]
    return out[1:]


DIVISOR_STABLE = _divisor_stable_subsets(12)
# (ring, family, q): the kernels' weights, twist and modulus come from
# these contexts; over zq at the weights packed at q = 2^s
KERNEL_CONTEXTS = [
    (Z, Family.classical(), None),
    (Z, Family.qdef(), -2),
    (ZModRing(4), Family.qbar(), 3),
    (ZModRing(9), Family.lenart(2), None),
    (ZQ, Family.qdef(), 3),  # an integer q
    (ZQ, Family.qdef(), None),  # the generator q
    (ZQ, Family.qbar((1, -2, 0, 3)), None),
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotInGhostImage as exc:
        return str(exc)


def _kernel_results(k, tset, a, b, gs) -> list:
    out = [_outcome(op, *args) for op, args in (
        (k.add, (a, b)), (k.mul, (a, b)), (k.neg, (a,)), (k.ghost, (a,)),
        (k.unghost, (gs,)), (k.unghost, (a,)))]
    return out + [_outcome(k.frob(m), a) for m in tset]


@settings(max_examples=200)
@given(
    st.sampled_from(DIVISOR_STABLE),
    st.sampled_from(range(len(KERNEL_CONTEXTS))),
    st.integers(2, 90),
    st.lists(Z_COEFF, min_size=12, max_size=12),
    st.lists(Z_COEFF, min_size=12, max_size=12),
)
# the unghost of a = (1, -2) on {1,3} fails at 3 (row 3 leaves -2); a
# ghost vector whose row 4 is odd fails at 2 first on {1,2,4}
@example((1, 3), 0, 2, [1, -2] + [0] * 10, [1, 2] + [0] * 10)
@example((1, 2, 4), 3, 2, [1, 0, 3] + [0] * 9, [0] * 12)
@example(DIVISOR_STABLE[-1], 6, 90, [2**70] * 12, [-(2**70) - 9] * 12)
def test_kernels_match_the_row_loops(elems, at, s, xs, ys):
    ring, family, q = KERNEL_CONTEXTS[at]
    tset = TruncationSet.make(elems)
    ctx = witt.WittCoeffRing(ring, tset, family, q)
    kern = ctx._kernels.at(s) if ring is ZQ else ctx._kernels
    shape = witt._shape(tset)
    compiled = witt._compile_kernels(shape)(kern.W, kern.T, kern.M)
    loop = witt._LoopKernels(shape, kern.W, kern.T, kern.M)
    a, b = tuple(xs[:len(tset)]), tuple(ys[:len(tset)])
    gs = witt._LoopKernels(shape, kern.W, kern.T, None).ghost(b)  # a ghost vector
    assert _kernel_results(compiled, tset, a, b, gs) == _kernel_results(loop, tset, a, b, gs)


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
            assert ctx._factory is witt._KERNEL_CACHE[witt._shape(tset)]
        else:
            assert ctx._factory.func is witt._LoopKernels
            assert ctx._factory.packed.func is witt._PackedLoops
        loop = witt.WittCoeffRing(LoopZq() if ring is ZQ else LoopZ(), tset, family, ctx.qval)
        down = ctx.down or (lambda c: c)
        want = [tuple(map(down, r)) for r in (
            loop.add(a.coords, b.coords), loop.mul(a.coords, b.coords), loop.neg(a.coords),
            loop.frobenius(2, a.coords), loop.ghost(a.coords))]
        assert [ctx.add(a.coords, b.coords), ctx.mul(a.coords, b.coords), ctx.neg(a.coords),
                ctx.frobenius(2, a.coords), ctx.ghost(a.coords)] == want
        if ring is ZQ:  # a ghost vector, and the same with each bump at each row
            gs = ctx.ghost(b.coords)
            bumped = [gs] + [gs[:k] + (rings.zp_add(gs[k], bump),) + gs[k + 1:]
                             for bump in BUMPS for k in range(len(gs))]
            assert [_outcome(ctx.unghost, g) for g in bumped] == [
                _outcome(loop.unghost, g) for g in bumped]
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
    assert classical.context._factory is qbar.context._factory is qdef.context._factory
    assert classical.context._kernels.W != qbar.context._kernels.W
    assert type(qdef.context._kernels) is classical.context._factory.packed
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


def test_a_verify_process_compiles_only_what_it_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    log = tmp_path / "log"
    proc = subprocess.run([sys.executable, "-c", COUNT_COMPILES, str(log), "verify", "--suite",
                           "all", "--budget", "500", "--seed", "1"],
                          env=env, capture_output=True, text=True, timeout=300)
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
        for ops in (ctx, _reference_twin(ctx)):  # the generated methods and the loops
            for op, args in ((ops.ghost, (a,)), (ops.add, (a, a)), (ops.mul, (a, a)),
                             (ops.frobenius, (1, a)), (ops.unghost, (a,))):
                with pytest.raises(BudgetExceeded, match="budget 16777216"):
                    op(*args)
    # 1 and -1 to any power take 1 bit: the unit of {1, p} multiplies at once
    p = TruncationSet.make([100000007])
    for ring in (Z, ZModRing(4), ZQ):
        ctx = witt.WittCoeffRing(ring, p)
        for ops in (ctx, _reference_twin(ctx)):
            one = ops.one()
            assert ops.mul(one, one) == one


# ----------------------------------------------------------------------
# The generated Z[q] ops against the same protocol written as loops.  Below
# the cap each op of a Z[q] context is one generated method; the same
# context, built as a set above the cap would be, runs ``_PackedLoops``,
# which computes the same bounds and width, runs the row loops on the
# packed integers and reads the results with _split.


def _reference_twin(ctx):
    """ctx built as above the cap: its ops are ``_PackedLoops``.  The twin
    is not interned."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witt, "KERNEL_MAX_TERMS", -1)
        return witt._Law(ctx.family, ctx.tset, ctx.base, ctx.qval)


BUMPS = [(1,), (0, 1), (1, -1)]  # 1 - q packs to a multiple of 3, 5 and 17 at s = 8, ..., 64


def _zq_outcomes(ctx, a, b, k, bump) -> list:
    out = _engine_results(ctx, a, b)
    gs = list(ctx.ghost(b))  # a ghost vector, moved off the image at row k
    gs[k % len(gs)] = rings.zp_add(gs[k % len(gs)], bump)
    return out + [_outcome(ctx.unghost, gs)]


@settings(max_examples=200)
@given(
    st.sampled_from(DIVISOR_STABLE),
    st.sampled_from(range(len(ZQ_FAMILIES))),
    st.lists(ZQ_ELEMENT, min_size=12, max_size=12),
    st.lists(ZQ_ELEMENT, min_size=12, max_size=12),
    st.integers(0, 11),
    st.sampled_from(BUMPS),
)
@example((1, 3), 0, [(1,), (-2,)] + [()] * 10, [(1,), (2,)] + [()] * 10, 1, (1, -1))
@example((1, 2, 4), 1, [(0, 1), (1, -1), (2,)] + [()] * 9, [(1, 1)] * 12, 1, (0, 1))
@example(DIVISOR_STABLE[-1], 5, [(2**70, -(2**70))] * 12, [(0, 0, 0, 0, 1)] * 12, 9, (1, -1))
def test_generated_zq_ops_match_the_reference_methods(elems, fam, xs, ys, k, bump):
    family, q = ZQ_FAMILIES[fam]
    tset = TruncationSet.make(elems)
    ctx = witt.WittCoeffRing(ZQ, tset, family, q)
    assert isinstance(ctx._kernels, witt._KERNEL_CACHE[witt._shape(tset)].packed)
    ref = _reference_twin(ctx)
    assert type(ref._kernels) is witt._PackedLoops and ref._factory.func is witt._LoopKernels
    a = tuple(ZQ.check(x) for x in xs[:len(tset)])
    b = tuple(ZQ.check(y) for y in ys[:len(tset)])
    assert _zq_outcomes(ctx, a, b, k, bump) == _zq_outcomes(ref, a, b, k, bump)


LONG = tuple((-1) ** i * (i + 1) for i in range(40))
# (a, b) on {1,2,3,6}: zero coordinates, a long coordinate next to short
# ones, negative multi-digit coefficients, and digits from one bit to past
# 64 bits
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
    for family, q in ZQ_FAMILIES:
        ctx = witt.WittCoeffRing(ZQ, TruncationSet.make([1, 2, 3, 6]), family, q)
        ref = _reference_twin(ctx)
        widths = _widths(monkeypatch, ctx)
        for k, (a, b) in enumerate(INLINE_CASES):
            bump = BUMPS[k % len(BUMPS)]
            assert _zq_outcomes(ctx, a, b, k, bump) == _zq_outcomes(ref, a, b, k, bump)
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
        assert _outcome(_reference_twin(ctx).unghost, gs) == str(got.value)


def test_exact_ops_pass_the_check_on_all_digits(monkeypatch):
    # the slack makes the one check of the inline read pass whenever every
    # division is exact, so the check of each n never runs on a result
    # there; it does run where a quotient is not exact, so the refusal is
    # seen to reach the code that reads the digits.  _split, which the {}
    # fallback and _PackedLoops read through, checks each n always: there
    # the same ops must give what the inline read gives
    def refuse(*args):
        raise AssertionError("the check of each n ran")

    def results(ops, a, b):
        out = [ops.unghost(ops.ghost(ops.mul(ops.add(a, b), ops.neg(b))))]
        out += [ops.frobenius(m, a) for m in ops.tset]
        assert ops.try_div_int(ops.int_scale(6, a), 6) == a
        return out

    rng, cases = random.Random(10), []
    for elems in ((1, 2), (1, 2, 4), (1, 2, 3, 6), tuple(range(1, 13))):
        tset = TruncationSet.make(elems)
        for family, q in ZQ_FAMILIES:
            ctx = witt.WittCoeffRing(ZQ, tset, family, q)
            twin = _reference_twin(ctx)
            for _ in range(3):
                a, b = ([tuple(rng.choice([-(2**40), -3, -1, 0, 1, 2, 3, 2**40])
                               for _ in range(rng.randrange(4))) for _ in tset]
                        for _ in "ab")
                cases.append((ctx, twin, tuple(map(ZQ.check, a)), tuple(map(ZQ.check, b))))
    twins = [results(twin, a, b) for _, twin, a, b in cases]
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "R", {})  # the generated ops return through _split
    fallback = [results(ctx, a, b) for ctx, _, a, b in cases]
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "R", witt._SIGNED)
    monkeypatch.setitem(witt._KERNEL_GLOBALS, "K", refuse)  # the inline read's, not _split's
    inexact = witt.WittCoeffRing(ZQ, TruncationSet.make([9]))  # as in the test above
    with pytest.raises(AssertionError, match="check of each n ran"):
        inexact.unghost(((1,), (2, -1), (-2,)))
    assert [results(ctx, a, b) for ctx, _, a, b in cases] == fallback == twins


@functools.lru_cache(maxsize=None)
def _generated_read(m: int, ns):
    """The read that ends a generated Z[q] method of m results at rows ns
    (witt._read), compiled by itself against the methods' globals:
    ``read(s, c0, ..., c(m-1))``."""
    lines = [f"def read(s, {witt._listed('c', m)}):"] + ["    " + x for x in witt._read(m, ns)]
    body = {}
    exec(compile("\n".join(lines), "<read>", "exec"), witt._KERNEL_GLOBALS, body)
    return body["read"]


def _assert_reads(cs, s, ns, want):
    """_split, and at the widths it reads itself the generated read, give
    want for the integers cs."""
    assert _outcome(witt._split, cs, s, ns) == want
    if s <= 64:
        assert _outcome(_generated_read(len(cs), ns), s, *cs) == want


@settings(max_examples=300)
@given(st.sampled_from([8, 16, 32, 64, 65, 72, 97, 128]), st.data())
@example(8, None).via("the smallest width, one block of zeros")
def test_split_reads_what_zp_unpack_reads(s, data):
    ns, failing = None, None
    if data is None:
        polys, ns = [(), (0,) * 30 + (-128 // 4,), (-1,)], (1, 2, 4)
    else:
        if data.draw(st.booleans()):
            ns = tuple(sorted(data.draw(st.sets(st.integers(1, 40), min_size=1, max_size=6))))
        # digits that pass the check (below 2^(s-1-j), j the bit length of
        # max(ns)), or below 2^(s-2) with no check; runs of zeros
        top = 1 << (s - 1 - (ns[-1].bit_length() if ns else 1))
        digit = st.one_of(st.just(0), st.sampled_from([-top, top - 1, -1, 1]),
                          st.integers(-top, top - 1))
        runs = st.lists(st.one_of(digit.map(lambda d: (d,)),
                                  st.integers(1, 40).map(lambda n: (0,) * n)), max_size=8)
        count = len(ns) if ns else data.draw(st.integers(1, 6))
        polys = [rings.zp_trim(sum(data.draw(runs), ())) for _ in range(count)]
        if ns and data.draw(st.booleans()):  # one digit that fails its own n's check
            k, half = data.draw(st.integers(0, count - 1)), 1 << (s - 1)
            size = data.draw(st.integers(-(-half // ns[k]), half))  # n*size >= 2^(s-1)
            polys[k] += (-size if size == half else data.draw(st.sampled_from([-1, 1])) * size,)
            failing = ns[k]  # the digits before it pass every check
    cs = tuple(rings._zp_pack(p, s) for p in polys)
    _assert_reads(cs, s, ns, tuple(polys) if failing is None else str(witt._unreachable(failing)))


def _split_cases(s):
    """(polys, ns) for :func:`witt._split` at width s: one long coordinate
    next to short and empty ones, in every position, with and without the
    check, and failing digits in short coordinates after a long one, one of
    them with more balanced digits than its bit length gives."""
    top = 1 << (s - 4)  # 7*top < 2^(s-1): passes the check of each n below
    long = tuple((-1) ** i * (top - i) for i in range(40))
    cases = [([long, (), (1,), (0, 0, -3)], None),
             ([(), (-top,), long, ()], None),
             ([(2,), (), (-1, 1), long], None),
             ([long, (), (5,), (top - 1, 0, -top)], (1, 2, 3, 6)),
             ([(), long[:3], (1,) * 9, long], (1, 2, 4, 5)),
             ([(7,), long, ()], (1, 3, 7))]
    half = 1 << (s - 1)
    big = -(-half // 3)  # 3*big >= 2^(s-1): fails the check of 3, passes that of 2
    cases += [([long, (1, 2), (0, big)], (1, 2, 3)),  # names 3
              ([long, (0, big), (0, -big), ()], (1, 2, 3, 6)),  # names 3, not 2 or 6
              ([long, (big,), (big,)], (1, 3, 5)),  # names 3, the first to fail
              ([long, (top,), (big // 2,)], (1, 2, 5)),  # fails the one check only: no error
              # bit length 2s-1, three balanced digits: one more than its block
              ([long, (-1, -half, 1), (3,)], (1, 2, 3)),  # names 2
              ([(5,), long, (-1, -half, 1)], (1, 2, 3))]  # names 3, the last block
    return cases


@pytest.mark.parametrize("s", [8, 16, 32, 64, 80])
def test_split_reads_coordinates_of_very_different_lengths(s):
    # each integer has a block of its own length, so a long coordinate must
    # not shift or pad the short ones, nor hide a failing digit after it, and
    # a digit that carries out of its block must not hide the first failure
    named = []
    for polys, ns in _split_cases(s):
        cs = tuple(rings._zp_pack(p, s) for p in polys)
        want = _outcome(witt._split, cs, s, ns)
        assert want == tuple(polys) or isinstance(want, str)
        named.append(want if isinstance(want, str) else None)
        _assert_reads(cs, s, ns, want)
    assert named == [None] * 6 + [str(witt._unreachable(n)) for n in (3, 3, 3)] + [None] + [
        str(witt._unreachable(n)) for n in (2, 3)]
