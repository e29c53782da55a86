"""The ghost-route engine against the structure polynomials.

Witt arithmetic and the inductive-system ops run on the ghost route only.
The explicit polynomials from ``universal.derive``, evaluated with
``MPoly.eval`` in the coefficient ring itself (over ``zmod`` with no
integer lift), are the independent oracle they are compared with.
"""

import operator
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from qwitt import indwitt, rings, universal, witt
from qwitt.errors import NotInGhostImage
from qwitt.mpoly import Q, xvar, yvar
from qwitt.rings import (DUAL, Z, ZQ, Ring, TwistedRing, ZModRing, ZqRing, ZRing,
                         parse_ring)
from qwitt.truncset import TruncationSet
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
    assert isinstance(packed, witt.ZqWittRing) and loop._ghosts.func is witt._ghost
    assert _engine_results(packed, a, b) == _engine_results(loop, a, b)


def test_packed_rows_are_kept_for_a_bounded_number_of_widths():
    ctx = witt.WittCoeffRing(ZQ, TruncationSet.make([4]), Family.qbar())
    for k in range(3 * witt._PACKED_WIDTHS):
        a = ((1 << k,), (1,), ())
        assert ctx.ghost(a)[0] == (1 << k,)
        assert len(ctx._packed) <= witt._PACKED_WIDTHS
    assert len({ctx._width(ctx._bound(((1 << k,), (1,), ()))) for k in range(150)}) > 100


def test_unghost_over_zq_divides_coefficients_not_the_packed_value():
    # on {1,3}, the ghost vector (1, 2-q) leaves 1-q in row 3; its slot
    # bound ||2-q||_1 + ||1||_1^3 = 4 gives 4-bit slots, where 1-q packs to
    # 1 - 16 = -15, a multiple of 3 although 1-q is not
    s13 = TruncationSet.make([3])
    assert rings._zp_pack((1, -1), 4) % 3 == 0
    with pytest.raises(NotInGhostImage):
        witt.unghost(Family.classical(), s13, ZQ, [(1,), (2, -1)])
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
    assert ctx._ghosts is witt._int_ghost and loop._ghosts.func is witt._ghost
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
            assert type(ctx) is witt.ZqWittRing or ctx._ghosts is witt._int_ghost
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
