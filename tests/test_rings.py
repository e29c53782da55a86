"""Coefficient-ring instances: exactness, flags, divisibility, twists."""

import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qwitt.errors import BudgetExceeded, NonUniqueQuotient, UnsupportedRingOperation
from qwitt.rings import (
    DUAL,
    Z,
    ZQ,
    ZP_KRONECKER_MIN_LEN,
    ZP_ONE,
    TwistedRing,
    ZModRing,
    parse_ring,
    zp_mul,
    zp_pow,
    zp_to_str,
    zp_trim,
)

INSTANCES = [Z, ZQ, DUAL, ZModRing(6), ZModRing(4), ZModRing(9), TwistedRing(Z, 2)]


def test_element_op_examples():
    zm = ZModRing(6)
    assert zm.add(4, 5) == 3
    tw = TwistedRing(Z, 2)
    assert tw.mul(3, 5) == 30
    eps = DUAL.constants()["eps"]
    assert DUAL.mul(eps, eps) == (0, 0)


def test_try_div_int_examples():
    assert Z.try_div_int(6, 3) == 2
    assert Z.try_div_int(7, 3) is None
    assert ZQ.try_div_int(ZQ.from_str("2*q^2-2*q"), 2) == ZQ.from_str("q^2-q")


def test_try_div_int_torsion_raises():
    with pytest.raises(NonUniqueQuotient):
        ZModRing(6).try_div_int(4, 2)  # 2*2 = 2*5 = 4 mod 6
    assert ZModRing(6).try_div_int(3, 2) is None  # no solution at all
    assert ZModRing(6).try_div_int(3, 5) == (pow(5, -1, 6) * 3) % 6


def test_is_divisible_mod_examples():
    assert Z.is_divisible_mod(12, 2, 2)
    assert not Z.is_divisible_mod(12, 2, 3)
    assert ZQ.is_divisible_mod(ZQ.from_str("2*q-2"), 2, 1)
    assert not ZQ.is_divisible_mod(ZQ.from_str("2*q-1"), 2, 1)
    assert DUAL.is_divisible_mod((4, 8), 2, 2)
    assert not DUAL.is_divisible_mod((4, 2), 2, 2)


def test_units_examples():
    assert ZModRing(6).units() == [1, 5]
    assert Z.units() == [1, -1]
    assert ZQ.units() == [ZP_ONE, (-1,)]
    with pytest.raises(UnsupportedRingOperation):
        DUAL.units()


def test_ring_axioms_random():
    rng = random.Random(11)
    for ring in INSTANCES:
        for _ in range(1000):
            a, b, c = (ring.random(rng) for _ in range(3))
            assert ring.eq(ring.add(a, b), ring.add(b, a))
            assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
            assert ring.eq(ring.mul(a, b), ring.mul(b, a))
            assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
            assert ring.eq(
                ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
            )
            assert ring.is_zero(ring.add(a, ring.neg(a)))
            assert ring.eq(ring.int_scale(5, ring.mul(a, b)),
                           ring.mul(ring.int_scale(5, a), b))


def test_div_int_round_trip():
    rng = random.Random(12)
    for ring in (Z, ZQ, DUAL):
        for _ in range(300):
            a = ring.random(rng)
            k = rng.randint(1, 12)
            assert ring.eq(ring.try_div_int(ring.int_scale(k, a), k), a)


def test_twist_composition():
    # (A^(r))^(r') multiplies by r*r' through the underlying product
    tw = TwistedRing(TwistedRing(Z, 2), 3)
    assert tw.mul(5, 7) == 2 * 3 * 5 * 7
    assert tw.descriptor == "twist:z:6"


def test_unit_twist_has_identity():
    tw = TwistedRing(ZModRing(6), 5)
    one = tw.one()
    rng = random.Random(13)
    for _ in range(50):
        a = tw.random(rng)
        assert tw.eq(tw.mul(one, a), a)
    with pytest.raises(UnsupportedRingOperation):
        TwistedRing(Z, 2).one()


def test_flags():
    assert Z.torsion_free and Z.reduced and not Z.finite
    assert ZModRing(6).reduced and not ZModRing(4).reduced and not ZModRing(9).reduced
    assert not DUAL.reduced and DUAL.torsion_free
    assert TwistedRing(Z, 2).reduced
    assert not TwistedRing(ZModRing(6), 2).reduced


def test_zq_string_round_trip():
    for text in ("0", "1", "-1", "q", "-q", "q^2-q", "2*q^3-q+5"):
        el = ZQ.from_str(text)
        assert ZQ.from_str(zp_to_str(el)) == el


def test_dual_string_round_trip():
    for el in ((0, 0), (3, 2), (-1, 0), (0, -1), (5, -7)):
        assert DUAL.from_str(DUAL.to_str(el)) == el


def test_twisted_elements_read_back_in_base_notation():
    # printed in the base ring's notation, so parsed there too; a non-unital
    # twist reads nonzero integers as well
    cases = {
        "twist:z:-1": (5, -3, 0),
        "twist:zmod:7:3": (2, 6),
        "twist:z:2": (3, -1),
        "twist:zq:q": ((1, 2), (0, 0, 3)),
    }
    for desc, elems in cases.items():
        ring = parse_ring(desc)
        for x in elems:
            assert ring.from_json(ring.to_json(x)) == x


def test_parse_ring_descriptors():
    for desc in ("z", "zq", "dual", "zmod:6", "twist:z:2", "twist:zq:q", "witt:z:1,3"):
        ring = parse_ring(desc)
        assert parse_ring(ring.descriptor).descriptor == ring.descriptor
    with pytest.raises(ValueError):
        parse_ring("nope")


def test_cross_ring_element_rejected():
    with pytest.raises(ValueError):
        Z.check((1, 2))
    with pytest.raises(ValueError):
        ZQ.check([1, 2])
    with pytest.raises(ValueError):
        DUAL.check((1, 2, 3))


# --- the Z[q] kernel against the schoolbook oracle --------------------


def schoolbook_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return zp_trim(out)


def square_and_multiply_pow(a, e):
    result = ZP_ONE
    base = a
    while e:
        if e & 1:
            result = schoolbook_mul(result, base)
        base = schoolbook_mul(base, base)
        e >>= 1
    return result


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**65) + 1]),
)


def zq_elements(max_len):
    # raw tuples: zero, constants, leading negatives and untrimmed zeros
    return st.lists(COEFFS, max_size=max_len).map(tuple)


@settings(max_examples=150)
@given(zq_elements(2 * ZP_KRONECKER_MIN_LEN + 4), zq_elements(2 * ZP_KRONECKER_MIN_LEN + 4))
@example((), (1, 2))
@example((5,), (-7,))
@example((1, -1), (0, 0, -3))
@example((1,) * ZP_KRONECKER_MIN_LEN, (-(2**64),) * ZP_KRONECKER_MIN_LEN)
@example((0,) * ZP_KRONECKER_MIN_LEN, (1,) * ZP_KRONECKER_MIN_LEN)
@example((1,) * (ZP_KRONECKER_MIN_LEN - 1), (-1,) * 40)
def test_zp_mul_matches_schoolbook(a, b):
    assert zp_mul(a, b) == schoolbook_mul(a, b)
    assert zp_mul(b, a) == schoolbook_mul(a, b)


@settings(max_examples=150)
@given(zq_elements(12), st.integers(0, 8))
@example((), 0)
@example((), 3)
@example((0, 0), 2)
@example((-4,), 7)
@example((0, 0, 1), 8)
@example((3, 0, -(2**70)), 5)
def test_zp_pow_matches_square_and_multiply(a, e):
    assert zp_pow(a, e) == square_and_multiply_pow(a, e)


def test_zp_mul_at_the_slot_bound_borrows_correctly():
    # max|a| * max|b| * min(len) = 15 = 2^4 - 1 fills a 5-bit slot, one
    # short of where the signed digits would wrap; alternating signs make
    # every other slot negative, so each one borrows from its neighbour
    n = 15
    assert n >= ZP_KRONECKER_MIN_LEN
    ones, alternating = (1,) * n, tuple((-1) ** i for i in range(n))
    for a, b, middle in ((ones, ones, 15), (ones, tuple(-c for c in ones), -15),
                         (alternating, alternating, 15)):
        product = zp_mul(a, b)
        assert product == schoolbook_mul(a, b)
        assert product[n - 1] == middle
    # the same at 64-bit magnitudes, where the bound is 15 * (2^64 + 1)^2
    big = 2**64 + 1
    a, b = tuple(big * c for c in alternating), tuple(-big * c for c in alternating)
    assert zp_mul(a, b) == schoolbook_mul(a, b)
    assert zp_mul(a, b)[n - 1] == -15 * big * big


def test_zp_pow_of_a_high_monomial_is_instant():
    # the factor q^k is taken out before packing, so q^100000 packs (1,)
    assert zp_pow((0, 1), 100_000) == (0,) * 100_000 + (1,)
    assert zp_pow((0, 0, -2), 3) == (0,) * 6 + (-8,)


@pytest.mark.parametrize("ring, text", [
    (Z, "2^99999999999"),
    (Z, "-(3*2^5000)^99999999"),
    (ZQ, "q^99999999999"),
    (ZQ, "(1+q)^99999999"),
    (ZQ, "((2+q)^100000)^100000 - 1"),
    (ZModRing(7), "3^99999999999"),
])
def test_huge_exponents_exceed_the_budget_before_any_power(ring, text):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded):
            ring.from_str(text)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 100_000


def test_powers_within_the_budget_are_computed():
    assert Z.from_str("2^1000 - 2^1000") == 0
    assert ZQ.from_str("q^1000000")[-1] == 1
    assert ZQ.from_str("(1+q)^1000") == zp_pow((1, 1), 1000)
    assert Z.from_str("0^0 + 7^0") == 2
