"""Coefficient-ring instances: exactness, flags, divisibility, twists."""

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st
from test_differential import zq_elements

from qwitt.errors import BudgetExceeded, NonUniqueQuotient, UnsupportedRingOperation
from qwitt.truncset import MAX_ELEMENT
from qwitt.rings import (
    _ZP_LEAF,
    DUAL,
    Z,
    ZQ,
    ZP_KRONECKER_MIN_LEN,
    ZP_ONE,
    UNITS_BUDGET,
    TwistedRing,
    ZModRing,
    _zp_pack,
    _zp_pow_series,
    _zp_unpack,
    parse_ring,
    randint,
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
    with pytest.raises(UnsupportedRingOperation):
        DUAL.units()


def test_large_moduli_refuse_what_they_cannot_bound():
    # a prime near 10^20: the ring is built at once, and neither walks range(m)
    # nor factors m by trial division, which would take hours
    big = ZModRing(10**20 + 39)
    with pytest.raises(UnsupportedRingOperation, match="reduced"):
        big.reduced
    with pytest.raises(UnsupportedRingOperation, match="units"):
        big.units()
    with pytest.raises(UnsupportedRingOperation, match="units"):
        ZModRing(UNITS_BUDGET + 1).units()
    assert len(ZModRing(UNITS_BUDGET).units()) == UNITS_BUDGET // 2
    assert ZModRing(MAX_ELEMENT).reduced is False


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


# Every range the library draws from: the rings' random elements, the suites'
# draws, and (0, m-1) for each modulus a suite draws from.
DRAW_RANGES = [(-9, 9), (-3, 3), (0, 2), (1, 12), (1, 4), (-4, 4), (-20, 20),
               *((0, m - 1) for m in (2, 3, 4, 6, 9))]


@pytest.mark.parametrize("seed", [1, 1729, -5, 123456])
def test_the_draw_helper_draws_what_randint_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for a, b in DRAW_RANGES * 200:
        assert randint(ours, a, b) == theirs.randint(a, b)
        assert ours.getstate() == theirs.getstate()
    for a, b in ((0, -1), (3, 1)):
        with pytest.raises(ValueError):
            randint(ours, a, b)
        with pytest.raises(ValueError):
            theirs.randint(a, b)
    assert ours.getstate() == theirs.getstate()


def test_twist_composition():
    # (A^(r))^(r') multiplies by r*r' through the underlying product
    tw = TwistedRing(TwistedRing(Z, 2), 3)
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


@settings(max_examples=60)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.sampled_from([-(2**40), -2, -1, 1, 3]), st.integers(2, 40))
@example([1], 1, 300)  # (1+q)^300, past ZP_SERIES_MIN_BITS per coefficient
@example([-1, 2], 3, 150)
def test_zp_pow_series_matches_square_and_multiply(rest, b0, e):
    b = zp_trim([b0] + rest)
    assert _zp_pow_series(b, e) == square_and_multiply_pow(b, e)
    assert zp_pow((0,) + b, e) == square_and_multiply_pow((0,) + b, e)


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


def slotwise_pack(a, s):
    """The packing every length used before long tuples were split in
    halves: one coefficient at a time."""
    x = gap = 0
    for c in reversed(a):
        gap += s
        if c:
            x = (x << gap) + c
            gap = 0
    return x << gap


def slotwise_unpack(x, s, n):
    """The unpacking every length used before long integers were split in
    halves: one slot at a time, each shift costing what is left of x."""
    mask, half, full = (1 << s) - 1, 1 << (s - 1), 1 << s
    out = []
    i = 0
    while i < n:
        c = x & mask
        if not c:
            if not x:
                break
            run = min(((x & -x).bit_length() - 1) // s, n - i)
            out += [0] * run
            x >>= s * run
            i += run
            continue
        x >>= s
        if c >= half:
            c -= full
            x += 1
        out.append(c)
        i += 1
    return zp_trim(out)


@st.composite
def balanced_digits(draw):
    """(digits, s, n): balanced base-2^s digits with runs of zeros and
    extreme values, over lengths on both sides of the split size, and a
    count n of slots to read back that may be short of them or past them."""
    s = draw(st.sampled_from([1, 2, 3, 7, 30, 31, 64]))
    half = 1 << (s - 1)
    digit = st.one_of(st.just(0), st.just(-half), st.just(half - 1),
                      st.integers(-half, half - 1))
    run = st.lists(digit, max_size=2 * _ZP_LEAF) | st.lists(st.just(0), max_size=3 * _ZP_LEAF)
    digits = draw(st.lists(run, max_size=6).map(lambda rs: [d for r in rs for d in r]))
    # the top digit is not 0; at s = 1 the digits are -1 and 0
    digits.append(draw(st.sampled_from([-half, -1] + [1, half - 1] * (s > 1))))
    n = len(digits) + draw(st.sampled_from([0, 0, 1, 5, -1, -_ZP_LEAF]))
    return tuple(digits), s, max(n, 1)


@settings(max_examples=200)
@given(balanced_digits())
@example(((0,) * _ZP_LEAF + (-1,), 1, _ZP_LEAF + 1))
@example(((0,) * 2 * _ZP_LEAF + (-4,), 3, 2 * _ZP_LEAF + 1))
@example(((15,) * 3 * _ZP_LEAF + (1,), 5, 3 * _ZP_LEAF))
def test_zp_pack_and_unpack_match_the_slotwise_loops(case):
    digits, s, n = case
    x = _zp_pack(digits, s)
    assert x == slotwise_pack(digits, s)
    assert _zp_unpack(x, s, n) == slotwise_unpack(x, s, n)
    if n >= len(digits):
        assert _zp_unpack(x, s, n) == zp_trim(digits)


def test_a_long_dense_tuple_packs_and_unpacks_in_near_linear_time():
    e = 3000  # the coefficients of (1+q)^3000: 3001 slots of 3002 bits
    s = (2**e).bit_length() + 1
    coeffs = tuple(math.comb(e, k) for k in range(e + 1))
    start = time.perf_counter()
    x = _zp_pack(coeffs, s)
    back = _zp_unpack(x, s, e + 1)
    elapsed = time.perf_counter() - start
    assert back == coeffs
    assert elapsed < 0.5, f"packing and unpacking 3001 slots took {elapsed:.2f} s"


def test_a_power_near_the_expression_budget_is_computed_in_seconds():
    # packed, this is one big-int ** of 9 million bits; the series
    # recurrence takes 3000 small-by-big products instead
    start = time.perf_counter()
    power = ZQ.from_str("(1+q)^3000")
    elapsed = time.perf_counter() - start
    assert power == tuple(math.comb(3000, k) for k in range(3001))
    assert elapsed < 2, f"(1+q)^3000 took {elapsed:.1f} s"


def test_bits_sum_the_bit_lengths_of_an_elements_integers():
    from qwitt.truncset import TruncationSet
    from qwitt.witt import WittCoeffRing

    assert Z.bits(-5) == 3 and Z.bits(0) == 0
    assert ZModRing(100).bits(99) == 7
    assert ZQ.bits((1, 0, -4)) == 4
    assert DUAL.bits((2, -3)) == 4
    assert TwistedRing(ZQ, (0, 1)).bits((5,)) == 3
    assert WittCoeffRing(DUAL, TruncationSet.make([1, 2])).bits(((1, 1), (8, 0))) == 6


@pytest.mark.parametrize("ring", [DUAL, TwistedRing(Z, 2), TwistedRing(ZQ, (1, 1))],
                         ids=lambda r: r.descriptor)
def test_generic_pow_is_the_repeated_product(ring):
    rng = random.Random(5)
    for _ in range(20):
        a = ring.random(rng)
        acc = a
        for e in range(1, 40):
            assert ring.pow(a, e) == acc, e
            acc = ring.mul(acc, a)


def test_generic_pow_of_a_large_exponent_is_quick_or_refused():
    # Ring.pow squares, so a large exponent costs about 2*log2(e) products,
    # and it refuses a power whose e * bits(a) passes MAX_BITS first: a loop
    # of e - 1 products ran for minutes in the ring loops of a Witt op
    t = time.perf_counter()
    assert DUAL.pow((1, 1), 10**6) == (1, 10**6)
    assert DUAL.pow((0, 0), 10**9) == (0, 0)
    assert time.perf_counter() - t < 1
    for ring, a in ((DUAL, (2, 0)), (DUAL, (1, 1)), (TwistedRing(Z, 2), 1)):
        with pytest.raises(BudgetExceeded):
            ring.pow(a, 100000007)
