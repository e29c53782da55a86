"""Coefficient-ring instances: exactness, flags, divisibility, twists."""

import random

import pytest

from qwitt.errors import NonUniqueQuotient, UnsupportedRingOperation
from qwitt.rings import (
    DUAL,
    Z,
    ZQ,
    ZP_ONE,
    TwistedRing,
    ZModRing,
    parse_ring,
    zp_to_str,
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
