"""Witt vector arithmetic: frozen values, ghost oracle, F/V, exactness."""

import pickle
import random

import pytest

from qwitt.errors import BudgetExceeded, CrossRingError, NotInGhostImage
from qwitt.rings import Z, ZQ, ZModRing, TwistedRing, parse_ring
from qwitt.truncset import TruncationSet
from qwitt.universal import Family
from qwitt import witt

S1 = TruncationSet.make([1])
S2 = TruncationSet.make([2])
S3 = TruncationSet.make([3])
S6 = TruncationSet.make([6])
CL = Family.classical()
QD = Family.qdef()


def ghost_oracle_add(a, b):
    """Independent route: add on the ghost side, then invert."""
    ga, gb = witt.ghost(a), witt.ghost(b)
    xs = [a.ring.add(x, y) for x, y in zip(ga, gb)]
    return witt.unghost(a.family, a.tset, a.ring, xs, q=a.qval)


def test_add_example_with_ghost_oracle():
    a = witt.make(CL, S2, Z, [1, 1])
    out = witt.add(a, a)
    assert out.coords == (2, 1)
    assert ghost_oracle_add(a, a).coords == (2, 1)


def test_mul_example_with_ghost_oracle():
    a = witt.make(CL, S2, Z, [1, 1])
    out = witt.mul(a, a)
    assert out.coords == (1, 4)
    # ghost (1,3) squared componentwise is (1,9); invert gives (1,4)
    assert witt.unghost(CL, S2, Z, [1, 9]).coords == (1, 4)


def test_zero_is_neutral_and_absorbing():
    rng = random.Random(31)
    for fam, ring, q in ((CL, Z, None), (QD, ZQ, None), (Family.lenart(3), Z, None)):
        z = witt.zero(fam, S6, ring, q)
        for _ in range(20):
            a = witt.random_vector(fam, S6, ring, rng, q)
            assert witt.eq(witt.add(a, z), a)
            assert witt.is_zero(witt.mul(a, z))
            assert witt.is_zero(witt.add(a, witt.neg(a)))


def test_qdef_second_coordinate():
    a = witt.make(QD, S2, ZQ, [(1,), (0, 1)])
    b = witt.make(QD, S2, ZQ, [(2,), (1,)])
    out = witt.add(a, b)
    # a2 + b2 - q*a1*b1 = q + 1 - 2q = 1 - q
    assert out.coord(2) == ZQ.from_str("1-q")
    assert witt.mul(a, b).coord(1) == ZQ.from_str("2*q")


def test_ghost_examples():
    a = witt.make(CL, S2, Z, [3, 5])
    assert witt.ghost(a) == (3, 19)
    aq = witt.make(QD, S2, ZQ, [(1,), (1,)])
    assert witt.ghost(aq) == (ZQ.from_str("1"), ZQ.from_str("q+2"))
    om = witt.teichmuller(CL, S6, Z, 2)
    assert witt.ghost(om) == (2, 4, 8, 64)


def test_unghost_examples():
    assert witt.unghost(CL, S2, Z, [2, 6]).coords == (2, 1)
    with pytest.raises(NotInGhostImage):
        witt.unghost(CL, S2, Z, [1, 2])


def test_unghost_round_trip_random():
    rng = random.Random(32)
    for _ in range(500):
        a = witt.random_vector(CL, S6, Z, rng)
        assert witt.unghost(CL, S6, Z, witt.ghost(a)).coords == a.coords


def test_frobenius_examples():
    a = witt.make(CL, S2, Z, [3, 5])
    assert witt.frobenius(a, 2).coords == (19,)
    ln = witt.make(Family.lenart(3), S2, Z, [2, 1])
    # p*a_p + q^(p-1)*a_1^p = 2 + 3*4 = 14
    assert witt.frobenius(ln, 2).coords == (14,)
    assert witt.frobenius(a, 1).coords == a.coords


def test_verschiebung_examples():
    v = witt.make(CL, S1, Z, [7])
    shifted = witt.verschiebung(v, 2, S2)
    assert shifted.coords == (0, 7)
    assert witt.ghost(shifted) == (0, 14)
    a = witt.make(CL, S6, Z, [1, 2, 3, 4])
    assert witt.verschiebung(a, 1, S6).coords == a.coords


def test_fv_is_multiplication_by_n():
    rng = random.Random(33)
    for _ in range(100):
        a = witt.random_vector(CL, S6.quotient(2), Z, rng)
        fv = witt.frobenius(witt.verschiebung(a, 2, S6), 2)
        assert fv.coords == witt.int_scale(2, a).coords


def test_teichmuller_multiplicative():
    for c1 in (-2, 3):
        for c2 in (5, -1):
            lhs = witt.mul(
                witt.teichmuller(CL, S6, Z, c1), witt.teichmuller(CL, S6, Z, c2)
            )
            assert lhs.coords == witt.teichmuller(CL, S6, Z, c1 * c2).coords


def test_teichmuller_frobenius():
    for c in (2, -3):
        for m in (2, 3, 6):
            fr = witt.frobenius(witt.teichmuller(CL, S6, Z, c), m)
            assert fr.coords == witt.teichmuller(CL, S6.quotient(m), Z, c**m).coords


def test_qdef_teichmuller_twisted_multiplicativity():
    # omega(a) * omega(b) = omega(q*a*b) for the deformed family
    rng = random.Random(35)
    for s in (S2, S3):
        for _ in range(50):
            a, b = ZQ.random(rng), ZQ.random(rng)
            lhs = witt.mul(
                witt.teichmuller(QD, s, ZQ, a), witt.teichmuller(QD, s, ZQ, b)
            )
            target = ZQ.mul(ZQ.from_str("q"), ZQ.mul(a, b))
            assert witt.eq(lhs, witt.teichmuller(QD, s, ZQ, target))


def test_project_section():
    a = witt.make(CL, S6, Z, [1, 2, 3, 4])
    assert witt.project(a, S3).coords == (1, 3)
    b = witt.make(CL, S3, Z, [5, 6])
    assert witt.project(witt.section(b, S6), S3).coords == b.coords
    rng = random.Random(36)
    zm = ZModRing(6)
    for _ in range(500):
        u = witt.random_vector(CL, S6, zm, rng)
        v = witt.random_vector(CL, S6, zm, rng)
        lhs = witt.project(witt.add(u, v), S3)
        rhs = witt.add(witt.project(u, S3), witt.project(v, S3))
        assert witt.eq(lhs, rhs)


def test_metadata_mismatch_rejected():
    a = witt.make(CL, S2, Z, [1, 1])
    b = witt.make(CL, S2, ZModRing(6), [1, 1])
    with pytest.raises(CrossRingError):
        witt.add(a, b)
    c = witt.make(QD, S2, ZQ, [(1,), (1,)])
    with pytest.raises(CrossRingError):
        witt.add(a, c)


def test_verschiebung_image_size():
    zm = ZModRing(3)
    image = {
        witt.verschiebung(w, 2, S2).coords
        for w in witt.enumerate_vectors(CL, S1, zm)
    }
    assert len(image) == 3
    assert all(c[0] == 0 for c in image)


def test_enumeration_lists_no_more_of_the_base_than_its_budget():
    # Z/(10^9+7) has a billion elements; listing them would take gigabytes
    zm = ZModRing(10**9 + 7)
    with pytest.raises(BudgetExceeded, match="at least 36 vectors"):
        next(witt.enumerate_vectors(CL, S2, zm, budget=5))
    assert len(list(witt.enumerate_vectors(CL, S2, ZModRing(3), budget=9))) == 9


def test_frobenius_mod_p_on_values():
    rng = random.Random(37)
    for _ in range(100):
        a = witt.random_vector(CL, S6, Z, rng)
        proj = witt.project(a, S3)
        diff = witt.sub(witt.frobenius(a, 2), witt.mul(proj, proj))
        assert witt.is_divisible(diff, 2)
        # and explicitly: ghost is divisible and the quotient inverts
        gh = witt.ghost(diff)
        assert all(x % 2 == 0 for x in gh)
        witt.unghost(CL, S3, Z, [x // 2 for x in gh])


def test_reduction_is_ring_hom_with_coordinatewise_kernel():
    rng = random.Random(38)
    zm = ZModRing(2)
    red = lambda v: witt.map_coords(v, zm.from_int, zm)
    for _ in range(100):
        a = witt.random_vector(CL, S2, Z, rng)
        b = witt.random_vector(CL, S2, Z, rng)
        assert witt.eq(red(witt.add(a, b)), witt.add(red(a), red(b)))
        assert witt.eq(red(witt.mul(a, b)), witt.mul(red(a), red(b)))
        assert witt.is_zero(red(a)) == all(c % 2 == 0 for c in a.coords)
    for v in witt.enumerate_vectors(CL, S2, zm):
        lift = witt.make(CL, S2, Z, [int(c) for c in v.coords])
        assert witt.eq(red(lift), v)


def test_nested_coeff_ring():
    W3 = witt.WittCoeffRing(Z, S3)
    rng = random.Random(40)
    for _ in range(50):
        a = W3.random(rng)
        k = rng.randint(1, 6)
        assert W3.eq(W3.try_div_int(W3.int_scale(k, a), k), a)
    assert W3.try_div_int((1, 0), 2) is None
    one = W3.one()
    a = W3.random(rng)
    assert W3.eq(W3.mul(one, a), a)


def test_classical_over_twisted_ring_matches_qdef():
    # W(A^(q)) and the deformed family with bound q act identically
    rng = random.Random(41)
    tw = TwistedRing(ZQ, (0, 1))
    for _ in range(40):
        coords1 = [ZQ.random(rng) for _ in S6]
        coords2 = [ZQ.random(rng) for _ in S6]
        a_tw = witt.make(CL, S6, tw, coords1)
        b_tw = witt.make(CL, S6, tw, coords2)
        a_qd = witt.make(QD, S6, ZQ, coords1)
        b_qd = witt.make(QD, S6, ZQ, coords2)
        assert witt.mul(a_tw, b_tw).coords == witt.mul(a_qd, b_qd).coords
        assert witt.add(a_tw, b_tw).coords == witt.add(a_qd, b_qd).coords
        assert witt.frobenius(a_tw, 6).coords == witt.frobenius(a_qd, 6).coords


def test_witt_coeff_rings_with_different_q_are_different_rings():
    # the q binding is part of the ring: two bindings must neither compare
    # equal nor share cached arithmetic
    r2 = witt.WittCoeffRing(ZModRing(7), S2, QD, q=2)
    r3 = witt.WittCoeffRing(ZModRing(7), S2, QD, q=3)
    assert r2 != r3 and r2.descriptor != r3.descriptor

    def square(ring):
        a = witt.make(CL, S3, ring, [(1, 1), (1, 1)])
        return witt.mul(a, a).coords

    assert square(r2) == ((2, 5), (1, 2))
    assert square(r3) == ((3, 3), (0, 2))


@pytest.mark.parametrize("base, q", [
    ("z", 3), ("zmod:7", 3), ("zq", None), ("dual", (2, 1)), ("twist:zmod:9:2", 2),
    ("witt:z:1,2", (2, 5)),
])
def test_parse_ring_reads_back_witt_descriptors(base, q):
    ring = parse_ring(base)
    rng = random.Random(42)
    tset = TruncationSet.make([2, 3])
    for family in (CL, QD, Family.qbar(), Family.lenart(2)):
        W = witt.WittCoeffRing(ring, tset, family, q if family.uses_q() else None)
        back = parse_ring(W.descriptor)
        assert back == W
        for _ in range(3):
            a, b = W.random(rng), W.random(rng)
            assert back.mul(a, b) == W.mul(a, b)


def test_resolving_a_q_binding_twice_changes_nothing():
    for desc, q in (("twist:zmod:7:3", 2), ("twist:z:2", 2), ("zmod:6", 8),
                    ("zq", 2), ("dual", 3), ("witt:z:1,2", 2)):
        ring = parse_ring(desc)
        once = witt.resolve_q(QD, ring, q)
        assert witt.resolve_q(QD, ring, once) == once
    assert witt.resolve_q(QD, parse_ring("twist:zmod:7:3"), 2) == 2


S12 = TruncationSet.make([12])
FAMILIES = ["classical", "qdef", "qbar", "lenart:2"]


@pytest.mark.parametrize("desc", ["z", "zmod:6", "zq", "dual"])
@pytest.mark.parametrize("label", FAMILIES)
def test_contexts_keep_one_set_change_map_per_target(desc, label):
    base, fam = parse_ring(desc), Family.parse(label)
    q = 2 if fam.uses_q() and desc != "zq" else None  # over zq, q is symbolic
    ctx = witt.WittCoeffRing(base, S12, fam, q)
    assert ctx.on(S12) is ctx
    for s2 in S12.sub_sets():
        assert ctx.on(s2) is witt.WittCoeffRing(base, s2, fam, q)
        assert ctx.on(s2).on(S12) is ctx
    # fill the maps of every context on a subset: projections, sections
    # and V_m between all the subsets that have them
    rng = random.Random(76)
    for s in S12.sub_sets():
        v = witt.random_vector(fam, s, base, rng, q)
        for t in S12.sub_sets():
            if t.is_subset(s):
                witt.project(v, t)
            if s.is_subset(t):
                witt.section(v, t)
            for m in t.elements[1:]:
                if t.quotient(m) == s:
                    witt.verschiebung(v, m, t)
    assert pickle.loads(pickle.dumps(ctx)) is ctx  # no map travels with it
    for s in S12.sub_sets():
        maps = ctx.on(s)._maps
        assert maps
        for (kind, m, elements), (target, index) in maps.items():
            # each entry is the map into its own target set, and no other
            assert target is ctx.on(TruncationSet(elements))
            assert len(index) == len(elements)
        targets = [(kind, m, id(target)) for (kind, m, _), (target, _) in maps.items()]
        assert len(set(targets)) == len(maps)


@pytest.mark.parametrize("desc", ["twist:z:2", "twist:zmod:6:5", "twist:zq:q", "twist:dual:1+eps",
                                  "twist:witt:zmod:4:1,2:(1,3)"])
def test_twisted_rings_pickle_back_to_equal_rings(desc):
    # a twisted ring binds its base's operations; it pickles as (base, r)
    ring = parse_ring(desc)
    back = pickle.loads(pickle.dumps(ring))
    assert back == ring and back.r == ring.r and back.unital == ring.unital
    rng = random.Random(78)
    for _ in range(20):
        a, b = ring.random(rng), ring.random(rng)
        for op in ("add", "sub", "mul", "eq"):
            assert getattr(back, op)(a, b) == getattr(ring, op)(a, b)
        assert back.neg(a) == ring.neg(a) and back.int_scale(3, a) == ring.int_scale(3, a)
        assert back.from_str(back.to_str(a)) == ring.from_str(ring.to_str(a)) == a
    for fam, q in ((CL, None), (QD, ring.random(rng))):
        ctx = witt.WittCoeffRing(ring, S6, fam, q)
        assert pickle.loads(pickle.dumps(ctx)) is ctx


def test_random_vector_draws_what_make_checks():
    for desc in ("z", "zmod:6", "zq", "dual", "twist:z:2", "witt:zmod:4:1,2"):
        ring = parse_ring(desc)
        r1, r2 = random.Random(77), random.Random(77)
        for fam, q in ((CL, None), (QD, 2)):
            for _ in range(20):
                got = witt.random_vector(fam, S6, ring, r1, q)
                assert got == witt.make(fam, S6, ring, [ring.random(r2) for _ in S6], q)
        assert r1.getstate() == r2.getstate()
