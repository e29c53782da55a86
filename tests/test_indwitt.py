"""Witt vectors of inductive systems: ghost, laws, lifts, image tests."""

import random

import pytest

from qwitt.errors import NotInImage
from qwitt.rings import Z, ZQ, zp_from_int
from qwitt.truncset import TruncationSet, divisors
from qwitt.universal import Family
from qwitt import indwitt as iw
from qwitt import witt

S2 = TruncationSet.make([2])
S4 = TruncationSet.make([4])
S6 = TruncationSet.make([6])
CL = Family.classical()


def test_ind_ghost_prime_formula():
    sys = iw.chain_system(S2)
    v = iw.make(sys, [3, ZQ.from_str("q")])
    gh = iw.ind_ghost(v)
    # x_p = pi(a_1)^p + p*a_p
    assert gh[0] == 3
    assert gh[1] == ZQ.from_str("9+2*q")


def test_constant_system_reduces_to_plain_witt():
    rng = random.Random(80)
    sys = iw.constant_system(Z, S6)
    for _ in range(50):
        v, w = iw.random_vector(sys, rng), iw.random_vector(sys, rng)
        wv = witt.make(CL, S6, Z, v.coords)
        ww = witt.make(CL, S6, Z, w.coords)
        assert iw.ind_ghost(v) == witt.ghost(wv)
        assert iw.ind_add(v, w).coords == witt.add(wv, ww).coords
        assert iw.ind_mul(v, w).coords == witt.mul(wv, ww).coords
        assert iw.ind_neg(v).coords == witt.neg(wv).coords
        for n in (2, 3, 6):
            assert iw.ind_frobenius(v, n).coords == witt.frobenius(wv, n).coords
        sub = S6.quotient(2)
        b = iw.make(sys.restrict(sub), [1, 5])
        assert iw.ind_verschiebung(sys, b, 2).coords == \
            witt.verschiebung(witt.make(CL, sub, Z, [1, 5]), 2, S6).coords


def test_ring_ops_are_the_classical_law_at_each_divisor_set():
    # coordinate n of a sum, product or negative is the last coordinate of
    # the classical op on W_{div(n)}(A_n) at the coordinates pushed into
    # A_n, a context built here for each n and each system; the systems
    # are the indwitt suite's, and shift views of two of them
    rng = random.Random(82)
    systems = [iw.constant_system(Z, S4), iw.trivial_system(Z, S4), iw.chain_system(S2),
               iw.constant_system(Z, S2, identity_lift=True),
               iw.constant_system(Z, S4, identity_lift=True), iw.qpow_system(S2),
               iw.qpow_system(S4), iw.constant_system(Z, S6)]
    systems += [systems[2].shift(2), systems[6].shift(2)]
    for sys in systems:
        for _ in range(20):
            v, w = iw.random_vector(sys, rng), iw.random_vector(sys, rng)
            got = zip(sys.tset, iw.ind_add(v, w).coords, iw.ind_mul(v, w).coords,
                      iw.ind_neg(v).coords)
            for n, add, mul, neg in got:
                div = TruncationSet.make([n])
                a, b = (witt.make(CL, div, sys.ring(n),
                                  [sys.push(d, n, u.coord(d)) for d in divisors(n)])
                        for u in (v, w))
                assert add == witt.add(a, b).coords[-1]
                assert mul == witt.mul(a, b).coords[-1]
                assert neg == witt.neg(a).coords[-1]


def test_trivial_system_ghost():
    sys = iw.trivial_system(Z, S4)
    v = iw.make(sys, [5, -2, 7])
    assert iw.ind_ghost(v) == (5, -4, 28)  # (n * a_n)


def test_trivial_system_frobenius_scales():
    sys = iw.trivial_system(Z, S4)
    v = iw.make(sys, [5, -2, 7])
    assert iw.ind_frobenius(v, 2).coords == (2 * -2, 2 * 7)
    w = iw.make(iw.trivial_system(Z, S6), [1, 2, 3, 4])
    assert iw.ind_frobenius(w, 3).coords == (3 * 3, 3 * 4)


def test_add_zero_neutral():
    rng = random.Random(82)
    for sys in (iw.constant_system(Z, S4), iw.chain_system(S2), iw.trivial_system(Z, S4)):
        z = iw.zero(sys)
        for _ in range(20):
            v = iw.random_vector(sys, rng)
            assert iw.eq(iw.ind_add(v, z), v)


def test_powers_below_1_are_refused():
    v = iw.make(iw.constant_system(Z, S2), [3, 1])
    assert iw.ind_pow(v, 1).coords == (3, 1)
    assert iw.ind_pow(v, 2).coords == iw.ind_mul(v, v).coords
    for e in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            iw.ind_pow(v, e)


def test_ghost_naturality_of_frobenius():
    rng = random.Random(83)
    for sys in (iw.constant_system(Z, S6), iw.chain_system(S6)):
        for _ in range(30):
            v = iw.random_vector(sys, rng)
            full = iw.ind_ghost(v)
            for n in (2, 3):
                shifted_ghost = iw.ind_ghost(iw.ind_frobenius(v, n))
                for i, k in enumerate(S6.quotient(n)):
                    assert shifted_ghost[i] == full[S6.index(n * k)]


def test_ind_ghost_is_ring_hom():
    rng = random.Random(85)
    sys = iw.constant_system(Z, S6)
    for _ in range(100):
        v, w = iw.random_vector(sys, rng), iw.random_vector(sys, rng)
        gv, gw = iw.ind_ghost(v), iw.ind_ghost(w)
        assert iw.ind_ghost(iw.ind_add(v, w)) == tuple(a + b for a, b in zip(gv, gw))
        assert iw.ind_ghost(iw.ind_mul(v, w)) == tuple(a * b for a, b in zip(gv, gw))


def test_res_and_proj_are_ring_maps():
    rng = random.Random(86)
    sys = iw.chain_system(S6)
    sub = TruncationSet.make([3])
    for _ in range(50):
        v, w = iw.random_vector(sys, rng), iw.random_vector(sys, rng)
        assert iw.res(iw.ind_mul(v, w)) == iw.res(v) * iw.res(w)
        assert iw.res(iw.ind_add(v, w)) == iw.res(v) + iw.res(w)
        assert iw.proj(iw.ind_mul(v, w), sub).coords == iw.ind_mul(
            iw.proj(v, sub), iw.proj(w, sub)
        ).coords


def test_dwork_examples():
    sys = iw.constant_system(Z, S2, identity_lift=True)
    assert iw.dwork_test(sys, [3, 5])
    assert iw.dwork_invert(sys, [3, 5]).coords == (3, -2)
    assert not iw.dwork_test(sys, [3, 4])
    with pytest.raises(NotInImage):
        iw.dwork_invert(sys, [3, 4])


def test_dwork_prime_power_exponent():
    # at the top of {1,2,4} the congruence runs mod 2^2 against the lifted
    # second component (the identity here), while at 2 it runs mod 2 only;
    # brute force over a grid checks the test against the inversion
    sys = iw.constant_system(Z, S4, identity_lift=True)
    x1 = 1
    hits = 0
    for x2 in range(-20, 21):
        for x4 in range(-20, 21):
            passed = iw.dwork_test(sys, [x1, x2, x4])
            manual = (x2 - x1) % 2 == 0 and (x4 - x2) % 4 == 0
            assert passed == manual
            try:
                iw.dwork_invert(sys, [x1, x2, x4])
                inverted = True
            except NotInImage:
                inverted = False
            assert inverted == passed
            hits += passed
    assert hits > 0


def test_universal_lift_examples():
    sys = iw.constant_system(Z, S2, identity_lift=True)
    lam = iw.dwork_lift(sys, 1, 2)
    assert lam.coords == (2, -1)
    assert iw.res(lam) == 2


def test_universal_lift_properties():
    rng = random.Random(88)
    for sys in (
        iw.constant_system(Z, S4, identity_lift=True),
        iw.qpow_system(S4),
        iw.chain_system(S6),
    ):
        for n in sys.tset:
            for _ in range(10):
                a = sys.sample(n, rng)
                lifted = iw.dwork_lift(sys, n, a)
                assert sys.ring(n).eq(iw.res(lifted), a)
        for p in sys.tset.primes():
            for _ in range(10):
                a = sys.sample(1, rng)
                lhs = iw.dwork_lift(sys, p, sys.lift(p, p, a))
                rhs = iw.ind_frobenius(iw.dwork_lift(sys, 1, a), p)
                assert lhs.system.key() == rhs.system.key()
                assert lhs.coords == rhs.coords


def test_induced_lift_two_routes_and_functoriality():
    rng = random.Random(89)
    sysA = iw.constant_system(Z, S2, identity_lift=True)
    chain = iw.chain_system(S2)

    def hom(n, a):
        return a if n == 1 else zp_from_int(a)

    for _ in range(25):
        a = rng.randint(-9, 9)
        via_lam = iw.induced_lift(sysA, chain, hom, 1, a, via="lambda")
        direct = iw.induced_lift(sysA, chain, hom, 1, a, via="direct")
        assert via_lam.coords == direct.coords
        assert iw.res(via_lam) == hom(1, a)
        # ghost of the lift is the pushed lift family
        gh = iw.ind_ghost(via_lam)
        assert gh == (hom(1, a), hom(2, a))
    # identity hom turns the induced lift into the universal lift
    for _ in range(10):
        a = rng.randint(-9, 9)
        same = iw.induced_lift(sysA, sysA, lambda n, x: x, 1, a, via="lambda")
        assert same.coords == iw.dwork_lift(sysA, 1, a).coords


def test_frobenius_power_congruence_instances():
    assert iw.frobenius_power_congruence(iw.constant_system(Z, S6), 3)


def test_nested_transitions_compose():
    sys = iw.constant_system(Z, S6, identity_lift=True)
    for a in (-3, 2, 9):
        v = iw.dwork_lift(sys, 1, a)
        one_step = iw.nested_transition(sys, 1, 6, v)
        two_step = iw.nested_transition(
            sys, 2, 6, iw.nested_transition(sys, 1, 2, v)
        )
        assert one_step.coords == two_step.coords
        assert one_step.system.key() == two_step.system.key()


def test_shift_view_arithmetic():
    sys = iw.qpow_system(S4)
    shifted = sys.shift(2)
    assert shifted.tset == S2
    assert shifted.shift(2).tset.elements == (1,)
    v = iw.make(shifted, [ZQ.from_str("q"), ZQ.from_str("1")])
    gh = iw.ind_ghost(v)
    assert gh[0] == ZQ.from_str("q")
    assert gh[1] == ZQ.from_str("q^2+2")
