"""Deformation constructions: h/r, the integer-q isomorphism, the
twisted-ghost identification and its sign twin."""

import random

import pytest

from qwitt.errors import CertificationError, PDividesQ
from qwitt.rings import (Z, ZQ, ZModRing, ZP_ONE, ZP_Q, ZP_ZERO, zp_eval_int, zp_mul, zp_neg,
                         zp_pow, zp_sub)
from qwitt.truncset import TruncationSet
from qwitt.universal import Family
from qwitt import qdeform, witt

S2 = TruncationSet.make([2])
S3 = TruncationSet.make([3])


def test_h_poly_examples():
    assert qdeform.h_poly(2) == ZQ.from_str("2-q")
    assert qdeform.h_poly(3) == ZQ.from_str("3-3*q+q^2")


def test_h_poly_defining_identity():
    one_minus_q = zp_sub(ZP_ONE, ZP_Q)
    for p in (2, 3, 5, 7):
        h = qdeform.h_poly(p)
        assert zp_mul(ZP_Q, h) == zp_sub(ZP_ONE, zp_pow(one_minus_q, p))


def test_r_poly_examples():
    assert qdeform.r_poly(2) == ZQ.from_str("1-q")
    for p in (2, 3, 5, 7):
        r = qdeform.r_poly(p)
        # constant term of p*q*r = 1 - q^p - (1-q)^p is zero
        assert (r[0] if r else 0) == zp_eval_int(r, 0)


def test_lenart_iso_examples():
    a = witt.make(Family.lenart(3), S2, Z, [2, 5])
    assert qdeform.lenart_iso(2, 3, a).coords == (2, 9)  # (3-1)/2 = 1
    b = witt.make(Family.lenart(2), S3, Z, [2, 5])
    assert qdeform.lenart_iso(3, 2, b).coords == (2, 13)  # (4-1)/3 = 1
    with pytest.raises(PDividesQ):
        qdeform.lenart_iso(2, 2, witt.make(Family.lenart(2), S2, Z, [1, 0]))


def test_lenart_iso_is_ring_iso():
    # acceptance criterion 09 checks that it is additive and multiplicative
    # with a left inverse; here the inverse is a right inverse too
    rng = random.Random(50)
    for p, q in ((2, 3), (3, 2), (5, 2)):
        s = TruncationSet.make([p])
        fam = Family.lenart(q)
        for _ in range(300):
            fa = qdeform.lenart_iso(p, q, witt.random_vector(fam, s, Z, rng))
            back = qdeform.lenart_iso(p, q, qdeform.lenart_iso_inverse(p, q, fa))
            assert back.coords == fa.coords


def test_lenart_iso_builds_what_make_builds():
    # both maps return vectors of the interned target context, equal to the
    # witt.make route on the same coordinates, over z and zmod
    rng = random.Random(51)
    for ring in (Z, ZModRing(6)):
        for p, q in ((2, 3), (3, 2), (5, 2)):
            s = TruncationSet.make([p])
            for _ in range(20):
                a = witt.random_vector(Family.lenart(q), s, ring, rng)
                fa = qdeform.lenart_iso(p, q, a)
                assert fa == witt.make(Family.classical(), s, ring, fa.coords)
                assert fa.context is witt.WittCoeffRing(ring, s)
                back = qdeform.lenart_iso_inverse(p, q, fa)
                assert back == a and back.context is a.context
            # the same classical vector, carried to another integer q
            other = qdeform.lenart_iso_inverse(p, q + p, fa)
            assert other.context is witt.WittCoeffRing(ring, s, Family.lenart(q + p))
    a = witt.make(Family.lenart(3), S2, Z, [2, 5])
    with pytest.raises(CertificationError):  # a wrong family
        qdeform.lenart_iso(2, 5, a)
    with pytest.raises(CertificationError):
        qdeform.lenart_iso_inverse(2, 3, a)
    with pytest.raises(CertificationError):  # a wrong set
        qdeform.lenart_iso(3, 3, a)
    with pytest.raises(ValueError, match="p=4"):  # p not a prime
        qdeform.lenart_iso(4, 3, a)
    with pytest.raises(ValueError, match="p=4"):
        qdeform.lenart_iso_inverse(4, 3, witt.make(Family.classical(), S2, Z, [2, 5]))


def test_lenart_frobenius_defect():
    w = qdeform.lenart_frobenius_defect(2, 2)
    assert w.coords == (1, 0)
    # recompute the defect by hand: F_2(1,0) = 2, pi(w)^2 = 1, 2 != 1 mod 2
    assert witt.frobenius(w, 2).coords == (2,)
    assert (2 - 1) % 2 != 0
    assert qdeform.lenart_frobenius_defect(3, 2) is None
    assert qdeform.lenart_frobenius_defect(5, 2) is None


def test_qbar_identification_base_case():
    # even at g = 1 - q (the base twisted-ghost family against the plain
    # deformation, both with twist q) the identification is nontrivial:
    # the additive laws differ (coefficient 2 - q versus q at the prime 2),
    # and inverting the ghost gives alpha_2 = x2 + (1 - q) * x1^2
    from qwitt.mpoly import MPoly, Q, xvar

    ident = qdeform.qbar_to_qdef_iso(zp_sub(ZP_ONE, ZP_Q), S2)
    x1, x2 = MPoly.var(xvar(1)), MPoly.var(xvar(2))
    assert ident.alpha[1] == x1
    assert ident.alpha[2] == x2 + (MPoly.const(1) - MPoly.var(Q)) * x1**2
    assert ident.report.passed


@pytest.mark.parametrize("family, law, n, check", [
    (Family.qbar(ZP_Q), "sigma", 2, "hom:sigma:2"),
    (Family.qbar(ZP_Q), "frob:2", 1, "frobenius:2:1"),
    (Family.qdef(), "frob:3", 2, "frobenius:3:2"),
    (Family.qdef(), "pi", 6, "sign-twin:pi:6"),
], ids=["qbar-sigma", "qbar-frob", "qdef-frob", "qdef-pi"])
def test_qbar_identification_refuses_a_changed_polynomial(plant, family, law, n, check):
    # the identification at g = q reads the twisted-ghost set at q and the
    # deformation set, at twist 1 - q and at its sign twin q - 1
    s6 = TruncationSet.make([6])
    assert qdeform.qbar_to_qdef_iso(ZP_Q, s6).report.passed
    plant(family, s6, law, n)
    with pytest.raises(CertificationError) as refused:
        qdeform.qbar_to_qdef_iso(ZP_Q, s6)
    assert check in str(refused.value).split(": ", 1)[1].split(", ")


def test_twist_candidate_search():
    # exactly the two unit multiples of 1 - g survive
    for g, goods in (
        (ZP_Q, [zp_sub(ZP_ONE, ZP_Q), zp_sub(ZP_Q, ZP_ONE)]),
        (ZP_ZERO, [ZP_ONE, zp_neg(ZP_ONE)]),
    ):
        for cand in goods:
            assert qdeform.certify_twist_candidate(g, S2, cand)
        for cand in ((2,), (0, 0, 1), (0, 2), ZP_ZERO if g == ZP_Q else ZP_Q):
            assert not qdeform.certify_twist_candidate(g, S2, cand)


def test_qbar_identification_on_values():
    # the polynomial identification evaluates to a working ring map:
    # the target is the deformed family with its parameter bound to 1 - g
    from qwitt.mpoly import Q, xvar

    rng = random.Random(51)
    g = ZP_Q
    ident = qdeform.qbar_to_qdef_iso(g, S2)
    r = zp_sub(ZP_ONE, g)
    fam_src = Family.qbar(g)

    def apply(vec):
        assign = {xvar(d): vec.coord(d) for d in S2}
        assign[Q] = ZP_Q
        coords = [ident.alpha[n].eval(ZQ, assign) for n in S2]
        return witt.make(Family.qdef(), S2, ZQ, coords, q=r)

    for _ in range(50):
        a = witt.random_vector(fam_src, S2, ZQ, rng)
        b = witt.random_vector(fam_src, S2, ZQ, rng)
        assert witt.eq(apply(witt.add(a, b)), witt.add(apply(a), apply(b)))
        assert witt.eq(apply(witt.mul(a, b)), witt.mul(apply(a), apply(b)))
