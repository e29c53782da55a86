"""Projective systems, the alpha construction, and the nesting isomorphism."""

import random

import pytest

from qwitt.errors import NotInGhostImage
from qwitt.rings import Z, ZQ, ZModRing, TwistedRing, parse_ring
from qwitt.truncset import ONE_SET, TruncationSet
from qwitt.universal import Family
from qwitt import systems, witt

S2 = TruncationSet.make([2])
S3 = TruncationSet.make([3])
S6 = TruncationSet.make([6])
CL = Family.classical()


def test_f_n_identity_and_composition():
    ws = systems.WittSystem(Z, S6)
    rng = random.Random(70)
    for _ in range(30):
        a = ws.sample(S6, rng)
        assert systems.f_n(ws, S6, 1, a) == a
        via_23 = ws.frob(3, S6.quotient(2), ws.frob(2, S6, a))
        via_32 = ws.frob(2, S6.quotient(3), ws.frob(3, S6, a))
        assert via_23 == via_32 == systems.f_n(ws, S6, 6, a)


def test_alpha_is_identity_on_witt_system():
    rng = random.Random(71)
    ws = systems.WittSystem(Z, S6)
    for _ in range(100):
        a = ws.sample(S6, rng)
        assert systems.alpha(ws, S6, a).coords == a
    wsq = systems.WittSystem(ZQ, S6, family=Family.qdef())
    for _ in range(25):
        a = wsq.sample(S6, rng)
        assert systems.alpha(wsq, S6, a).coords == a


def test_witt_system_keeps_its_q_binding():
    # the rings of the system and the vectors made with the same binding
    # multiply and apply Frobenius at one q
    base = parse_ring("twist:zmod:9:2")
    qd = Family.qdef()
    ws = systems.WittSystem(base, S3, qd, q=2)
    a, b = witt.make(qd, S3, base, [1, 1], q=2), witt.make(qd, S3, base, [2, 1], q=2)
    assert ws.ring(S3).mul(a.coords, b.coords) == witt.mul(a, b).coords
    assert ws.frob(3, S3, a.coords) == witt.frobenius(a, 3).coords[0]
    assert systems.verify_rfv(ws, budget=60).passed


def test_point_ring_of_a_twisted_base_multiplies_like_its_context():
    # over A = twist:z:2 at q = 3, W_{1}(A) scales by 3 through A's product:
    # x*y = 2*3*(2*x*y) = 12xy, not the 6xy of the flattened twist:z:6
    ws = systems.WittSystem(parse_ring("twist:z:2"), S3, Family.qdef(), q=3)
    assert ws.ring(ONE_SET).mul(5, 7) == 12 * 5 * 7
    rep = systems.alpha_is_iso(ws, S3)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("desc, label, q", [
    ("z", "qdef", 3), ("zq", "qbar", None), ("zmod:9", "qdef", 2),
    ("twist:z:2", "qdef", 3), ("twist:z:-3", "qbar", 2),
    ("twist:zmod:9:2", "qdef", 2), ("twist:zq:2", "qdef", (0, 1)),
    ("dual", "lenart:2", None), ("twist:z:2", "classical", None),
])
def test_point_ring_mul_is_the_context_mul_on_one(desc, label, q):
    base = parse_ring(desc)
    ws = systems.WittSystem(base, S6, Family.parse(label), q)
    point, w1 = ws.ring(ONE_SET), ws.context.on(ONE_SET)
    rng = random.Random(72)
    for _ in range(20):
        x, y = base.random(rng), base.random(rng)
        assert point.mul(x, y) == w1.mul((x,), (y,))[0]


def test_alpha_on_constant_system():
    cs = systems.ConstantSystem(Z, S2)
    assert systems.alpha(cs, S2, 2).coords == (2, -1)
    assert systems.alpha(cs, ONE_SET, 5).coords == (5,)
    # integrality over the bigger set, for many inputs
    cs6 = systems.ConstantSystem(Z, S6)
    for a in range(-25, 26):
        systems.alpha(cs6, S6, a)  # must not raise


def test_alpha_rejects_broken_congruence():
    # identity is not a Frobenius lift on the polynomial ring: q^2 != q mod 2
    csq = systems.ConstantSystem(ZQ, S2)
    with pytest.raises(NotInGhostImage):
        systems.alpha(csq, S2, (0, 1))


def test_verify_rf_reports():
    assert systems.verify_rf(systems.ConstantSystem(Z, S6), budget=100).passed
    rep = systems.verify_rf(systems.ConstantSystem(ZQ, S2), budget=100)
    assert not rep.passed
    assert all(f.startswith("frobenius-congruence") for f in rep.failures)


def test_verify_rfv_enumerated_and_sampled():
    assert systems.verify_rfv(systems.WittSystem(ZModRing(3), S2), budget=100).passed
    assert systems.verify_rfv(systems.WittSystem(Z, S6), budget=120).passed


def test_degenerate_verschiebung_fails_only_exactness():
    rep = systems.verify_rfv(
        systems.ConstantSystem(Z, S2, versch_scale=True), budget=60
    )
    assert not rep.passed
    assert rep.failures == ["exactness:p=2@1,2"]


def test_lenart_system_congruence_failure_matches_defect():
    rep = systems.verify_rf(
        systems.WittSystem(Z, S2, family=Family.lenart(2)), budget=60
    )
    assert any(f.startswith("frobenius-congruence") for f in rep.failures)
    ok = systems.verify_rf(
        systems.WittSystem(Z, S2, family=Family.lenart(3)), budget=60
    )
    assert ok.passed


def test_alpha_is_iso_report():
    rep = systems.alpha_is_iso(systems.WittSystem(Z, S6), S6, budget=40)
    assert rep.passed, rep.failures
    degen = systems.ConstantSystem(Z, S2, versch_scale=True)
    rep2 = systems.alpha_is_iso(degen, S2, budget=20)
    assert not rep2.passed


def test_alpha_commutes_with_projection_and_frobenius():
    rng = random.Random(72)
    cs = systems.ConstantSystem(Z, S6)
    for _ in range(30):
        a = rng.randint(-9, 9)
        al = systems.alpha(cs, S6, a)
        for sub in (S2, S3, ONE_SET):
            assert witt.eq(witt.project(al, sub), systems.alpha(cs, sub, a))
        for m in (2, 3, 6):
            lhs = witt.frobenius(al, m)
            rhs = systems.alpha(cs, S6.quotient(m), systems.f_n(cs, S6, m, a))
            assert witt.eq(lhs, rhs)


def test_alpha_verschiebung_intertwines():
    rng = random.Random(73)
    ws = systems.WittSystem(Z, S6)
    for p in (2, 3):
        sub = S6.quotient(p)
        for _ in range(30):
            a = ws.sample(sub, rng)
            lhs = systems.alpha(ws, S6, ws.versch(p, S6, a))
            rhs = witt.verschiebung(systems.alpha(ws, sub, a), p, S6)
            assert witt.eq(lhs, rhs)


def test_alpha_inverse_round_trip():
    rng = random.Random(74)
    ws = systems.WittSystem(Z, S6)
    for _ in range(30):
        a = ws.sample(S6, rng)
        w = systems.alpha(ws, S6, a)
        assert systems.alpha_inverse(ws, S6, w) == a


def test_nesting_iso_forward_example():
    iso = systems.auer(S2, S3, Z)
    v = witt.make(CL, S6, Z, [1, 2, 3, 4])
    nested = iso.forward(v)
    assert nested.tset == S2
    assert nested.ring.descriptor == "witt:z:1,3"
    assert witt.eq(iso.backward(nested), v)
    # double-ghost oracle: taking the ghost over the nested coefficient
    # ring and then the inner ghost of each component must reproduce the
    # full ghost of the original vector at the product indices
    full = witt.ghost(v)
    outer = witt.ghost(nested)  # entries are elements of W_{1,3}(Z)
    for i, n in enumerate(S2):
        inner = witt.make(CL, S3, Z, outer[i])
        gh = witt.ghost(inner)
        for j, m in enumerate(S3):
            assert gh[j] == full[S6.index(n * m)]


def test_nesting_iso_trivial_factor():
    iso = systems.auer(S2, ONE_SET, Z)
    v = witt.make(CL, S2, Z, [3, 7])
    nested = iso.forward(v)
    assert nested.coords == ((3,), (7,))
    assert witt.eq(iso.backward(nested), v)


def test_nesting_iso_is_ring_hom():
    rng = random.Random(75)
    iso = systems.auer(S2, S3, Z)
    for _ in range(100):
        a = witt.random_vector(CL, S6, Z, rng)
        b = witt.random_vector(CL, S6, Z, rng)
        assert witt.eq(iso.forward(witt.add(a, b)),
                       witt.add(iso.forward(a), iso.forward(b)))
        assert witt.eq(iso.forward(witt.mul(a, b)),
                       witt.mul(iso.forward(a), iso.forward(b)))


def test_nesting_iso_teichmuller():
    iso = systems.auer(S2, S3, Z)
    for c in (2, 3, 5):
        om = witt.teichmuller(CL, S6, Z, c)
        inner = witt.teichmuller(CL, S3, Z, c)
        outer = witt.teichmuller(CL, S2, iso.nested_ring, inner.coords)
        assert witt.eq(iso.forward(om), outer)


def test_nesting_iso_commutes_with_f_and_v():
    rng = random.Random(76)
    iso = systems.auer(S2, S3, Z)
    sys_obj = iso.system
    for _ in range(25):
        a = witt.random_vector(CL, S6, Z, rng)
        lhs = witt.frobenius(iso.forward(a), 2)
        rhs = systems.alpha(sys_obj, ONE_SET, sys_obj.frob(2, S2, a.coords))
        assert witt.eq(lhs, rhs)
        b = witt.random_vector(CL, S3, Z, rng)
        lhs = iso.forward(
            witt.make(CL, S6, Z, sys_obj.versch(2, S2, b.coords))
        )
        rhs = witt.verschiebung(systems.alpha(sys_obj, ONE_SET, b.coords), 2, S2)
        assert witt.eq(lhs, rhs)


def test_nesting_iso_twisted_base():
    rng = random.Random(77)
    tw = TwistedRing(ZQ, (0, 1))
    iso = systems.auer(S2, S3, tw)
    for _ in range(25):
        a = witt.random_vector(CL, S6, tw, rng)
        b = witt.random_vector(CL, S6, tw, rng)
        assert witt.eq(iso.forward(witt.mul(a, b)),
                       witt.mul(iso.forward(a), iso.forward(b)))
        assert witt.eq(iso.backward(iso.forward(a)), a)


def test_alpha_deterministic():
    ws = systems.WittSystem(Z, S6)
    a = (4, -2, 7, 1)
    first = systems.alpha(ws, S6, a)
    second = systems.alpha(ws, S6, a)
    assert first.coords == second.coords
