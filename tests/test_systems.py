"""Projective systems, the alpha construction, and the nesting isomorphism."""

import json
import random

import pytest
from test_differential import outcome

from qwitt.errors import CrossRingError, NotInGhostImage
from qwitt.rings import Z, ZQ, ZModRing, parse_ring
from qwitt.truncset import ONE_SET, TruncationSet
from qwitt.universal import Family
from qwitt import cli, systems, witt

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
    rep = systems.verify_rf(systems.ConstantSystem(ZQ, S2), budget=100)
    assert rep.failures and all(f.startswith("frobenius-congruence") for f in rep.failures)


def test_degenerate_verschiebung_fails_only_exactness():
    rep = systems.verify_rfv(
        systems.ConstantSystem(Z, S2, versch_scale=True), budget=60
    )
    assert not rep.passed
    assert rep.failures == ["exactness:p=2@1,2"]


def test_lenart_system_congruence_failure_matches_defect():
    # at q = 3 the {1,2} defect is None, and the congruence holds
    ok = systems.verify_rf(
        systems.WittSystem(Z, S2, family=Family.lenart(3)), budget=60
    )
    assert ok.passed


def test_alpha_is_iso_report():
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


def test_alpha_deterministic():
    ws = systems.WittSystem(Z, S6)
    a = (4, -2, 7, 1)
    first = systems.alpha(ws, S6, a)
    second = systems.alpha(ws, S6, a)
    assert first.coords == second.coords


def _counting_enumerations(monkeypatch) -> list:
    """How many elements each enumeration of a Witt ring gave out."""
    pulled = []
    real = witt.WittCoeffRing.enumerate

    def counting(self):
        pulled.append(0)
        for x in real(self):
            pulled[-1] += 1
            yield x

    monkeypatch.setattr(witt.WittCoeffRing, "enumerate", counting)
    return pulled


def test_exactness_past_the_enumeration_budget_is_sampled(monkeypatch, capsys):
    pulled = _counting_enumerations(monkeypatch)
    # W_S(Z/7) on {1,2,3,4,6,12} has 7^6 = 117649 elements, more than a
    # Witt ring enumerates at all; {1,2,3,4,6} has 16807
    argv = ["systems", "verify", "--instance", "witt:zmod:7:1,2,3,4,6,12", "--budget", "2"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert report["passed"]
    assert checks["exactness:p=2@1,2,3,4,6,12"] and checks["exactness:p=3@1,2,3,4,6"]
    assert max(pulled) <= systems.ENUM_BUDGET + 1


def test_exactness_stops_enumerating_past_the_budget(monkeypatch):
    pulled = _counting_enumerations(monkeypatch)
    s = TruncationSet.make([4, 6])  # W_S(Z/7) has 7^5 = 16807 elements
    assert systems._check_exactness(systems.WittSystem(ZModRing(7), s), s, 2,
                                    random.Random(1), 3)
    assert pulled == [systems.ENUM_BUDGET + 1]  # then sampled, never listed in full


S12, S5 = TruncationSet.make([12]), TruncationSet.make([5])
# (ring, family, q) of the differential test of the system maps
MAP_CASES = [
    ("z", "classical", None), ("z", "qdef", 2), ("zmod:4", "classical", None),
    ("zmod:4", "qdef", 2), ("zq", "classical", None), ("zq", "qdef", 2), ("zq", "qbar", None),
]


def _big(sys_, s):  # the set of the system's vectors at s
    return s.product(S5) if isinstance(sys_, systems.NestedWittSystem) else s


def _system_maps(sys_, rng):
    """Every map of sys_ from a subset of {1,2,3,4,6,12}, as (kind, source,
    tuple, target, m): project and section to every subset, F_m and V_m
    for m > 1, targets outside a map's domain included.  The tuples are
    drawn at each source and at each S/m, in that order."""
    for s in S12.sub_sets():
        a = sys_.context.on(_big(sys_, s)).random(rng)
        yield from ((kind, s, a, to, 1) for to in S12.sub_sets() for kind in ("proj", "section"))
        for m in S12.elements[1:]:
            yield "frob", s, a, s.quotient(m) if m in s else s, m
            if m in s:
                low = s.quotient(m)
                yield "versch", low, sys_.context.on(_big(sys_, low)).random(rng), s, m


def _system_map(sys_, kind, s, a, to, m):
    # the maps of W_S(A) take and give the coordinate of W_{1}(A) bare
    point = isinstance(sys_, systems.WittSystem)
    args = (s, to) if kind in ("proj", "section") else (m, s if kind == "frob" else to)
    value = getattr(sys_, kind)(*args, a[0] if point and s == ONE_SET else a)
    return _big(sys_, to), (value,) if point and to == ONE_SET else value


def _vector_map(sys_, kind, s, a, to, m):
    v = witt.WittVector(sys_.context.on(_big(sys_, s)), a)
    if kind in ("frob", "versch"):
        out = witt.frobenius(v, m) if kind == "frob" else witt.verschiebung(v, m, _big(sys_, to))
    else:
        out = (witt.project if kind == "proj" else witt.section)(v, _big(sys_, to))
    return out.tset, out.coords


def _by_definition(sys_, kind, s, a, to, m):
    """The target set and coordinates of project, section or V_m of a,
    read off the definitions one index at a time."""
    source, zero = _big(sys_, s), sys_.base.zero()
    return _big(sys_, to), tuple(a[source.index(n // m)] if n % m == 0 and n // m in source
                                 else zero for n in _big(sys_, to))


@pytest.mark.parametrize("desc, label, q", MAP_CASES)
def test_system_maps_on_tuples_match_the_vector_maps(desc, label, q):
    # every pair of subsets of {1,2,3,4,6,12}, in W_S(A) and in the nested
    # W_{S*{1,5}}(A): the system maps on coordinate tuples, witt's maps on
    # vectors, and the definitions give the same coordinates, and the maps
    # refuse each target outside their domain with the same CrossRingError
    base, fam, rng = parse_ring(desc), Family.parse(label), random.Random(75)
    for sys_ in (systems.WittSystem(base, S12, fam, q),
                 systems.NestedWittSystem(S12, S5, base, fam, q)):
        for kind, s, a, to, m in _system_maps(sys_, rng):
            got = outcome(CrossRingError, _system_map, sys_, kind, s, a, to, m)
            assert got == outcome(CrossRingError, _vector_map, sys_, kind, s, a, to, m)
            if not {"proj": to.is_subset(s), "section": s.is_subset(to), "frob": m in s}.get(
                    kind, True):
                assert isinstance(got, str), (kind, s, to, m)  # refused
            elif kind != "frob":
                assert got == _by_definition(sys_, kind, s, a, to, m)


def test_vector_verschiebung_refuses_a_wrong_domain():
    a = witt.make(CL, S2, Z, [1, 2])
    with pytest.raises(CrossRingError):
        witt.verschiebung(a, 5, S6)  # 5 is not in {1,2,3,6}
    with pytest.raises(CrossRingError):
        witt.verschiebung(a, 2, S6)  # {1,2,3,6}/2 is {1,3}, not {1,2}
    assert witt.verschiebung(a, 3, S6).coords == (0, 0, 1, 2)
