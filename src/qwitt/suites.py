"""Named verification suites behind the command line's ``verify``.

Each suite re-derives a slice of the theory and machine-checks its
identities, exactly, on seeded samples or full enumerations.  Budgets
scale sample counts; seeds make every run reproducible.
"""

from __future__ import annotations

import math
import os
import random
import sys
import threading

from . import universal, witt
from . import rings as ring_mod
from .errors import Error, IntegralityViolation, NotInImage
from .mpoly import MPoly, Q, xvar, yvar
from .report import Report
from .rings import DUAL, Z, ZQ, ZModRing, TwistedRing, ZP_ONE, ZP_Q, ZP_ZERO, randint
from .truncset import TruncationSet
from .universal import Family


def suite_truncset(budget: int = 200, seed: int = 1729) -> Report:
    rep = Report("truncset")
    sets = [TruncationSet.make(e) for e in ([1], [2], [4], [6], [12], [2, 9], [30])]
    ok = all(s.quotient(1) == s for s in sets)
    rep.add("quotient-by-1", ok)
    ok = True
    for s in sets:
        for n in s:
            for m in s.quotient(n):
                if n * m in s:
                    if s.quotient(n).quotient(m) != s.quotient(n * m):
                        ok = False
    rep.add("quotient-composes", ok)
    ok = True
    for s in sets:
        for p in s.primes():
            shifted = {p * v for v in s.quotient(p)}
            rest = set(s.prime_complement(p).elements)
            if shifted | rest != set(s.elements) or shifted & rest:
                ok = False
    rep.add("prime-splitting", ok)
    t1, t2 = TruncationSet.make([4]), TruncationSet.make([3])
    prod = t1.product(t2)
    ok = all(
        prod.quotient(n) == t1.quotient(n).product(t2) for n in t1
    )
    rep.add("product-quotient", ok)
    rep.add(
        "sub-sets-brute-force",
        [t.elements for t in TruncationSet.make([4]).sub_sets()]
        == [(1,), (1, 2), (1, 2, 4)],
    )
    return rep


def suite_rings(budget: int = 1000, seed: int = 1729) -> Report:
    rep = Report("rings")
    rng = random.Random(seed)
    instances = [
        Z,
        ZQ,
        DUAL,
        ZModRing(6),
        ZModRing(4),
        ZModRing(9),
        TwistedRing(Z, 2),
        TwistedRing(ZQ, ZP_Q),
        witt.WittCoeffRing(Z, TruncationSet.make([3])),
    ]
    for ring in instances:
        ok = True
        for _ in range(max(1, budget // len(instances))):
            a, b, c = (ring.random(rng) for _ in range(3))
            if not ring.eq(ring.add(a, b), ring.add(b, a)):
                ok = False
            if not ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))):
                ok = False
            if not ring.eq(ring.mul(a, b), ring.mul(b, a)):
                ok = False
            if not ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))):
                ok = False
            if not ring.eq(
                ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
            ):
                ok = False
            if not ring.is_zero(ring.add(a, ring.neg(a))):
                ok = False
            if not ring.eq(ring.int_scale(3, ring.mul(a, b)),
                           ring.mul(ring.int_scale(3, a), b)):
                ok = False
        rep.add(f"axioms:{ring.descriptor}", ok)
    ok = True
    for ring in (Z, ZQ, DUAL, witt.WittCoeffRing(Z, TruncationSet.make([2]))):
        for _ in range(50):
            a = ring.random(rng)
            k = randint(rng, 1, 12)
            quot = ring.try_div_int(ring.int_scale(k, a), k)
            if quot is None or not ring.eq(quot, a):
                ok = False
    rep.add("div-int-roundtrip", ok)
    tw = TwistedRing(TwistedRing(Z, 2), 3)
    rep.add("twist-composition", tw.mul(5, 7) == 2 * 3 * 5 * 7)
    unit_tw = TwistedRing(ZModRing(6), 5)
    rep.add("unit-twist-identity", unit_tw.eq(unit_tw.mul(unit_tw.one(), 4), 4))
    rep.add("units-zmod6", ZModRing(6).units() == [1, 5])
    rep.add("units-z", Z.units() == [1, -1])
    rep.add("units-zq", ZQ.units() == [ZP_ONE, (-1,)])
    return rep


_RAND_VARS = (xvar(1), xvar(2), yvar(1), Q)


def _rand_poly(rng) -> MPoly:
    """A sum of 1 to 4 terms c * x1^a * x2^b * y1^c * q^d, c from -4 to 4 and
    each exponent from 0 to 2, drawn in that order."""
    out = MPoly.zero()
    for _ in range(randint(rng, 1, 4)):
        c = randint(rng, -4, 4)
        out = out + MPoly.term(c, [(v, randint(rng, 0, 2)) for v in _RAND_VARS])
    return out


def suite_mpoly(budget: int = 500, seed: int = 1729) -> Report:
    rep = Report("mpoly")
    rng = random.Random(seed)
    zm = ZModRing(6)
    ok_hom = True
    ok_sub = True
    for _ in range(budget):
        p, r = _rand_poly(rng), _rand_poly(rng)
        assign = {v: zm.random(rng) for v in _RAND_VARS}
        at_p, at_r = p.eval(zm, assign), r.eval(zm, assign)
        if (p + r).eval(zm, assign) != zm.add(at_p, at_r):
            ok_hom = False
        if (p * r).eval(zm, assign) != zm.mul(at_p, at_r):
            ok_hom = False
        sub = _rand_poly(rng)
        composed = p.substitute({xvar(1): sub}).eval(zm, assign)
        if composed != p.eval(zm, {**assign, xvar(1): sub.eval(zm, assign)}):
            ok_sub = False
    rep.add("eval-is-ring-hom", ok_hom)
    rep.add("substitute-then-eval", ok_sub)
    ok = True
    for _ in range(100):
        p = _rand_poly(rng)
        k = randint(rng, 1, 12)
        if (k * p).try_div_int(k) != p:
            ok = False
    rep.add("div-int-roundtrip", ok)
    rep.add("json-roundtrip", all(
        MPoly.from_json(rp.to_json()) == rp for rp in (_rand_poly(rng) for _ in range(50))
    ))
    return rep


def suite_universal(budget: int = 0, seed: int = 1729) -> Report:
    from . import qdeform
    rep = Report("universal")
    families = [Family.classical(), Family.qdef(), Family.qbar(), Family.lenart(2)]
    sets = [TruncationSet.make(e) for e in ([2], [3], [4], [6], [2, 9], [12])]
    for fam in families:
        ok = all(universal.roundtrip_certificate(fam, s) for s in sets[:5])
        rep.add(f"ghost-roundtrip:{fam.label()}", ok)
    s6 = TruncationSet.make([6])
    swap = {}
    for d in s6:
        swap[xvar(d)] = MPoly.var(yvar(d))
        swap[yvar(d)] = MPoly.var(xvar(d))
    ok = True
    for fam in families:
        ps = universal.derive(fam, s6)
        for n in s6:
            if ps.sigma[n].substitute(swap) != ps.sigma[n]:
                ok = False
            if ps.pi[n].substitute(swap) != ps.pi[n]:
                ok = False
    rep.add("commutative-at-polynomial-level", ok)
    rep.add(
        "qdef-is-scaled-classical",
        all(universal.qdef_matches_scaled_classical(s) for s in sets),
    )
    rep.add(
        "specialize-q-to-1",
        universal.specializes_to_classical(Family.qdef(), s6)
        and universal.specializes_to_classical(Family.qbar(), s6),
    )
    ok = True
    for p in (2, 3, 5, 7):
        try:
            qdeform.r_poly(p)  # raises if not integral
        except IntegralityViolation:
            ok = False
    rep.add("r-integrality", ok)
    rep.add(
        "frobenius-composition",
        all(
            universal.frobenius_composition_certificate(fam, s6)
            for fam in families
        ),
    )
    certs = []
    for elems, p in ([2], 2), ([6], 2), ([3], 3), ([12], 2), ([12], 3):
        s = TruncationSet.make(elems)
        certs.append(universal.frobenius_mod_p_certificate(Family.classical(), s, p))
        certs.append(universal.frobenius_mod_p_certificate(Family.qdef(), s, p))
    rep.add("frobenius-mod-p", all(certs))
    ok = True
    for g in (ZP_ZERO, ZP_Q, (1, -1), (2, 0, 1)):
        direct = universal.derive(Family.qbar(g), s6)
        via_subst = universal.base_change_qbar(g, s6)
        for n in s6:
            if direct.sigma[n] != via_subst.sigma[n] or direct.pi[n] != via_subst.pi[n]:
                ok = False
    rep.add("base-change-two-routes", ok)
    return rep


def suite_witt(budget: int = 300, seed: int = 1729) -> Report:
    rep = Report("witt")
    rng = random.Random(seed)
    s6 = TruncationSet.make([6])
    s12 = TruncationSet.make([12])
    cl, qd = Family.classical(), Family.qdef()

    ok = True
    for _ in range(budget // 3):
        a = witt.random_vector(qd, s6, ZQ, rng)
        b = witt.random_vector(qd, s6, ZQ, rng)
        ga, gb = witt.ghost(a), witt.ghost(b)
        if witt.ghost(witt.add(a, b)) != tuple(
            ZQ.add(x, y) for x, y in zip(ga, gb)
        ):
            ok = False
        twisted = tuple(
            ZQ.mul(ZP_Q, ZQ.mul(x, y)) for x, y in zip(ga, gb)
        )
        if witt.ghost(witt.mul(a, b)) != twisted:
            ok = False
    rep.add("ghost-hom-qdef", ok)

    ok = True
    for _ in range(budget // 3):
        a = witt.random_vector(cl, s12, Z, rng)
        if witt.frobenius(witt.frobenius(a, 2), 3).coords != witt.frobenius(a, 6).coords:
            ok = False
        sub = s12.quotient(6)
        b = witt.random_vector(cl, sub, Z, rng)
        if witt.verschiebung(witt.verschiebung(b, 2, s12.quotient(3)), 3, s12).coords \
           != witt.verschiebung(b, 6, s12).coords:
            ok = False
        c = witt.random_vector(cl, s12.quotient(2), Z, rng)
        if witt.frobenius(witt.verschiebung(c, 2, s12), 2).coords != \
           witt.int_scale(2, c).coords:
            ok = False
        d = witt.random_vector(cl, s12.quotient(3), Z, rng)
        lhs = witt.frobenius(witt.verschiebung(d, 3, s12), 2)
        rhs = witt.verschiebung(witt.frobenius(d, 2), 3, s12.quotient(2))
        if lhs.coords != rhs.coords:
            ok = False
    rep.add("frobenius-verschiebung-relations", ok)

    ok = True
    for _ in range(budget // 6):
        a = witt.random_vector(cl, s6, Z, rng)
        fr = witt.frobenius(a, 2)
        pw = witt.mul(witt.project(a, s6.quotient(2)), witt.project(a, s6.quotient(2)))
        if not witt.is_divisible(witt.sub(fr, pw), 2):
            ok = False
    rep.add("frobenius-mod-p-on-values", ok)

    ok = True
    for c1 in (-3, 2, 5):
        for c2 in (-1, 4):
            om = witt.mul(
                witt.teichmuller(cl, s6, Z, c1), witt.teichmuller(cl, s6, Z, c2)
            )
            if om.coords != witt.teichmuller(cl, s6, Z, c1 * c2).coords:
                ok = False
            fr = witt.frobenius(witt.teichmuller(cl, s6, Z, c1), 2)
            if fr.coords != witt.teichmuller(cl, s6.quotient(2), Z, c1**2).coords:
                ok = False
    rep.add("teichmuller", ok)

    ok = True
    zm = ZModRing(6)
    sub = TruncationSet.make([3])
    for _ in range(budget):
        a = witt.random_vector(cl, s6, zm, rng)
        b = witt.random_vector(cl, s6, zm, rng)
        if witt.project(witt.add(a, b), sub).coords != \
           witt.add(witt.project(a, sub), witt.project(b, sub)).coords:
            ok = False
    for _ in range(20):
        a = witt.random_vector(cl, sub, zm, rng)
        if witt.project(witt.section(a, s6), sub).coords != a.coords:
            ok = False
    rep.add("project-section", ok)

    rep.add(
        "exact-sequences",
        witt.exact_sequence_check(TruncationSet.make([2]), 2, ZModRing(3))
        and witt.exact_sequence_check(TruncationSet.make([4]), 2, ZModRing(2))
        and witt.exact_sequence_check(TruncationSet.make([3]), 3, ZModRing(2)),
    )

    # reduction along Z -> Z/2 is a ring map; kernel = coordinatewise even
    s2 = TruncationSet.make([2])
    zm2 = ZModRing(2)
    ok = True
    for _ in range(50):
        a = witt.random_vector(cl, s2, Z, rng)
        b = witt.random_vector(cl, s2, Z, rng)
        red = lambda v: witt.map_coords(v, zm2.from_int, zm2)
        if not witt.eq(red(witt.mul(a, b)), witt.mul(red(a), red(b))):
            ok = False
        if not witt.eq(red(witt.add(a, b)), witt.add(red(a), red(b))):
            ok = False
        if witt.is_zero(red(a)) != all(c % 2 == 0 for c in a.coords):
            ok = False
    for v in witt.enumerate_vectors(cl, s2, zm2):
        lift = witt.make(cl, s2, Z, [int(c) for c in v.coords])
        if not witt.eq(red(lift), v):
            ok = False
    rep.add("reduction-exactness", ok)
    return rep


def _display_sigma_p(fam_coeff: MPoly, p: int) -> MPoly:
    """X_p + Y_p - coeff * sum (1/p) C(p,v) X_1^v Y_1^(p-v)."""
    out = MPoly.var(xvar(p)) + MPoly.var(yvar(p))
    for v in range(1, p):
        c = math.comb(p, v) // p
        out = out - fam_coeff * MPoly.term(c, [(xvar(1), v), (yvar(1), p - v)])
    return out


def suite_qdeform(budget: int = 200, seed: int = 1729) -> Report:
    from . import qdeform
    rep = Report("qdeform")
    rng = random.Random(seed)
    qmp = MPoly.var(Q)

    ok = True
    for p in (2, 3, 5, 7):
        h = qdeform.h_poly(p)
        expect = ring_mod.ZP_ZERO
        base = ring_mod.zp_sub(ZP_ONE, ZP_Q)
        for k in range(p):
            expect = ring_mod.zp_add(expect, ring_mod.zp_pow(base, k))
        if h != expect or ring_mod.zp_eval_int(h, 1) != 1:
            ok = False
        r = qdeform.r_poly(p)
        if ring_mod.zp_eval_int(r, 1) != 0:
            ok = False
    rep.add("h-and-r", ok)

    ok = True
    for p in (2, 3, 5):
        s = TruncationSet.make([p])
        qd = universal.derive(Family.qdef(), s)
        if qd.sigma[p] != _display_sigma_p(MPoly.var(Q, p - 1), p):
            ok = False
        if qd.pi[1] != MPoly.term(1, [(Q, 1), (xvar(1), 1), (yvar(1), 1)]):
            ok = False
        expect_pi = (MPoly.term(p, [(Q, 1), (xvar(p), 1), (yvar(p), 1)])
                     + MPoly.term(1, [(Q, p), (xvar(1), p), (yvar(p), 1)])
                     + MPoly.term(1, [(Q, p), (xvar(p), 1), (yvar(1), p)]))
        if qd.pi[p] != expect_pi:
            ok = False
    rep.add("qdef-prime-tables", ok)

    ok = True
    for p in (2, 3, 5):
        s = TruncationSet.make([p])
        qb = universal.derive(Family.qbar(), s)
        h = MPoly.from_zpoly(qdeform.h_poly(p))
        r = MPoly.from_zpoly(qdeform.r_poly(p))
        if qb.sigma[p] != _display_sigma_p(h, p):
            ok = False
        expect_pi = (MPoly.term(p, [(Q, 1), (xvar(p), 1), (yvar(p), 1)])
                     + qmp * h * (MPoly.term(1, [(xvar(1), p), (yvar(p), 1)])
                                  + MPoly.term(1, [(yvar(1), p), (xvar(p), 1)]))
                     + qmp * h * r * MPoly.term(1, [(xvar(1), p), (yvar(1), p)]))
        if qb.pi[p] != expect_pi:
            ok = False
    rep.add("qbar-prime-tables", ok)

    ok = True
    for p, qv in ((2, 3), (3, 2), (5, 2)):
        s = TruncationSet.make([p])
        fam = Family.lenart(qv)
        for _ in range(max(10, budget // 3)):
            a = witt.random_vector(fam, s, Z, rng)
            b = witt.random_vector(fam, s, Z, rng)
            if qdeform.lenart_iso(p, qv, witt.add(a, b)).coords != witt.add(
                qdeform.lenart_iso(p, qv, a), qdeform.lenart_iso(p, qv, b)
            ).coords:
                ok = False
            if qdeform.lenart_iso(p, qv, witt.mul(a, b)).coords != witt.mul(
                qdeform.lenart_iso(p, qv, a), qdeform.lenart_iso(p, qv, b)
            ).coords:
                ok = False
            if qdeform.lenart_iso_inverse(
                p, qv, qdeform.lenart_iso(p, qv, a)
            ).coords != a.coords:
                ok = False
    rep.add("lenart-iso", ok)

    rep.add(
        "lenart-defect",
        qdeform.lenart_frobenius_defect(2, 3) is None
        and qdeform.lenart_frobenius_defect(2, 2) is not None
        and qdeform.lenart_frobenius_defect(3, 3) is not None,
    )

    ok = True
    for g in (ZP_ZERO, ZP_Q, ring_mod.zp_sub(ZP_ONE, ZP_Q)):
        for elems in ([2], [3]):
            try:
                qdeform.qbar_to_qdef_iso(g, TruncationSet.make(elems))
            except Error:
                ok = False
    rep.add("qbar-identification", ok)

    ok = True
    s2 = TruncationSet.make([2])
    for cand, expect in (
        ((1, -1), True),
        ((-1, 1), True),
        ((2,), False),
        ((0, 0, 1), False),
        ((0, -1), False),
    ):
        if qdeform.certify_twist_candidate(ZP_Q, s2, cand) != expect:
            ok = False
    rep.add("twist-candidate-search", ok)
    return rep


def suite_onedim(budget: int = 100, seed: int = 1729) -> Report:
    from . import onedim
    rep = Report("onedim")
    rng = random.Random(seed)
    ok = True
    for ring in (Z, ZModRing(6)):
        for _ in range(budget):
            r = ring.random(rng)
            law = onedim.RingLaw1D.twisted(ring, r)
            if not ring.eq(onedim.classify_reduced(law), r):
                ok = False
    rep.add("classifier-roundtrip", ok)

    law = onedim.RingLaw1D(
        DUAL,
        onedim.parse_poly(DUAL, "x+y+eps*x*y"),
        onedim.parse_poly(DUAL, "2*eps*x*y"),
    )
    rep.add("dual-number-law", onedim.verify_law(law).passed)

    broken = onedim.RingLaw1D(
        Z, onedim.parse_poly(Z, "x+y+x*y"), onedim.parse_poly(Z, "x*y")
    )
    vrep = onedim.verify_law(broken)
    rep.add(
        "inverse-failure-detected",
        not vrep.check("add-inverse").passed,
    )

    ok = (
        onedim.twisted_isos(2, 2, Z) == [1]
        and onedim.twisted_isos(2, -2, Z) == [-1]
        and onedim.twisted_isos(0, 0, ZModRing(6)) == [1, 5]
        and onedim.twisted_isos(ZP_Q, ring_mod.zp_neg(ZP_Q), ZQ) == [(-1,)]
    )
    rep.add("twisted-isos-closed-form", ok)

    ok = True
    zm6 = ZModRing(6)
    for r in range(6):
        for r2 in range(6):
            fwd = onedim.twisted_isos(r, r2, zm6)
            back = onedim.twisted_isos(r2, r, zm6)
            if bool(fwd) != bool(back):
                ok = False
            for u in fwd:
                if pow(u, -1, 6) not in back:
                    ok = False
    rep.add("iso-symmetry", ok)

    rep.add(
        "aut-trivial-for-nonzerodivisor",
        onedim.twisted_isos(3, 3, Z) == [1]
        and onedim.twisted_isos(ZP_Q, ZP_Q, ZQ) == [ZP_ONE],
    )
    return rep


def suite_systems(budget: int = 200, seed: int = 1729) -> Report:
    from . import systems
    rep = Report("systems")
    rng = random.Random(seed)
    s2 = TruncationSet.make([2])
    s6 = TruncationSet.make([6])

    ws = systems.WittSystem(Z, s6)
    ok = True
    for _ in range(max(10, budget // 4)):
        a = ws.sample(s6, rng)
        if systems.alpha(ws, s6, a).coords != a:
            ok = False
    wsq = systems.WittSystem(ZQ, s2, family=Family.qdef())
    for _ in range(max(10, budget // 4)):
        a = wsq.sample(s2, rng)
        if systems.alpha(wsq, s2, a).coords != a:
            ok = False
    rep.add("alpha-identity-on-canonical", ok)

    rep.add(
        "rfv-witt-zmod3",
        systems.verify_rfv(systems.WittSystem(ZModRing(3), s2), budget=budget).passed,
    )
    rep.add(
        "rfv-witt-z-1236",
        systems.verify_rfv(systems.WittSystem(Z, s6), budget=budget).passed,
    )
    rep.add(
        "rf-const-z",
        systems.verify_rf(systems.ConstantSystem(Z, s6), budget=budget).passed,
    )
    zqrep = systems.verify_rf(systems.ConstantSystem(ZQ, s2), budget=budget)
    rep.add("rf-const-zq-id-lift-fails", not zqrep.passed)
    lrep = systems.verify_rf(
        systems.WittSystem(Z, s2, family=Family.lenart(2)), budget=budget
    )
    rep.add(
        "lenart-2-congruence-fails",
        any(f.startswith("frobenius-congruence") for f in lrep.failures),
    )
    degen = systems.verify_rfv(
        systems.ConstantSystem(Z, s2, versch_scale=True), budget=budget
    )
    rep.add(
        "degenerate-verschiebung-fails-exactness",
        any(f.startswith("exactness") for f in degen.failures),
    )

    ok = True
    cs = systems.ConstantSystem(Z, s6)
    for _ in range(max(10, budget // 10)):
        a = randint(rng, -20, 20)
        try:
            systems.alpha(cs, s6, a)
        except Error:
            ok = False
    rep.add("alpha-integral-on-constant", ok)

    rep.add(
        "alpha-iso-witt-z",
        systems.alpha_is_iso(systems.WittSystem(Z, s6), s6, budget=budget // 4).passed,
    )

    iso = systems.auer(s2, TruncationSet.make([3]), Z)
    ok = True
    for _ in range(max(10, budget // 8)):
        a = witt.random_vector(Family.classical(), s6, Z, rng)
        b = witt.random_vector(Family.classical(), s6, Z, rng)
        if not witt.eq(iso.forward(witt.mul(a, b)),
                       witt.mul(iso.forward(a), iso.forward(b))):
            ok = False
        if not witt.eq(iso.backward(iso.forward(a)), a):
            ok = False
    for c in (2, 3, 5):
        om = witt.teichmuller(Family.classical(), s6, Z, c)
        inner = witt.teichmuller(Family.classical(), TruncationSet.make([3]), Z, c)
        outer = witt.teichmuller(Family.classical(), s2, iso.nested_ring, inner.coords)
        if not witt.eq(iso.forward(om), outer):
            ok = False
    rep.add("nesting-iso", ok)
    return rep


def suite_indwitt(budget: int = 200, seed: int = 1729) -> Report:
    from . import indwitt
    rep = Report("indwitt")
    rng = random.Random(seed)
    s2 = TruncationSet.make([2])
    s4 = TruncationSet.make([4])
    cl = Family.classical()

    const = indwitt.constant_system(Z, s4)
    ok = True
    for _ in range(max(10, budget // 10)):
        v = indwitt.random_vector(const, rng)
        w = indwitt.random_vector(const, rng)
        wv = witt.make(cl, s4, Z, v.coords)
        ww = witt.make(cl, s4, Z, w.coords)
        if indwitt.ind_add(v, w).coords != witt.add(wv, ww).coords:
            ok = False
        if indwitt.ind_mul(v, w).coords != witt.mul(wv, ww).coords:
            ok = False
        if indwitt.ind_ghost(v) != witt.ghost(wv):
            ok = False
        if indwitt.ind_frobenius(v, 2).coords != witt.frobenius(wv, 2).coords:
            ok = False
    rep.add("constant-system-matches-witt", ok)

    triv = indwitt.trivial_system(Z, s4)
    ok = True
    for _ in range(max(10, budget // 10)):
        v = indwitt.random_vector(triv, rng)
        w = indwitt.random_vector(triv, rng)
        if indwitt.ind_mul(v, w).coords != tuple(
            n * a * b for n, a, b in zip(s4, v.coords, w.coords)
        ):
            ok = False
        if indwitt.ind_add(v, w).coords != tuple(
            a + b for a, b in zip(v.coords, w.coords)
        ):
            ok = False
        if indwitt.ind_frobenius(v, 2).coords != tuple(
            2 * v.coord(2 * nu) for nu in s4.quotient(2)
        ):
            ok = False
    rep.add("trivial-system-product-ring", ok)

    ok = True
    chain = indwitt.chain_system(s2)
    for sys in (indwitt.constant_system(Z, s4), chain):
        for _ in range(max(10, budget // 4)):
            v = indwitt.random_vector(sys, rng)
            if indwitt.dwork_invert(sys, indwitt.ind_ghost(v)).coords != v.coords:
                ok = False
    rep.add("ghost-injectivity", ok)

    ok = True
    for sys in (
        indwitt.constant_system(Z, s2, identity_lift=True),
        indwitt.constant_system(Z, s4, identity_lift=True),
        indwitt.qpow_system(s2),
        indwitt.qpow_system(s4),
    ):
        for _ in range(max(10, budget // 4)):
            xs = [sys.sample(n, rng) for n in sys.tset]
            passed = indwitt.dwork_test(sys, xs)
            try:
                indwitt.dwork_invert(sys, xs)
                inverted = True
            except NotInImage:
                inverted = False
            if passed != inverted:
                ok = False
        for _ in range(max(10, budget // 4)):
            v = indwitt.random_vector(sys, rng)
            xs = indwitt.ind_ghost(v)
            if not indwitt.dwork_test(sys, xs):
                ok = False
    rep.add("dwork-image", ok)

    ok = True
    for sys in (indwitt.constant_system(Z, s4, identity_lift=True),
                indwitt.qpow_system(s4)):
        for n in sys.tset:
            for _ in range(5):
                a = sys.sample(n, rng)
                lifted = indwitt.dwork_lift(sys, n, a)
                if not sys.ring(n).eq(indwitt.res(lifted), a):
                    ok = False
        for p in (2,):
            for _ in range(5):
                a = sys.sample(1, rng)
                lhs = indwitt.dwork_lift(sys, p, sys.lift(p, p, a))
                rhs = indwitt.ind_frobenius(indwitt.dwork_lift(sys, 1, a), p)
                if lhs.coords != rhs.coords:
                    ok = False
    rep.add("universal-lift", ok)

    ok = True
    sysA = indwitt.constant_system(Z, s2, identity_lift=True)
    chain2 = indwitt.chain_system(s2)

    def hom(n, a):
        return a if n == 1 else ring_mod.zp_from_int(a)

    for _ in range(max(5, budget // 20)):
        a = randint(rng, -9, 9)
        via_lam = indwitt.induced_lift(sysA, chain2, hom, 1, a, via="lambda")
        direct = indwitt.induced_lift(sysA, chain2, hom, 1, a, via="direct")
        if via_lam.coords != direct.coords:
            ok = False
        if indwitt.res(via_lam) != hom(1, a):
            ok = False
    rep.add("induced-lift-two-routes", ok)

    rep.add(
        "frobenius-power-congruence",
        indwitt.frobenius_power_congruence(indwitt.constant_system(Z, s2), 2)
        and indwitt.frobenius_power_congruence(indwitt.chain_system(s2), 2)
        and indwitt.frobenius_power_congruence(indwitt.trivial_system(Z, s4), 2),
    )

    ok = True
    sys6 = indwitt.constant_system(Z, TruncationSet.make([6]), identity_lift=True)
    for _ in range(5):
        a = randint(rng, -9, 9)
        v = indwitt.dwork_lift(sys6, 1, a)
        via_2 = indwitt.nested_transition(
            sys6, 2, 6, indwitt.nested_transition(sys6, 1, 2, v)
        )
        direct = indwitt.nested_transition(sys6, 1, 6, v)
        if via_2.coords != direct.coords:
            ok = False
    rep.add("nested-transitions-compose", ok)

    ok = True
    const6 = indwitt.constant_system(Z, TruncationSet.make([6]))
    for _ in range(max(10, budget // 10)):
        v = indwitt.random_vector(const6, rng)
        w = indwitt.random_vector(const6, rng)
        lhs = indwitt.res(indwitt.ind_mul(v, w))
        if lhs != indwitt.res(v) * indwitt.res(w):
            ok = False
        sub = TruncationSet.make([2])
        if indwitt.proj(indwitt.ind_mul(v, w), sub).coords != indwitt.ind_mul(
            indwitt.proj(v, sub), indwitt.proj(w, sub)
        ).coords:
            ok = False
    rep.add("res-and-proj-are-ring-maps", ok)
    return rep


SUITES = {
    "truncset": suite_truncset,
    "rings": suite_rings,
    "mpoly": suite_mpoly,
    "universal": suite_universal,
    "witt": suite_witt,
    "qdeform": suite_qdeform,
    "onedim": suite_onedim,
    "systems": suite_systems,
    "indwitt": suite_indwitt,
}


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _run_share(names, budget: int, seed: int) -> list:
    """The suites ``names`` run in turn: each one's Report, up to and with the
    first exception raised, which stands in its place and ends the share."""
    out = []
    for name in names:
        try:
            if name not in SUITES:
                raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
            out.append(SUITES[name](budget=budget, seed=seed))
        except Exception as exc:
            out.append(exc)
            break
    return out


class _Worker:
    """A forked process that runs :func:`_run_share` on its suites and
    sends the list back, pickled, through a pipe."""

    def __init__(self, names, budget: int, seed: int):
        import pickle

        sys.stdout.flush()  # what this process has buffered is written once, here
        sys.stderr.flush()
        read, write = os.pipe()
        self.pid = os.fork()
        if not self.pid:  # the worker ends here, and runs no clean-up of its parent's state
            code = 1
            try:
                os.close(read)
                with open(write, "wb") as fh:
                    fh.write(pickle.dumps(_run_share(names, budget, seed)))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = open(read, "rb")
        self.status = None

    def result(self) -> list:
        import pickle

        data = self.pipe.read()
        self.close(kill=False)
        if self.status:
            raise RuntimeError(
                f"suite worker {self.pid} exited without a result (wait status {self.status})")
        return pickle.loads(data)

    def close(self, kill: bool = True) -> None:
        """Reap the worker, ending it first if ``kill``; once only."""
        if self.status is None:
            if kill:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            self.pipe.close()
            self.status = os.waitpid(self.pid, 0)[1]


def run_suites(names, budget: int = 200, seed: int = 1729) -> list[Report]:
    """The reports of the suites ``names``, in that order, or the first
    exception a suite raises in that order.

    The suites are dealt round-robin to w = min(len(names), CPUs) shares,
    share i being names[i::w]: this process runs share 0, and a forked
    :class:`_Worker` each other one.  With one CPU, no ``os.fork``, or
    more than one thread, which a fork would not copy, w is 1.
    """
    if names in ("all", ["all"]):
        names = list(SUITES)
    if isinstance(names, str):
        names = [names]
    w = min(len(names), _cpus())
    if w < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        w = 1
    workers = []
    try:
        for i in range(1, w):
            workers.append(_Worker(names[i::w], budget, seed))
        shares = [_run_share(names[::w], budget, seed)]
        shares += [worker.result() for worker in workers]
    finally:
        for worker in workers:  # none is left running, whatever ended this
            worker.close()
    out = []
    for k in range(len(names)):
        result = shares[k % w][k // w]  # a share is short only after an earlier raise
        if isinstance(result, Exception):
            raise result
        out.append(result)
    return out
