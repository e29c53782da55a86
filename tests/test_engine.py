"""The ghost-route engine against the structure polynomials.

Witt arithmetic and the inductive-system ops run on the ghost route only.
The explicit polynomials from ``universal.derive``, evaluated with
``MPoly.eval`` in the coefficient ring itself (over ``zmod`` with no
integer lift), are the independent oracle they are compared with.
"""

import random

import pytest

from qwitt import indwitt, universal, witt
from qwitt.mpoly import Q, xvar, yvar
from qwitt.rings import DUAL, Z, ZQ, TwistedRing, ZModRing, parse_ring
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
