"""Derivation of universal structure polynomials and its certificates."""

import json

import pytest

from qwitt.errors import IntegralityViolation
from qwitt.mpoly import MPoly, Q, xvar, yvar
from qwitt.rings import ZP_Q, ZP_ZERO, zp_sub, ZP_ONE
from qwitt.truncset import TruncationSet
from qwitt import universal
from qwitt.universal import (
    Family,
    base_change_qbar,
    derive,
    frobenius_mod_p_certificate,
    ghost_invert_sym,
    ghost_poly,
    qdef_matches_scaled_classical,
    roundtrip_certificate,
    specializes_to_classical,
)

S2 = TruncationSet.make([2])
S3 = TruncationSet.make([3])
S6 = TruncationSet.make([6])
S12 = TruncationSet.make([12])

X1, X2, X3 = (MPoly.var(xvar(d)) for d in (1, 2, 3))
Y1, Y2, Y3 = (MPoly.var(yvar(d)) for d in (1, 2, 3))
QP = MPoly.var(Q)


def test_ghost_poly_examples():
    assert ghost_poly(Family.classical(), S2, 2) == X1**2 + 2 * X2
    assert ghost_poly(Family.qdef(), S2, 2) == QP * X1**2 + 2 * X2
    assert ghost_poly(Family.qbar(), S2, 2) == (MPoly.const(2) - QP) * X1**2 + 2 * X2


def test_diagonal_weights():
    for fam in (Family.classical(), Family.qdef(), Family.qbar(), Family.lenart(3)):
        for n in S12:
            assert fam.ghost_weight(n, n) == MPoly.const(n)


def test_invert_identity_round_trip():
    fam = Family.qdef()
    targets = {n: ghost_poly(fam, S6, n) for n in S6}
    coords = ghost_invert_sym(fam, S6, targets)
    for n in S6:
        assert coords[n] == MPoly.var(xvar(n))


def test_invert_failure_raises():
    with pytest.raises(IntegralityViolation):
        ghost_invert_sym(
            Family.classical(), S2, {1: X1, 2: X1}  # x1 - x1^2 is odd
        )


def test_classical_tables():
    ps = derive(Family.classical(), S2)
    assert ps.sigma[2] == X2 + Y2 - X1 * Y1
    assert ps.pi[2] == 2 * X2 * Y2 + X1**2 * Y2 + X2 * Y1**2
    assert ps.frob[2][1] == X1**2 + 2 * X2
    assert ps.neg[2] == -(X1**2) - X2


def test_qdef_tables():
    ps = derive(Family.qdef(), S2)
    assert ps.sigma[2] == X2 + Y2 - QP * X1 * Y1
    assert ps.pi[1] == QP * X1 * Y1
    assert ps.pi[2] == 2 * QP * X2 * Y2 + MPoly.var(Q, 2) * (X1**2 * Y2 + X2 * Y1**2)


def test_qbar_tables_with_h_and_r():
    from qwitt.qdeform import h_poly, r_poly

    ps = derive(Family.qbar(), S3)
    h = MPoly.from_zpoly(h_poly(3))
    r = MPoly.from_zpoly(r_poly(3))
    assert ps.sigma[3] == X3 + Y3 - h * (X1**2 * Y1 + X1 * Y1**2)
    assert ps.pi[3] == (
        3 * QP * X3 * Y3
        + QP * h * (X1**3 * Y3 + Y1**3 * X3)
        + QP * h * r * X1**3 * Y1**3
    )


def test_lenart_tables():
    for q in (2, 3, 5):
        ps = derive(Family.lenart(q), S2)
        qd = universal.substitute_q(derive(Family.qdef(), S2), MPoly.const(q),
                                    Family.classical())
        assert ps.sigma[2] == qd.sigma[2]  # additive structures agree
        half = (q * q - q) // 2
        assert ps.pi[2] == (
            2 * X2 * Y2 + q * (X2 * Y1**2 + X1**2 * Y2) + half * X1**2 * Y1**2
        )
        assert ps.frob[2][1] == q * X1**2 + 2 * X2


def test_base_change_examples():
    # g = 1 - q is the identity substitution
    base = derive(Family.qbar(), S2)
    same = base_change_qbar(zp_sub(ZP_ONE, ZP_Q), S2)
    assert same.sigma[2] == base.sigma[2] and same.pi[2] == base.pi[2]
    # g = q turns the coefficient 2 - q into 1 + q
    at_q = base_change_qbar(ZP_Q, S2)
    assert at_q.sigma[2] == X2 + Y2 - (MPoly.const(1) + QP) * X1 * Y1
    # g = 0 collapses to the classical family
    cl = derive(Family.classical(), S2)
    at_zero = base_change_qbar(ZP_ZERO, S2)
    assert at_zero.sigma[2] == cl.sigma[2] and at_zero.pi[2] == cl.pi[2]


def test_base_change_matches_direct_derivation():
    for g in (ZP_ZERO, ZP_Q, (2, 0, 1)):
        direct = derive(Family.qbar(g), S6)
        subst = base_change_qbar(g, S6)
        for n in S6:
            assert direct.sigma[n] == subst.sigma[n]
            assert direct.pi[n] == subst.pi[n]


def test_ghost_round_trip_symbolic():
    for fam in (Family.classical(), Family.qdef(), Family.qbar(), Family.lenart(2)):
        for s in (S2, S3, S6, TruncationSet.make([2, 9])):
            assert roundtrip_certificate(fam, s)


def test_ghost_round_trip_max_element_12():
    for fam in (Family.classical(), Family.qdef(), Family.lenart(2)):
        assert roundtrip_certificate(fam, S12)
    assert roundtrip_certificate(Family.qbar(), S12)


def test_symmetry_under_bank_swap():
    swap = {}
    for d in S6:
        swap[xvar(d)] = MPoly.var(yvar(d))
        swap[yvar(d)] = MPoly.var(xvar(d))
    for fam in (Family.classical(), Family.qdef(), Family.qbar()):
        ps = derive(fam, S6)
        for n in S6:
            assert ps.sigma[n].substitute(swap) == ps.sigma[n]
            assert ps.pi[n].substitute(swap) == ps.pi[n]


def test_qdef_is_scaled_classical():
    for s in (S2, S6, S12):
        assert qdef_matches_scaled_classical(s)


def test_specialization_to_classical():
    assert specializes_to_classical(Family.qdef(), S6)
    assert specializes_to_classical(Family.qbar(), S6)
    # the integer family at q = 1 is literally the classical one
    ps = derive(Family.lenart(1), S6)
    cl = derive(Family.classical(), S6)
    for n in S6:
        assert ps.sigma[n] == cl.sigma[n] and ps.pi[n] == cl.pi[n]


def test_frobenius_composition():
    for fam in (Family.classical(), Family.qdef()):
        assert universal.frobenius_composition_certificate(fam, S12)


def test_frobenius_mod_p_certificates():
    assert frobenius_mod_p_certificate(Family.classical(), S2, 2)
    assert frobenius_mod_p_certificate(Family.classical(), S6, 2)
    assert frobenius_mod_p_certificate(Family.classical(), S3, 3)
    assert frobenius_mod_p_certificate(Family.qdef(), S12, 2)
    assert frobenius_mod_p_certificate(Family.qdef(), S12, 3)


def test_coordinatewise_difference_at_coprime_indices():
    # at indices not divisible by p the stronger coordinatewise statement
    # holds; these are the displayed instances
    for s, p in ((S2, 2), (S6, 2), (S3, 3)):
        ps = derive(Family.classical(), s)
        sub = s.quotient(p)
        power = universal.power_coords(Family.classical(), sub, p)
        for v in sub:
            assert v % p != 0
            assert (ps.frob[p][v] - power[v]).try_div_int(p) is not None


def test_structure_polys_have_zero_constant_term():
    for fam in (Family.classical(), Family.qbar()):
        ps = derive(fam, S6)
        for n in S6:
            assert ps.sigma[n].constant_term() == 0
            assert ps.pi[n].constant_term() == 0


def test_disk_cache_round_trip(tmp_path):
    universal.set_cache_dir(str(tmp_path))
    try:
        fresh = universal._derive_uncached(Family.qdef(), S2)
        universal._disk_store(fresh)
        loaded = universal._disk_load(Family.qdef(), S2)
        assert loaded is not None
        assert loaded.sigma[2] == fresh.sigma[2]
        assert loaded.frob[2][1] == fresh.frob[2][1]
        # corrupt the payload: the hash check must reject it
        path = universal._cache_file(Family.qdef(), S2)
        with open(path) as f:
            text = f.read().replace('"coeff": "2"', '"coeff": "3"', 1)
        with open(path, "w") as f:
            f.write(text)
        assert universal._disk_load(Family.qdef(), S2) is None
    finally:
        universal.set_cache_dir(None)


def test_disk_cache_file_is_the_dumps_of_its_wrapped_payload(tmp_path):
    universal.set_cache_dir(str(tmp_path))
    try:
        fresh = universal._derive_uncached(Family.qbar(), S6)
        universal._disk_store(fresh)
        payload = universal._polyset_payload(fresh)
        wrapped = {"hash": universal._payload_hash(payload), "payload": payload}
        with open(universal._cache_file(Family.qbar(), S6), encoding="utf-8") as fh:
            assert fh.read() == json.dumps(wrapped)
        loaded = universal._disk_load(Family.qbar(), S6)
        assert loaded is not None
        for kind in ("add", "mul", "neg"):
            assert loaded.law(kind) == fresh.law(kind)
        assert loaded.frob == fresh.frob
    finally:
        universal.set_cache_dir(None)
