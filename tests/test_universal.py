"""Derivation of universal structure polynomials and its certificates."""

import hashlib
import json
import os

import pytest

from qwitt.errors import BudgetExceeded, IntegralityViolation
from qwitt.mpoly import MPoly, Q, xvar, yvar
from qwitt.rings import ZP_Q, ZP_ZERO, zp_add, zp_pow, zp_scale, zp_sub, ZP_ONE
from qwitt.truncset import TruncationSet, divisors
from qwitt import universal
from qwitt.universal import (
    Family,
    base_change_qbar,
    derive,
    ghost_invert_sym,
    ghost_poly,
    roundtrip_certificate,
)

S2 = TruncationSet.make([2])
S3 = TruncationSet.make([3])
S6 = TruncationSet.make([6])
S12 = TruncationSet.make([12])

X1, X2 = (MPoly.var(xvar(d)) for d in (1, 2))
Y1, Y2 = (MPoly.var(yvar(d)) for d in (1, 2))
QP = MPoly.var(Q)


def test_ghost_poly_examples():
    assert ghost_poly(Family.classical(), S2, 2) == X1**2 + 2 * X2
    assert ghost_poly(Family.qdef(), S2, 2) == QP * X1**2 + 2 * X2
    assert ghost_poly(Family.qbar(), S2, 2) == (MPoly.const(2) - QP) * X1**2 + 2 * X2


def test_diagonal_weights():
    for fam in (Family.classical(), Family.qdef(), Family.qbar(), Family.lenart(3)):
        for n in S12:
            assert fam.ghost_weight(n, n) == MPoly.const(n)


def test_qbar_weights_sum_the_powers_of_g_within_a_term_budget():
    # w(n, d) = d * (g^0 + ... + g^(n/d-1)), on {1,...,24} as a derivation there needs
    for g in (zp_sub(ZP_ONE, ZP_Q), ZP_Q, (1, -2, 0, 3), (2,), (1,), (-1,), ZP_ZERO):
        fam = Family.qbar(g)
        for n in range(1, 25):
            for d in divisors(n):
                powers = ZP_ZERO
                for j in range(n // d):
                    powers = zp_add(powers, zp_pow(g, j))
                assert fam.ghost_weight(n, d) == MPoly.from_zpoly(zp_scale(d, powers)), (g, n, d)
    # (m - 1) * deg(g) + 1 terms, at most universal.WEIGHT_TERMS = 1024
    assert len(Family.qbar(ZP_Q).ghost_weight(1024, 1).terms()) == 1024
    assert Family.qbar((1,)).ghost_weight(1 << 24, 1) == MPoly.const(1 << 24)
    for g, m, terms in ((ZP_Q, 1025, 1025), ((1, -2, 0, 3), 343, 1027), (ZP_Q, 1000003, 1000003)):
        with pytest.raises(BudgetExceeded, match=f"{terms} terms"):
            Family.qbar(g).ghost_weight(m, 1)


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


def test_ghost_round_trip_max_element_12():
    for fam in (Family.classical(), Family.qdef(), Family.lenart(2)):
        assert roundtrip_certificate(fam, S12)
    assert roundtrip_certificate(Family.qbar(), S12)


def test_specialization_to_classical():
    # the integer family at q = 1 is literally the classical one
    ps = derive(Family.lenart(1), S6)
    cl = derive(Family.classical(), S6)
    for n in S6:
        assert ps.sigma[n] == cl.sigma[n] and ps.pi[n] == cl.pi[n]


def test_frobenius_composition():
    for fam in (Family.classical(), Family.qdef()):
        assert universal.frobenius_composition_certificate(fam, S12)


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


@pytest.fixture
def cache_dir(tmp_path):
    universal.set_cache_dir(str(tmp_path))
    yield tmp_path
    universal.set_cache_dir(None)


def test_disk_cache_round_trip(cache_dir):
    fresh = universal._derive_uncached(Family.qdef(), S2)
    universal._disk_store(fresh)
    loaded = universal._disk_load(Family.qdef(), S2)
    assert loaded is not None
    assert loaded.sigma[2] == fresh.sigma[2]
    assert loaded.frob[2][1] == fresh.frob[2][1]
    # corrupt the blob: the hash check must reject it
    path = universal._cache_file(Family.qdef(), S2)
    with open(path, "rb") as f:
        data = f.read()
    assert b'[1,"x1",1]' in data
    with open(path, "wb") as f:
        f.write(data.replace(b'[1,"x1",1]', b'[3,"x1",1]', 1))
    assert universal._disk_load(Family.qdef(), S2) is None


def test_disk_cache_file_is_a_hash_line_and_the_compact_rows(cache_dir):
    fresh = universal._derive_uncached(Family.qbar(), S6)
    universal._disk_store(fresh)
    with open(universal._cache_file(Family.qbar(), S6), "rb") as fh:
        digest, blob = fh.read().split(b"\n")
    assert digest == hashlib.sha256(universal._code_tag() + blob).hexdigest().encode()
    rows = lambda bank, s: [bank[n].to_rows() for n in s]  # noqa: E731
    assert blob == json.dumps({
        "family": "qbar:-q+1",
        "set": [1, 2, 3, 6],
        "sigma": rows(fresh.sigma, S6),
        "pi": rows(fresh.pi, S6),
        "neg": rows(fresh.neg, S6),
        "frob": [rows(fresh.frob[m], S6.quotient(m)) for m in S6],
    }, separators=(",", ":")).encode()
    assert json.loads(blob)["sigma"][0] == [[1, "x1", 1], [1, "y1", 1]]
    loaded = universal._disk_load(Family.qbar(), S6)
    assert loaded is not None
    for kind in ("add", "mul", "neg"):
        assert loaded.law(kind) == fresh.law(kind)
    assert loaded.frob == fresh.frob


def _rewrite(path, edit) -> None:
    """Apply ``edit`` to the entry's payload and write it back under the
    hash of the new blob, so that only the payload's checks can reject it."""
    with open(path, "rb") as fh:
        data = json.loads(fh.read().split(b"\n", 1)[1])
    edit(data)
    blob = json.dumps(data, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(universal._digest(blob) + b"\n" + blob)


def _set_row(bank, n, row):
    return lambda d: d[bank][S6.index(n)].__setitem__(0, row)


MALFORMED = {
    "coeff as text": _set_row("sigma", 2, ["1", "x2", 1]),
    "coeff as bool": _set_row("sigma", 2, [True, "x2", 1]),
    "exp as a list": _set_row("sigma", 2, [1, "x2", [1]]),
    "exp as text": _set_row("pi", 3, [1, "x3", "1"]),
    "exp as bool": _set_row("pi", 3, [1, "x3", True]),
    "row not a list": _set_row("neg", 6, 7),
    "empty row": _set_row("neg", 6, []),
    "var without exp": _set_row("neg", 6, [1, "x6"]),
    "var not text": _set_row("neg", 6, [1, 6, 1]),
    "exp 0": _set_row("sigma", 1, [1, "x1", 0]),
    "exp -1": _set_row("sigma", 1, [1, "x1", -1]),
    "unknown var": _set_row("sigma", 1, [1, "z1", 1]),
    "non-canonical var": _set_row("sigma", 1, [1, "x01", 1]),
    "var twice": _set_row("sigma", 1, [1, "x1", 1, "x1", 1]),
    "exp 2^31": _set_row("sigma", 1, [1, "x1", 1 << 31]),
    "exp 2^40": _set_row("sigma", 1, [1, "x1", 1 << 40]),
    "a poly short": lambda d: d["sigma"].pop(),
    "a poly extra": lambda d: d["pi"].append([]),
    "a frob bank short": lambda d: d["frob"].pop(),
    "a frob poly short": lambda d: d["frob"][0].pop(),
    "bank as a dict": lambda d: d.__setitem__("neg", {str(n): [] for n in S6}),
    "bank missing": lambda d: d.pop("pi"),
    "bank null": lambda d: d.__setitem__("sigma", None),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_hash_valid_malformed_entry_is_a_miss(cache_dir, monkeypatch, edit):
    fresh = universal._derive_uncached(Family.qbar(), S6)
    universal._disk_store(fresh)
    path = universal._cache_file(Family.qbar(), S6)
    _rewrite(path, edit)
    assert universal._disk_load(Family.qbar(), S6) is None
    # derive re-derives it and overwrites the entry
    monkeypatch.setattr(universal, "_MEM", {})
    assert derive(Family.qbar(), S6).law("mul") == fresh.law("mul")
    assert universal._disk_load(Family.qbar(), S6).frob == fresh.frob


def test_a_rewritten_entry_loads_when_its_payload_is_sound(cache_dir):
    fresh = universal._derive_uncached(Family.qbar(), S6)
    universal._disk_store(fresh)
    _rewrite(universal._cache_file(Family.qbar(), S6), lambda d: None)
    assert universal._disk_load(Family.qbar(), S6).pi == fresh.pi


@pytest.mark.parametrize("blob", [b"", b"{", b"[1,2]", b'"text"', b"null", b"{}",
                                  b'{"family":"qbar:-q+1","set":[1,2,3,6]}'])
def test_a_hash_valid_entry_that_is_no_payload_is_a_miss(cache_dir, blob):
    path = universal._cache_file(Family.qbar(), S6)
    with open(path, "wb") as fh:
        fh.write(universal._digest(blob) + b"\n" + blob)
    assert universal._disk_load(Family.qbar(), S6) is None


def test_an_entry_of_other_code_is_a_miss(cache_dir, monkeypatch):
    fresh = universal._derive_uncached(Family.classical(), S6)
    path = universal._cache_file(Family.classical(), S6)
    tag = universal._code_tag()
    monkeypatch.setattr(universal, "_code_tag", lambda: b"other code")
    universal._disk_store(fresh)
    assert universal._disk_load(Family.classical(), S6) is not None
    monkeypatch.setattr(universal, "_code_tag", lambda: tag)
    assert universal._disk_load(Family.classical(), S6) is None
    monkeypatch.setattr(universal, "_MEM", {})
    calls = []
    real = universal._derive_uncached
    monkeypatch.setattr(universal, "_derive_uncached", lambda *a: calls.append(a) or real(*a))
    assert derive(Family.classical(), S6).law("add") == fresh.law("add")
    assert len(calls) == 1  # re-derived, and the entry overwritten
    assert universal._disk_load(Family.classical(), S6) is not None


def test_the_code_tag_is_the_hash_of_the_package_sources():
    pkg = os.path.dirname(universal.__file__)
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    assert universal._code_tag() == h.digest()
