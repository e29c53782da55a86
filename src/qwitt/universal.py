"""Universal structure polynomials, derived by symbolic ghost inversion.

For a deformation family and a truncation set S this module produces the
addition polynomials ``sigma[n]``, multiplication polynomials ``pi[n]``,
negation polynomials ``neg[n]`` and Frobenius polynomials ``frob[m][v]``,
all with exact integer coefficients.  The derivation works in the
torsion-free polynomial ring Z[q][x_d, y_d]: the family's ghost map is
written down, combined componentwise, and inverted recursively; every
interior division is asserted exact, which turns the existence theorems
behind these laws into runtime certificates.

Families
--------
* ``classical`` - ghost weight w(n,d) = d, plain componentwise products.
* ``qdef``      - w(n,d) = d*q^(n/d-1) with a q-twisted componentwise
  product on the ghost side; the one-parameter deformation.
* ``qbar``      - w(n,d) = d*(1 + (1-q) + ... + (1-q)^(n/d-1)), same
  twisted ghost product; an optional base-change polynomial g substitutes
  q -> 1 - g(q) everywhere.
* ``lenart``    - same ghost weights as ``qdef`` for one fixed integer q,
  but with the plain componentwise ghost product.  The fixed integer is
  part of the family: for a symbolic q these laws have non-integral
  coefficients and do not exist over Z[q].

Results are memoized in memory and, when a cache directory is configured,
on disk as content-hashed JSON.  Readers may be concurrent; writers go
through a lock plus an atomic file replace.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass

from . import rings
from .errors import IntegralityViolation, CertificationError
from .exprs import read_int
from .mpoly import MPoly, Q, xvar, yvar
from .truncset import TruncationSet, divisors


@dataclass(frozen=True)
class Family:
    """A deformation family tag plus its parameters.

    ``g`` (coefficient tuple) is the base-change polynomial for ``qbar``;
    ``q`` is the fixed deformation integer for ``lenart``.
    """

    tag: str
    g: tuple[int, ...] | None = None
    q: int | None = None

    @staticmethod
    def classical() -> "Family":
        return Family("classical")

    @staticmethod
    def qdef() -> "Family":
        return Family("qdef")

    @staticmethod
    def qbar(g=(1, -1)) -> "Family":
        """The twisted-ghost family; g defaults to 1-q, the base case."""
        return Family("qbar", g=rings.zp_trim(g))

    @staticmethod
    def lenart(q: int) -> "Family":
        return Family("lenart", q=q)

    def key(self) -> tuple:
        return (self.tag, self.g, self.q)

    def label(self) -> str:
        if self.tag == "qbar":
            return f"qbar:{rings.zp_to_str(self.g)}"
        if self.tag == "lenart":
            return f"lenart:{self.q}"
        return self.tag

    @staticmethod
    def parse(text: str) -> "Family":
        """The family whose :meth:`label` is ``text``; a bare ``qbar`` is
        the base case g = 1-q."""
        if text in ("classical", "qdef", "qbar"):
            return getattr(Family, text)()
        if text.startswith("qbar:"):
            return Family.qbar(rings.ZQ.from_str(text.split(":", 1)[1]))
        if text.startswith("lenart:"):
            return Family.lenart(read_int(text.split(":", 1)[1], signed=True))
        if text == "lenart":
            raise ValueError(
                "the integer-q family needs its integer, e.g. lenart:2 "
                "(it has no symbolic form)"
            )
        raise ValueError(f"unknown family {text!r}")

    def uses_q(self) -> bool:
        """Whether the derived polynomials mention the parameter q."""
        return self.tag in ("qdef", "qbar")

    def _qbar_alpha(self) -> tuple[int, ...]:
        # the base-change substitution target 1 - g(q)
        return rings.zp_sub(rings.ZP_ONE, self.g)

    def ghost_weight(self, n: int, d: int) -> MPoly:
        """The coefficient of a_d^(n/d) in the n-th ghost component."""
        m = n // d
        if self.tag == "classical":
            return MPoly.const(d)
        if self.tag == "qdef":
            return MPoly.const(d) * MPoly.var(Q, m - 1) if m > 1 else MPoly.const(d)
        if self.tag == "lenart":
            return MPoly.const(d * self.q ** (m - 1))
        if self.tag == "qbar":
            # d * (1 + t + ... + t^(m-1)) at t = 1 - q, then q -> 1 - g(q)
            alpha = self._qbar_alpha()
            t = rings.zp_sub(rings.ZP_ONE, alpha)
            acc = rings.ZP_ZERO
            for j in range(m):
                acc = rings.zp_add(acc, rings.zp_pow(t, j))
            return MPoly.from_zpoly(rings.zp_scale(d, acc))
        raise ValueError(f"unknown family tag {self.tag!r}")

    def twist(self) -> MPoly:
        """The ghost-side multiplication twist (ghost(ab) = twist*ghost(a)*ghost(b))."""
        if self.tag in ("classical", "lenart"):
            return MPoly.const(1)
        if self.tag == "qdef":
            return MPoly.var(Q)
        if self.tag == "qbar":
            return MPoly.from_zpoly(self._qbar_alpha())
        raise ValueError(f"unknown family tag {self.tag!r}")


@dataclass(frozen=True)
class UniversalPolySet:
    """All structure polynomials of one family on one truncation set."""

    family: Family
    tset: TruncationSet
    sigma: dict[int, MPoly]
    pi: dict[int, MPoly]
    neg: dict[int, MPoly]
    frob: dict[int, dict[int, MPoly]]

    def law(self, kind: str):
        if kind == "add":
            return self.sigma
        if kind == "mul":
            return self.pi
        if kind == "neg":
            return self.neg
        raise ValueError(f"unknown law {kind!r}")


def ghost_poly(family: Family, tset: TruncationSet, n: int, bank: str = "x") -> MPoly:
    """The n-th ghost component of the generic vector in the given bank."""
    if n not in tset:
        raise ValueError(f"{n} is not in {tset}")
    mk = xvar if bank == "x" else yvar
    acc = MPoly.zero()
    for d in divisors(n):
        acc = acc + family.ghost_weight(n, d) * MPoly.var(mk(d), n // d)
    return acc


def invert_ghost_weights(
    weights, tset: TruncationSet, targets: dict[int, MPoly], what: str = ""
) -> dict[int, MPoly]:
    """Solve sum_{d|n} weights(n,d) * A_d^(n/d) = targets[n] for the A_n.

    ``weights`` is any (n, d) -> MPoly map with weights(n, n) = n.  The
    recursion peels the diagonal term and divides; a failed division means
    the targets are not a ghost vector and raises IntegralityViolation.
    """
    coords: dict[int, MPoly] = {}
    for n in tset:
        acc = targets[n]
        for d in divisors(n):
            if d == n:
                continue
            acc = acc - weights(n, d) * (coords[d] ** (n // d))
        q = acc.try_div_int(n)
        if q is None:
            raise IntegralityViolation(f"ghost inversion failed at index {n} {what}")
        coords[n] = q
    return coords


def ghost_invert_sym(
    family: Family, tset: TruncationSet, targets: dict[int, MPoly]
) -> dict[int, MPoly]:
    """Family form of :func:`invert_ghost_weights`."""
    return invert_ghost_weights(
        family.ghost_weight, tset, targets, f"for family {family.label()}"
    )


def _check_verschiebung_shift(family: Family, tset: TruncationSet) -> None:
    """Certify that the coordinate shift realizes ghost-side Verschiebung.

    For every m in S the shift placing a_v at position m*v must satisfy
    ghost_S(shift(a))_n = m * ghost_{S/m}(a)_{n/m} when m | n and 0
    otherwise.  This holds for every shipped family because the ghost
    weights obey w(m*n, m*d) = m * w(n, d); it is verified here rather
    than assumed.
    """
    for m in tset:
        if m == 1:
            continue
        sub = tset.quotient(m)
        shift_map = {}
        for d in tset:
            shift_map[xvar(d)] = (
                MPoly.var(xvar(d // m)) if d % m == 0 else MPoly.zero()
            )
        for n in tset:
            lhs = ghost_poly(family, tset, n).substitute(shift_map)
            if n % m == 0:
                rhs = MPoly.const(m) * ghost_poly(family, sub, n // m)
            else:
                rhs = MPoly.zero()
            if lhs != rhs:
                raise CertificationError(
                    f"coordinate shift is not Verschiebung for {family.label()} "
                    f"on {tset} at m={m}, n={n}"
                )


def _derive_uncached(family: Family, tset: TruncationSet) -> UniversalPolySet:
    gx = {n: ghost_poly(family, tset, n, "x") for n in tset}
    gy = {n: ghost_poly(family, tset, n, "y") for n in tset}
    twist = family.twist()

    sigma = ghost_invert_sym(family, tset, {n: gx[n] + gy[n] for n in tset})
    pi = ghost_invert_sym(family, tset, {n: twist * gx[n] * gy[n] for n in tset})
    neg = ghost_invert_sym(family, tset, {n: -gx[n] for n in tset})

    frob: dict[int, dict[int, MPoly]] = {}
    for m in tset:
        sub = tset.quotient(m)
        frob[m] = ghost_invert_sym(family, sub, {v: gx[m * v] for v in sub})

    for n in tset:
        for poly in (sigma[n], pi[n], neg[n]):
            if poly.constant_term():
                raise CertificationError(
                    f"structure polynomial at {n} has a constant term"
                )
    _check_verschiebung_shift(family, tset)

    return UniversalPolySet(family, tset, sigma, pi, neg, frob)


# ----------------------------------------------------------------------
# Memoization: in-memory map plus an optional content-hashed disk layer.

_MEM: dict[tuple, UniversalPolySet] = {}
_LOCK = threading.Lock()
_CACHE_DIR: str | None = None  # off until set_cache_dir names a directory


def set_cache_dir(path: str | None) -> None:
    """Configure (or disable, with None) the on-disk polynomial cache."""
    global _CACHE_DIR
    _CACHE_DIR = path


def _cache_file(family: Family, tset: TruncationSet) -> str | None:
    if not _CACHE_DIR:
        return None
    name = f"{family.label()}__{str(tset).replace(',', '-')}.json"
    name = name.replace("*", "").replace("^", "p").replace(":", "_")
    return os.path.join(_CACHE_DIR, name)


def _polyset_payload(ps: UniversalPolySet) -> dict:
    return {
        "family": ps.family.label(),
        "set": list(ps.tset.elements),
        "sigma": {str(n): ps.sigma[n].to_json() for n in ps.tset},
        "pi": {str(n): ps.pi[n].to_json() for n in ps.tset},
        "neg": {str(n): ps.neg[n].to_json() for n in ps.tset},
        "frob": {
            str(m): {str(v): poly.to_json() for v, poly in bank.items()}
            for m, bank in ps.frob.items()
        },
    }


def _payload_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _disk_load(family: Family, tset: TruncationSet) -> UniversalPolySet | None:
    path = _cache_file(family, tset)
    if not path:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            wrapped = json.load(fh)
        payload = wrapped["payload"]
        if wrapped.get("hash") != _payload_hash(payload):
            return None
        if payload["family"] != family.label() or tuple(payload["set"]) != tset.elements:
            return None
        sigma = {int(n): MPoly.from_json(p) for n, p in payload["sigma"].items()}
        pi = {int(n): MPoly.from_json(p) for n, p in payload["pi"].items()}
        neg = {int(n): MPoly.from_json(p) for n, p in payload["neg"].items()}
        frob = {
            int(m): {int(v): MPoly.from_json(p) for v, p in bank.items()}
            for m, bank in payload["frob"].items()
        }
        return UniversalPolySet(family, tset, sigma, pi, neg, frob)
    except (OSError, KeyError, ValueError, json.JSONDecodeError):
        return None


def _disk_store(ps: UniversalPolySet) -> None:
    path = _cache_file(ps.family, ps.tset)
    if not path:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = _polyset_payload(ps)
        wrapped = {"hash": _payload_hash(payload), "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(wrapped))  # one-shot dumps runs the C encoder
        os.replace(tmp, path)
    except OSError:
        pass  # the cache is an accelerator, never a requirement


def derive(family: Family, tset: TruncationSet) -> UniversalPolySet:
    """Derive (or fetch) all structure polynomials for (family, S)."""
    key = (family.key(), tset.elements)
    with _LOCK:
        hit = _MEM.get(key)
    if hit is not None:
        return hit
    ps = _disk_load(family, tset)
    if ps is None:
        ps = _derive_uncached(family, tset)
        _disk_store(ps)
    with _LOCK:
        _MEM.setdefault(key, ps)
    return ps


# ----------------------------------------------------------------------
# Derived constructions and certificates.


def substitute_q(ps: UniversalPolySet, value, new_family: Family) -> UniversalPolySet:
    """Substitute q -> value (an MPoly) in every polynomial of ``ps``."""
    sub = {Q: value}
    return UniversalPolySet(
        new_family,
        ps.tset,
        {n: p.substitute(sub) for n, p in ps.sigma.items()},
        {n: p.substitute(sub) for n, p in ps.pi.items()},
        {n: p.substitute(sub) for n, p in ps.neg.items()},
        {
            m: {v: p.substitute(sub) for v, p in bank.items()}
            for m, bank in ps.frob.items()
        },
    )


def base_change_qbar(g, tset: TruncationSet) -> UniversalPolySet:
    """The q -> 1-g(q) base change of the base twisted-ghost family.

    This is the substitution route to the same polynomial set that
    ``derive(Family.qbar(g), s)`` computes directly from substituted ghost
    weights; the two are compared in the certification suite.
    """
    g = rings.zp_trim(g)
    base = derive(Family.qbar(), tset)
    alpha = MPoly.from_zpoly(rings.zp_sub(rings.ZP_ONE, g))
    return substitute_q(base, alpha, Family.qbar(g))


def roundtrip_certificate(family: Family, tset: TruncationSet) -> bool:
    """Re-check symbolically that the derived laws solve their ghost equations."""
    ps = derive(family, tset)
    gx = {n: ghost_poly(family, tset, n, "x") for n in tset}
    gy = {n: ghost_poly(family, tset, n, "y") for n in tset}
    twist = family.twist()
    for n in tset:
        add_ghost = MPoly.zero()
        mul_ghost = MPoly.zero()
        for d in divisors(n):
            w = family.ghost_weight(n, d)
            add_ghost = add_ghost + w * (ps.sigma[d] ** (n // d))
            mul_ghost = mul_ghost + w * (ps.pi[d] ** (n // d))
        if add_ghost != gx[n] + gy[n]:
            return False
        if mul_ghost != twist * gx[n] * gy[n]:
            return False
    return True


def power_coords(family: Family, tset: TruncationSet, e: int) -> dict[int, MPoly]:
    """Coordinates of the e-th power map, by iterating the product law."""
    if e < 1:
        raise ValueError("power must be at least 1")
    ps = derive(family, tset)
    coords = {n: MPoly.var(xvar(n)) for n in tset}
    for _ in range(e - 1):
        ybind = {yvar(n): coords[n] for n in tset}
        coords = {n: ps.pi[n].substitute(ybind) for n in tset}
    return coords


def frobenius_mod_p_certificate(family: Family, tset: TruncationSet, p: int) -> bool:
    """Polynomial-level check that Frobenius at p is the p-th power mod p.

    The theorem says that on every ring the difference between Frobenius
    and the projected p-th power map lands in p * W_{S/p}; membership in
    that subgroup is not a coordinatewise condition, so the check runs on
    the ghost side, where it is exact: the ghost of the difference must be
    divisible by p componentwise and the quotient tuple must invert to
    integral coordinates.  The p-th power coordinates G_v are produced by
    iterating the product law and are cross-checked against the closed
    ghost form twist^(p-1) * ghost_v^p on the way.

    As a stronger coordinatewise statement, frob[p][v] - G_v itself is
    divisible by p whenever p does not divide v; that is asserted too.
    (At indices divisible by p only the subgroup form holds.)
    """
    if p not in tset:
        raise ValueError(f"{p} is not in {tset}")
    ps = derive(family, tset)
    sub = tset.quotient(p)
    power = power_coords(family, sub, p)
    twist_pow = family.twist() ** (p - 1)
    ghost_diff = {}
    for v in sub:
        gpow = MPoly.zero()
        for d in divisors(v):
            gpow = gpow + family.ghost_weight(v, d) * (power[d] ** (v // d))
        gv = ghost_poly(family, sub, v, "x")
        if gpow != twist_pow * (gv**p):
            return False  # iterated product disagrees with the ghost form
        ghost_diff[v] = ghost_poly(family, tset, p * v, "x") - gpow
        if v % p != 0 and (ps.frob[p][v] - power[v]).try_div_int(p) is None:
            return False
    quotients = {}
    for v in sub:
        q = ghost_diff[v].try_div_int(p)
        if q is None:
            return False
        quotients[v] = q
    try:
        ghost_invert_sym(family, sub, quotients)
    except IntegralityViolation:
        return False
    return True


def q_scaling_transform(poly: MPoly) -> MPoly:
    """Multiply every coordinate variable by q, then divide the result by q.

    Applied to a classical structure polynomial this produces its
    one-parameter deformation; the division is exact because structure
    polynomials have no constant term.
    """
    qp = MPoly.var(Q)
    mapping = {v: qp * MPoly.var(v) for v in poly.variables() if v != Q}
    scaled = poly.substitute(mapping)
    out = scaled.div_exact_var(Q)
    if out is None:
        raise IntegralityViolation("q-scaling transform was not divisible by q")
    return out


def qdef_matches_scaled_classical(tset: TruncationSet) -> bool:
    """Certify that the q-deformed laws are the q-scaled classical laws."""
    cl = derive(Family.classical(), tset)
    qd = derive(Family.qdef(), tset)
    for n in tset:
        if q_scaling_transform(cl.sigma[n]) != qd.sigma[n]:
            return False
        if q_scaling_transform(cl.pi[n]) != qd.pi[n]:
            return False
    for m in tset:
        for v in tset.quotient(m):
            if q_scaling_transform(cl.frob[m][v]) != qd.frob[m][v]:
                return False
    return True


def specializes_to_classical(family: Family, tset: TruncationSet) -> bool:
    """Certify that q -> 1 collapses the family's laws to the classical ones."""
    ps = derive(family, tset)
    cl = derive(Family.classical(), tset)
    one = MPoly.const(1)
    at1 = substitute_q(ps, one, Family.classical())
    return (
        all(at1.sigma[n] == cl.sigma[n] for n in tset)
        and all(at1.pi[n] == cl.pi[n] for n in tset)
        and all(
            at1.frob[m][v] == cl.frob[m][v] for m in tset for v in tset.quotient(m)
        )
    )


def frobenius_composition_certificate(family: Family, tset: TruncationSet) -> bool:
    """Check f^(n) o f^(m) = f^(nm) as polynomial substitution when nm in S."""
    ps = derive(family, tset)
    for m in tset:
        sub = tset.quotient(m)
        for n in sub:
            if m * n not in tset:
                continue
            bind = {xvar(d): ps.frob[m][d] for d in sub}
            for v in tset.quotient(m * n):
                composed = derive(family, sub).frob[n][v].substitute(bind)
                if composed != ps.frob[m * n][v]:
                    return False
    return True
