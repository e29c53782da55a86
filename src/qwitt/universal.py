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
on disk as compact JSON behind a sha256 of the JSON and of the package's
sources.  Readers may be concurrent; writers go through an atomic replace.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass

from . import rings
from .errors import BudgetExceeded, CertificationError, IntegralityViolation
from .exprs import MAX_BITS, read_int
from .mpoly import MPoly, Q, xvar, yvar
from .truncset import TruncationSet, divisors

WEIGHT_TERMS = 1 << 10  # the most terms of a qbar ghost weight


def _geometric_sum(g: tuple, m: int) -> tuple:
    """1 + g + ... + g^(m-1) in Z[q], by doubling the number of terms: about
    3*log2(m) products, where a sum term by term makes m."""
    total, power = rings.ZP_ZERO, rings.ZP_ONE  # the sum of k terms, and g^k; k = 0
    for bit in bin(m)[2:]:
        total = rings.zp_add(total, rings.zp_mul(power, total))  # k -> 2k
        power = rings.zp_mul(power, power)
        if bit == "1":  # 2k -> 2k + 1
            total = rings.zp_add(total, power)
            power = rings.zp_mul(power, g)
    return total


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
            return MPoly.const(d * rings.bounded_int_pow(self.q, m - 1))
        if self.tag == "qbar":
            # d * (1 + t + ... + t^(m-1)) at t = 1 - q, after q -> 1 - g(q):
            # t is g.  Its terms are counted first, as witt._weight takes a
            # power of q for each, and then the bits of g^(m-1).
            if (terms := (m - 1) * max(len(self.g) - 1, 0) + 1) > WEIGHT_TERMS:
                raise BudgetExceeded(
                    f"a ghost weight would have {terms} terms (budget {WEIGHT_TERMS})")
            if (bits := rings.ZQ.pow_bits(self.g, m - 1)) > MAX_BITS:
                raise BudgetExceeded(f"a ghost weight would take {bits} bits (budget {MAX_BITS})")
            return MPoly.from_zpoly(rings.zp_scale(d, _geometric_sum(self.g, m)))
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


def _check_verschiebung_shift(family: Family, tset: TruncationSet, gx: dict) -> None:
    """Certify that the coordinate shift realizes ghost-side Verschiebung.

    For every m in S the shift placing a_v at position m*v must satisfy
    ghost_S(shift(a))_n = m * ghost_{S/m}(a)_{n/m} when m | n and 0
    otherwise.  This holds for every shipped family because the ghost
    weights obey w(m*n, m*d) = m * w(n, d); it is verified here rather
    than assumed.  ``gx`` holds the ghost polynomials of S in the x bank;
    S/m is a part of S, so they serve for S/m too.
    """
    for m in tset:
        if m == 1:
            continue
        shift_map = {}
        for d in tset:
            shift_map[xvar(d)] = (
                MPoly.var(xvar(d // m)) if d % m == 0 else MPoly.zero()
            )
        for n in tset:
            lhs = gx[n].substitute(shift_map)
            rhs = MPoly.const(m) * gx[n // m] if n % m == 0 else MPoly.zero()
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
    _check_verschiebung_shift(family, tset, gx)

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


@functools.cache
def _code_tag() -> bytes:
    """The sha256 of the package's sources, which every entry's hash covers,
    so an entry that other code wrote fails its hash."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.digest()


def _digest(blob: bytes) -> bytes:
    return hashlib.sha256(_code_tag() + blob).hexdigest().encode()


_LAWS = ("sigma", "pi", "neg")  # the banks of an entry before "frob", each by position in S


def _disk_load(family: Family, tset: TruncationSet) -> UniversalPolySet | None:
    """The entry of (family, S), or None when it is missing, was written by
    other code, or is damaged or malformed in any way."""
    path = _cache_file(family, tset)
    if not path:
        return None

    def bank(polys, elements) -> dict:  # a count that does not match raises
        return dict(zip(elements, map(MPoly.from_rows, polys), strict=True))

    try:
        with open(path, "rb") as fh:
            digest, _, blob = fh.read().partition(b"\n")
        if digest != _digest(blob):
            return None
        data = json.loads(blob)
        if data["family"] != family.label() or data["set"] != list(tset.elements):
            return None
        sigma, pi, neg = (bank(data[k], tset) for k in _LAWS)
        frob = {m: bank(b, tset.quotient(m)) for m, b in zip(tset, data["frob"], strict=True)}
        return UniversalPolySet(family, tset, sigma, pi, neg, frob)
    except (OSError, ValueError, TypeError, KeyError, BudgetExceeded):
        return None


def _disk_store(ps: UniversalPolySet) -> None:
    """Write ps as one line, the hex sha256 of the code tag and the blob,
    and the blob: compact JSON of each polynomial's rows, by position in S."""
    path = _cache_file(ps.family, ps.tset)
    if not path:
        return
    s = ps.tset
    try:
        blob = json.dumps({
            "family": ps.family.label(), "set": list(s.elements),
            **{k: [getattr(ps, k)[n].to_rows() for n in s] for k in _LAWS},
            "frob": [[ps.frob[m][v].to_rows() for v in s.quotient(m)] for m in s],
        }, separators=(",", ":")).encode()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(_digest(blob) + b"\n" + blob)
        os.replace(tmp, path)
    except (OSError, ValueError):  # ValueError: an integer too long to write
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
