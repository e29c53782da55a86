"""Witt vector values and arithmetic over arbitrary coefficient rings.

A :class:`WittVector` is a family tag, a truncation set, a coefficient
ring, an optional binding for the deformation parameter q, and one
coordinate per set member.  Addition, multiplication, negation and
Frobenius take the ghost route: apply the family's ghost map, act
componentwise on the ghost side (the product carries the family's twist),
then invert the ghost map recursively, asserting every division.  Over a
ring with torsion (``zmod``, and twisted or Witt rings built on it) the
same steps run on a torsion-free cover of the ring and each coordinate is
reduced at the end.  The result is what the universal structure
polynomials of :mod:`qwitt.universal` give, because they have integer
coefficients; they are never evaluated here and stay the independent
oracle of the tests.  Verschiebung is the certified coordinate shift.

Rings of Witt vectors can themselves serve as coefficient rings through
:class:`WittCoeffRing`; that is what the nesting isomorphism consumes.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import partial
from threading import Lock

from .errors import (
    BudgetExceeded,
    CrossRingError,
    NotInGhostImage,
    UnsupportedRingOperation,
)
from .mpoly import MPoly
from .rings import Ring, ZqRing, ZP_Q
from .truncset import TruncationSet, divisors
from .universal import Family


@dataclass(frozen=True)
class WittVector:
    family: Family
    tset: TruncationSet
    ring: Ring
    qval: object
    coords: tuple

    def coord(self, n: int):
        return self.coords[self.tset.index(n)]

    def __repr__(self):
        body = ", ".join(self.ring.to_str(c) for c in self.coords)
        return f"W[{self.family.label()};{self.tset}]({body})"


def resolve_q(family: Family, ring: Ring, q=None):
    """Normalize the q binding for a (family, ring) pair.

    Families without a free parameter take no binding.  Over the
    polynomial ring the binding defaults to the generator; elsewhere an
    explicit ring element (or an integer, in a unital ring) is required.
    """
    if not family.uses_q():
        if q is not None:
            raise CrossRingError(f"family {family.label()} takes no q binding")
        return None
    if q is None:
        if isinstance(ring, ZqRing):
            return ZP_Q
        raise CrossRingError(
            f"family {family.label()} over {ring.descriptor} needs an explicit q"
        )
    if isinstance(q, int):
        return ring.from_int(q)
    return ring.check(q)


def make(family: Family, tset: TruncationSet, ring: Ring, coords, q=None) -> WittVector:
    coords = tuple(ring.check(c) for c in coords)
    if len(coords) != len(tset):
        raise CrossRingError(
            f"expected {len(tset)} coordinates for {tset}, got {len(coords)}"
        )
    return WittVector(family, tset, ring, resolve_q(family, ring, q), coords)


def zero(family: Family, tset: TruncationSet, ring: Ring, q=None) -> WittVector:
    return make(family, tset, ring, [ring.zero()] * len(tset), q)


def teichmuller(family: Family, tset: TruncationSet, ring: Ring, c, q=None) -> WittVector:
    """The multiplicative lift (c, 0, ..., 0)."""
    coords = [ring.check(c)] + [ring.zero()] * (len(tset) - 1)
    return make(family, tset, ring, coords, q)


def random_vector(family, tset, ring, rng, q=None) -> WittVector:
    return make(family, tset, ring, [ring.random(rng) for _ in tset], q)


# ----------------------------------------------------------------------
# The evaluation engine.  A _Law holds, for one (family, S, ring, q)
# context, the ghost rows of S and of each S/m; a row serves both the
# ghost map and its inverse.  Every operation applies the ghost map, acts
# componentwise on the ghost side (twisted by the family's product twist
# for mul) and inverts recursively, asserting each division.  A ring with
# torsion runs these steps on its torsion-free cover and reduces the
# coordinates at the end; that is valid because every structure
# polynomial has integer coefficients.


def _scaler(ring: Ring, poly: MPoly, qval):
    """The map x -> p(q)*x on ``ring`` for a polynomial p in q alone.

    None when p = 1.  Only the Z-action and the product of the ring are
    used, so the map exists in non-unital rings too.
    """
    c0, w = 0, None  # the constant term, and the rest of p(q) in the ring
    for key, c in poly.terms():
        if not key:
            c0 = c
            continue
        term = ring.int_scale(c, ring.pow(qval, key[0][1]))
        w = term if w is None else ring.add(w, term)
    if w is None:
        return None if c0 == 1 else partial(ring.int_scale, c0)
    if c0 and ring.unital:  # fold the constant in: one product per use
        w, c0 = ring.add(w, ring.from_int(c0)), 0
    if not c0:
        return partial(ring.mul, w)
    add, mul, scale = ring.add, ring.mul, ring.int_scale
    return lambda x: add(scale(c0, x), mul(w, x))


def _ghost_rows(family: Family, tset: TruncationSet, ring: Ring, qval) -> list:
    """Per n in S: its index, n, and the off-diagonal ghost terms.

    The terms w(n,d) * a_d^(n/d) for d | n, d < n, are (index of d, n/d,
    scaler).  The diagonal weight w(n,n) is n in every family, so the
    ghost is n*a_n plus the terms, and the inverse peels them off and
    divides by n.
    """
    return [
        (i, n, [
            (tset.index(d), n // d, _scaler(ring, family.ghost_weight(n, d), qval))
            for d in divisors(n)[:-1]
        ])
        for i, n in enumerate(tset)
    ]


class _Law:
    """The ghost-route engine of one (family, S, ring, q) context.

    Its methods take and return coordinate tuples in the order of S.
    """

    def __init__(self, family: Family, tset: TruncationSet, ring: Ring, qval):
        self.family, self.tset, self.ring, self.qval = family, tset, ring, qval
        self.cover, self.reduce = ring.cover()
        self.rows = _ghost_rows(family, tset, self.cover, qval)
        self.twist = _scaler(self.cover, family.twist(), qval)
        # F_m: S/m, the ghost rows of S at m*v, and the rows of S/m to invert
        self.frob = {}
        for m in tset:
            sub = tset.quotient(m)
            self.frob[m] = (sub, [self.rows[tset.index(m * v)] for v in sub],
                            _ghost_rows(family, sub, self.cover, qval))

    def _ghost(self, xs, rows) -> list:
        add, scale, pw = self.cover.add, self.cover.int_scale, self.cover.pow
        out = []
        for i, n, terms in rows:
            g = xs[i] if n == 1 else scale(n, xs[i])
            for j, e, s in terms:
                t = xs[j] if e == 1 else pw(xs[j], e)
                g = add(g, t if s is None else s(t))
            out.append(g)
        return out

    def _invert(self, gs, rows) -> tuple:
        sub, div, pw = self.cover.sub, self.cover.try_div_int, self.cover.pow
        cs: list = []
        for g, (_, n, terms) in zip(gs, rows):
            for j, e, s in terms:
                t = cs[j] if e == 1 else pw(cs[j], e)
                g = sub(g, t if s is None else s(t))
            if n > 1:
                g = div(g, n)
                if g is None:
                    raise NotInGhostImage(
                        f"component {n} is not reachable: division by {n} failed"
                    )
            cs.append(g)
        return self._reduced(cs)

    def _reduced(self, values) -> tuple:
        return tuple(map(self.reduce, values)) if self.reduce else tuple(values)

    def add(self, xs, ys) -> tuple:
        gs = map(self.cover.add, self._ghost(xs, self.rows), self._ghost(ys, self.rows))
        return self._invert(gs, self.rows)

    def mul(self, xs, ys) -> tuple:
        gs = map(self.cover.mul, self._ghost(xs, self.rows), self._ghost(ys, self.rows))
        if self.twist is not None:
            gs = map(self.twist, gs)
        return self._invert(gs, self.rows)

    def neg(self, xs) -> tuple:
        return self._invert(map(self.cover.neg, self._ghost(xs, self.rows)), self.rows)

    def frobenius(self, m: int, xs) -> tuple:
        """F_m: ghost component m*v of S becomes component v of S/m."""
        _, rows, inverse = self.frob[m]
        return self._invert(self._ghost(xs, rows), inverse)

    def ghost(self, xs) -> tuple:
        return self._reduced(self._ghost(xs, self.rows))

    def unghost(self, gs) -> tuple:
        return self._invert(gs, self.rows)

    def div_int(self, xs, k: int):
        """The unique ys with k*ys = xs, or None: divide the ghost, then invert.

        Needs a torsion-free ring with exact integer division.
        """
        gs = [self.cover.try_div_int(g, k) for g in self._ghost(xs, self.rows)]
        if None in gs:
            return None
        try:
            return self._invert(gs, self.rows)
        except NotInGhostImage:
            return None


_LAW_CACHE: dict = {}
_LAW_LOCK = Lock()


def _qkey(qval):
    return qval if isinstance(qval, (int, tuple, type(None))) else repr(qval)


def _law(family: Family, tset: TruncationSet, ring: Ring, qval) -> _Law:
    key = (family.key(), tset.elements, ring.descriptor, _qkey(qval))
    with _LAW_LOCK:
        law = _LAW_CACHE.get(key)
    if law is None:
        law = _Law(family, tset, ring, qval)
        with _LAW_LOCK:
            law = _LAW_CACHE.setdefault(key, law)
    return law


def _match(a: WittVector, b: WittVector):
    if (
        a.family != b.family
        or a.tset != b.tset
        or a.ring != b.ring
        or _qkey(a.qval) != _qkey(b.qval)
    ):
        raise CrossRingError(f"mismatched Witt vectors: {a!r} vs {b!r}")


# ----------------------------------------------------------------------
# Arithmetic.


def add(a: WittVector, b: WittVector) -> WittVector:
    _match(a, b)
    law = _law(a.family, a.tset, a.ring, a.qval)
    return WittVector(a.family, a.tset, a.ring, a.qval, law.add(a.coords, b.coords))


def mul(a: WittVector, b: WittVector) -> WittVector:
    _match(a, b)
    law = _law(a.family, a.tset, a.ring, a.qval)
    return WittVector(a.family, a.tset, a.ring, a.qval, law.mul(a.coords, b.coords))


def neg(a: WittVector) -> WittVector:
    law = _law(a.family, a.tset, a.ring, a.qval)
    return WittVector(a.family, a.tset, a.ring, a.qval, law.neg(a.coords))


def sub(a: WittVector, b: WittVector) -> WittVector:
    return add(a, neg(b))


def int_scale(k: int, a: WittVector) -> WittVector:
    """The k-fold sum of ``a`` (Z-action on the additive group)."""
    if k == 0:
        return zero(a.family, a.tset, a.ring, a.qval)
    if k < 0:
        return neg(int_scale(-k, a))
    acc = None
    base = a
    while k:
        if k & 1:
            acc = base if acc is None else add(acc, base)
        k >>= 1
        if k:
            base = add(base, base)
    return acc


def eq(a: WittVector, b: WittVector) -> bool:
    _match(a, b)
    return all(a.ring.eq(x, y) for x, y in zip(a.coords, b.coords))


def is_zero(a: WittVector) -> bool:
    return all(a.ring.is_zero(c) for c in a.coords)


def ghost(a: WittVector) -> tuple:
    """The ghost coordinates (sum_{d|n} w(n,d) a_d^(n/d))_n."""
    return _law(a.family, a.tset, a.ring, a.qval).ghost(a.coords)


def unghost(family: Family, tset: TruncationSet, ring: Ring, xs, q=None) -> WittVector:
    """The unique vector with the given ghost coordinates.

    Needs exact integer division and torsion-freeness in the ring; raises
    NotInGhostImage when some interior division fails.
    """
    if not (ring.supports_div_int and ring.torsion_free):
        raise UnsupportedRingOperation(
            f"{ring.descriptor} cannot invert the ghost map exactly"
        )
    qval = resolve_q(family, ring, q)
    xs = tuple(ring.check(x) for x in xs)
    if len(xs) != len(tset):
        raise CrossRingError(f"expected {len(tset)} ghost components")
    coords = _law(family, tset, ring, qval).unghost(xs)
    return WittVector(family, tset, ring, qval, coords)


def frobenius(a: WittVector, m: int) -> WittVector:
    """F_m into the quotient set S/m."""
    if m not in a.tset:
        raise CrossRingError(f"{m} is not in {a.tset}")
    law = _law(a.family, a.tset, a.ring, a.qval)
    coords = law.frobenius(m, a.coords)
    return WittVector(a.family, law.frob[m][0], a.ring, a.qval, coords)


def verschiebung(a: WittVector, m: int, into: TruncationSet) -> WittVector:
    """V_m from S/m back into S: the certified coordinate shift."""
    if m not in into:
        raise CrossRingError(f"{m} is not in {into}")
    if into.quotient(m) != a.tset:
        raise CrossRingError(
            f"vector over {a.tset} is not in the domain of V_{m} into {into}"
        )
    z = a.ring.zero()
    coords = tuple(
        a.coord(n // m) if n % m == 0 else z for n in into
    )
    return WittVector(a.family, into, a.ring, a.qval, coords)


def project(a: WittVector, sub: TruncationSet) -> WittVector:
    """Drop coordinates outside ``sub`` (a ring homomorphism)."""
    if not sub.is_subset(a.tset):
        raise CrossRingError(f"{sub} is not a subset of {a.tset}")
    coords = tuple(a.coord(n) for n in sub)
    return WittVector(a.family, sub, a.ring, a.qval, coords)


def section(a: WittVector, into: TruncationSet) -> WittVector:
    """Zero-fill the missing coordinates (a map of sets, not rings)."""
    if not a.tset.is_subset(into):
        raise CrossRingError(f"{a.tset} is not a subset of {into}")
    z = a.ring.zero()
    coords = tuple(a.coord(n) if n in a.tset else z for n in into)
    return WittVector(a.family, into, a.ring, a.qval, coords)


def map_coords(a: WittVector, fn, ring: Ring) -> WittVector:
    """Apply a coefficient-ring homomorphism coordinatewise."""
    return WittVector(
        a.family, a.tset, ring, a.qval if not a.family.uses_q() else fn(a.qval),
        tuple(ring.check(fn(c)) for c in a.coords),
    )


def is_divisible(a: WittVector, p: int, e: int = 1) -> bool:
    """Membership of ``a`` in p^e * W_S (not a coordinatewise condition).

    Over torsion-free rings with exact division this is decided through
    the ghost map: divide every ghost coordinate by p^e and check the
    quotient tuple inverts integrally.  Over small finite rings the
    subgroup is enumerated.
    """
    ring = a.ring
    if ring.supports_div_int and ring.torsion_free:
        law = _law(a.family, a.tset, ring, a.qval)
        return law.div_int(a.coords, p**e) is not None
    if ring.finite:
        subgroup = _p_power_subgroup(a.family, a.tset, ring, a.qval, p, e)
        return a.coords in subgroup
    raise UnsupportedRingOperation(
        f"cannot decide p-power membership over {ring.descriptor}"
    )


_SUBGROUP_CACHE: dict = {}


def _p_power_subgroup(family, tset, ring, qval, p, e, budget: int = 8192):
    key = (family.key(), tset.elements, ring.descriptor, _qkey(qval), p, e)
    hit = _SUBGROUP_CACHE.get(key)
    if hit is not None:
        return hit
    members = set()
    for w in enumerate_vectors(family, tset, ring, q=qval, budget=budget):
        members.add(int_scale(p**e, w).coords)
    _SUBGROUP_CACHE[key] = members
    return members


def enumerate_vectors(family, tset, ring, q=None, budget: int = 65536):
    """All Witt vectors over a finite ring (budget-capped)."""
    elems = list(ring.enumerate())
    total = len(elems) ** len(tset)
    if total > budget:
        raise BudgetExceeded(f"would enumerate {total} vectors (budget {budget})")
    qval = resolve_q(family, ring, q)
    for combo in itertools.product(elems, repeat=len(tset)):
        yield WittVector(family, tset, ring, qval, combo)


def exact_sequence_check(
    tset: TruncationSet,
    p: int,
    ring: Ring,
    family: Family = Family.classical(),
    q=None,
    budget: int = 65536,
) -> bool:
    """Full-enumeration check of 0 -> W_{S/p} -> W_S -> W_{S(p)} -> 0."""
    qval = resolve_q(family, ring, q)
    sub = tset.quotient(p)
    comp = tset.prime_complement(p)
    image = set()
    seen = 0
    for w in enumerate_vectors(family, sub, ring, q=qval, budget=budget):
        image.add(verschiebung(w, p, tset).coords)
        seen += 1
    if len(image) != seen:
        return False  # V_p not injective
    kernel = set()
    projected = set()
    for w in enumerate_vectors(family, tset, ring, q=qval, budget=budget):
        pw = project(w, comp)
        projected.add(pw.coords)
        if is_zero(pw):
            kernel.add(w.coords)
    full_target = {
        w.coords for w in enumerate_vectors(family, comp, ring, q=qval, budget=budget)
    }
    return kernel == image and projected == full_target


# ----------------------------------------------------------------------
# Witt rings as coefficient rings.


class WittCoeffRing(Ring):
    """W_S(A) packaged as a coefficient ring; elements are coordinate tuples.

    Exact integer division is solved through the ghost map (divide the
    ghost, invert back), which is what the nesting isomorphism needs.
    """

    def __init__(self, base: Ring, tset: TruncationSet,
                 family: Family = Family.classical(), q=None):
        self.tset = tset
        self.family = family
        self.qval = resolve_q(family, base, q)
        self.reduced = False  # not needed; stay conservative
        self._set_base(base)

    def _set_base(self, base: Ring) -> None:
        self.base = base
        label = ""
        if self.family.tag != "classical":
            bound = "" if self.qval is None else f"(q={base.to_str(self.qval)})"
            label = f"{self.family.label()}{bound}@"
        self.descriptor = f"witt:{label}{base.descriptor}:{self.tset}"
        self.torsion_free = base.torsion_free
        self.finite = base.finite
        self.supports_div_int = base.torsion_free and base.supports_div_int
        self.unital = base.unital and self.family.tag == "classical"

    def cover(self):
        base, reduce = self.base.cover()
        if reduce is None:
            return self, None
        # the same Witt ring over the base's cover; elements and q carry over
        lifted = copy.copy(self)
        lifted._set_base(base)
        return lifted, lambda a: tuple(map(reduce, a))

    def _wrap(self, coords) -> WittVector:
        return WittVector(self.family, self.tset, self.base, self.qval, tuple(coords))

    def zero(self):
        return (self.base.zero(),) * len(self.tset)

    def one(self):
        if not self.unital:
            raise UnsupportedRingOperation(f"{self.descriptor} is not unital")
        return teichmuller(self.family, self.tset, self.base, self.base.one()).coords

    def add(self, a, b):
        return add(self._wrap(a), self._wrap(b)).coords

    def neg(self, a):
        return neg(self._wrap(a)).coords

    def mul(self, a, b):
        return mul(self._wrap(a), self._wrap(b)).coords

    def is_zero(self, a):
        return all(self.base.is_zero(c) for c in a)

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def try_div_int(self, a, k):
        if not self.supports_div_int:
            raise UnsupportedRingOperation(
                f"{self.descriptor} has no exact integer division"
            )
        return _law(self.family, self.tset, self.base, self.qval).div_int(a, k)

    def is_divisible_mod(self, a, p, e):
        return is_divisible(self._wrap(a), p, e)

    def enumerate(self):
        for w in enumerate_vectors(self.family, self.tset, self.base, q=self.qval):
            yield w.coords

    def check(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.tset):
            raise ValueError(
                f"expected a {len(self.tset)}-coordinate tuple for {self.descriptor}"
            )
        return tuple(self.base.check(c) for c in a)

    def random(self, rng):
        return tuple(self.base.random(rng) for _ in self.tset)

    def to_str(self, a):
        return "(" + ", ".join(self.base.to_str(c) for c in a) + ")"

    def to_json(self, a):
        return {
            "coords": {str(n): self.base.to_json(c) for n, c in zip(self.tset, a)}
        }

    def from_json(self, value):
        coords = indexed_from_json(value, "coords", self.tset, lambda n: self.base)
        return self.check(tuple(coords))


# ----------------------------------------------------------------------
# JSON forms of vectors, shared with the command line.


def vector_to_json(a: WittVector) -> dict:
    return {"coords": {str(n): a.ring.to_json(c) for n, c in zip(a.tset, a.coords)}}


def indexed_from_json(data, field: str, tset: TruncationSet, ring_at) -> list:
    """The elements data[field][str(n)] of the rings ring_at(n), n in S.

    Raises ValueError when a part is missing.
    """
    got = data.get(field) if isinstance(data, dict) else None
    if not isinstance(got, dict):
        raise ValueError(f"expected an object with a {field!r} field keyed by index")
    for n in tset:
        if str(n) not in got:
            raise ValueError(f"the {field!r} field is missing index {n}")
    return [ring_at(n).from_json(got[str(n)]) for n in tset]


def vector_from_json(family, tset, ring, data, q=None) -> WittVector:
    coords = indexed_from_json(data, "coords", tset, lambda n: ring)
    return make(family, tset, ring, coords, q)
