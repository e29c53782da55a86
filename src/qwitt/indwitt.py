"""Witt vectors of inductive systems of rings.

An inductive system assigns a ring A_n to every member of a truncation
set, with transition homomorphisms pi_{d,n} : A_d -> A_n for d | n.  The
Witt construction generalizes verbatim: coordinates live in different
rings, and the ghost map pushes everything up before summing.  Coordinate
n of a sum, product, negative or Frobenius image is coordinate n of the
classical operation on W_{div(n)}(A_n) at the coordinates pushed into
A_n, computed by the ghost-route engine of :mod:`qwitt.witt`.

On top of the ring structure this module implements Frobenius into the
index-shifted system, Verschiebung from the index-restricted one, the
congruence-cut description of the ghost image (and its recursive
inverse), the nested system n |-> W_{S/n}(shift_n), the universal lift
into it determined by commuting Frobenius lifts, and the induced lift of
an arbitrary transition-compatible family of ring maps.

Components of the nested system are materialized lazily as shift views;
only what a lift actually touches is built.
"""

from __future__ import annotations

import random
from functools import cache

from . import witt
from .errors import CrossRingError, NotInImage, UnsupportedRingOperation
from .report import FrozenRecord
from .rings import Ring, Z, ZQ, zp_from_int, zp_subst_qpow
from .truncset import TruncationSet, divisors, factorization, prime_factors, v_p
from .universal import Family

_CLASSICAL = Family.classical()


class IndSystem:
    """Base class for inductive systems on a truncation set."""

    tset: TruncationSet
    has_lifts: bool = False
    label: str = "?"

    def key(self) -> tuple:
        return (self.label, self.tset.elements)

    def ring(self, n: int) -> Ring:
        raise NotImplementedError

    def push(self, d: int, n: int, a):
        """The transition homomorphism pi_{d,n} for d | n."""
        raise NotImplementedError

    def lift(self, p: int, n: int, a):
        """The Frobenius lift phi_p : A_{n/p} -> A_n."""
        raise UnsupportedRingOperation(f"{self.label} has no Frobenius lifts")

    def sample(self, n: int, rng):
        return self.ring(n).random(rng)

    def shift(self, m: int) -> "IndSystem":
        """The system (A_{m*v})_v on S/m, sharing this system's maps."""
        return _Shift(self, m) if m != 1 else self

    def restrict(self, t: TruncationSet) -> "IndSystem":
        """The same rings on a divisor-stable subset of the index set."""
        return _Restrict(self, t) if t != self.tset else self

    def lift_n(self, n: int, k: int, a):
        """The composite lift phi_k : A_n -> A_{n*k}."""
        cur_idx, cur = n, a
        for p, e in factorization(k):
            for _ in range(e):
                cur = self.lift(p, cur_idx * p, cur)
                cur_idx *= p
        return cur

    def __repr__(self):
        return f"<ind-system {self.label} on {self.tset}>"


class _Shift(IndSystem):
    def __init__(self, base: IndSystem, m: int):
        self.base = base
        self.m = m
        self.tset = base.tset.quotient(m)
        self.has_lifts = base.has_lifts
        self.label = f"{base.label}>>{m}"

    def key(self):
        return self.base.key() + (("shift", self.m),)

    def ring(self, n):
        return self.base.ring(self.m * n)

    def push(self, d, n, a):
        return self.base.push(self.m * d, self.m * n, a)

    def lift(self, p, n, a):
        return self.base.lift(p, self.m * n, a)

    def shift(self, m):
        return self.base.shift(self.m * m) if m != 1 else self


class _Restrict(IndSystem):
    def __init__(self, base: IndSystem, t: TruncationSet):
        if not t.is_subset(base.tset):
            raise CrossRingError(f"{t} is not a subset of {base.tset}")
        self.base = base
        self.tset = t
        self.has_lifts = base.has_lifts
        self.label = f"{base.label}|{t}"
        # the same rings and maps, on fewer indices
        self.ring, self.push, self.lift = base.ring, base.push, base.lift

    def key(self):
        return self.base.key() + (("restrict", self.tset.elements),)


# ----------------------------------------------------------------------
# Shipped systems.


class ConstantIndSystem(IndSystem):
    """A_n = A with identity transitions; optional uniform lifts."""

    def __init__(self, ring: Ring, tset: TruncationSet, lift_fn=None, tag: str = ""):
        self._ring = ring
        self.tset = tset
        self._lift = lift_fn
        self.has_lifts = lift_fn is not None
        self.label = f"const{tag}:{ring.descriptor}"

    def ring(self, n):
        return self._ring

    def push(self, d, n, a):
        return a

    def lift(self, p, n, a):
        if self._lift is None:
            raise UnsupportedRingOperation(f"{self.label} has no Frobenius lifts")
        return self._lift(p, a)


class TrivialIndSystem(IndSystem):
    """A_n = A with zero transitions below the diagonal.

    Its Witt ring is the product of the integer-twisted rings: addition is
    coordinatewise and (a*b)_v = v * a_v * b_v; Frobenius sends (a_v) to
    (n * a_{n*v}).  Both identities are verified in the test suite against
    the generic operations rather than assumed.
    """

    def __init__(self, ring: Ring, tset: TruncationSet):
        self._ring = ring
        self.tset = tset
        self.label = f"triv:{ring.descriptor}"

    def ring(self, n):
        return self._ring

    def push(self, d, n, a):
        return a if d == n else self._ring.zero()


class ChainIndSystem(IndSystem):
    """Integers at index 1, integer polynomials above, inclusion between.

    Lifts: from the bottom the constant embedding (a Frobenius lift by the
    little Fermat congruence), higher up the substitution q -> q^p.
    """

    def __init__(self, tset: TruncationSet):
        self.tset = tset
        self.has_lifts = True
        self.label = "chain:z-zq"

    def ring(self, n):
        return Z if n == 1 else ZQ

    def push(self, d, n, a):
        if d == n:
            return a
        return zp_from_int(a) if d == 1 else a

    def lift(self, p, n, a):
        if n // p == 1:
            return zp_from_int(a) if n > 1 else a
        return zp_subst_qpow(a, p)


def constant_system(ring: Ring, tset: TruncationSet, identity_lift: bool = False):
    if identity_lift:
        return ConstantIndSystem(ring, tset, lift_fn=lambda p, a: a, tag="+id")
    return ConstantIndSystem(ring, tset)


def trivial_system(ring: Ring, tset: TruncationSet) -> TrivialIndSystem:
    return TrivialIndSystem(ring, tset)


def chain_system(tset: TruncationSet) -> ChainIndSystem:
    return ChainIndSystem(tset)


def qpow_system(tset: TruncationSet) -> ConstantIndSystem:
    """Integer polynomials with the substitution lifts f(q) -> f(q^p)."""
    return ConstantIndSystem(
        ZQ, tset, lift_fn=lambda p, a: zp_subst_qpow(a, p), tag="+qpow"
    )


# ----------------------------------------------------------------------
# Vectors and the ring structure.


class IndVector(FrozenRecord):
    __slots__ = ("system", "coords")  # an IndSystem, and one coordinate per n in S

    def coord(self, n: int):
        return self.coords[self.system.tset.index(n)]

    def __repr__(self):
        parts = ", ".join(
            self.system.ring(n).to_str(c)
            for n, c in zip(self.system.tset, self.coords)
        )
        return f"IndW[{self.system.label};{self.system.tset}]({parts})"


def make(sys: IndSystem, coords) -> IndVector:
    coords = tuple(coords)
    if len(coords) != len(sys.tset):
        raise CrossRingError(f"expected {len(sys.tset)} coordinates")
    return IndVector(sys, tuple(sys.ring(n).check(c) for n, c in zip(sys.tset, coords)))


def zero(sys: IndSystem) -> IndVector:
    return IndVector(sys, tuple(sys.ring(n).zero() for n in sys.tset))


def random_vector(sys: IndSystem, rng) -> IndVector:
    return IndVector(sys, tuple(sys.sample(n, rng) for n in sys.tset))


def _same(v: IndVector, w: IndVector):
    if v.system.key() != w.system.key():
        raise CrossRingError("vectors belong to different inductive systems")


def eq(v: IndVector, w: IndVector) -> bool:
    _same(v, w)
    return all(
        v.system.ring(n).eq(a, b)
        for n, a, b in zip(v.system.tset, v.coords, w.coords)
    )


def ind_ghost(v: IndVector) -> tuple:
    """The tuple (sum_{d|n} d * pi_{d,n}(a_d)^(n/d))_n, one entry per index."""
    sys = v.system
    out = []
    for n in sys.tset:
        ring = sys.ring(n)
        acc = ring.zero()
        for d in divisors(n):
            pushed = sys.push(d, n, v.coord(d))
            acc = ring.add(acc, ring.int_scale(d, ring.pow(pushed, n // d)))
        out.append(acc)
    return tuple(out)


@cache
def _div_law(ring: Ring, n: int):
    """The classical engine on W_{div(n)}(A_n), A_n = ``ring``; built once per ring and n."""
    return witt._law(_CLASSICAL, TruncationSet.make([n]), ring, None)


def _pushed(v: IndVector, n: int) -> tuple:
    """The coordinates of ``v`` at the divisors of n, pushed into A_n."""
    sys = v.system
    return tuple(sys.push(d, n, v.coord(d)) for d in divisors(n))


def _binary_op(v: IndVector, w: IndVector, kind: str) -> IndVector:
    # coordinate n of the classical op on the pushed coordinates; it comes
    # last, as n is the largest divisor of n
    _same(v, w)
    sys = v.system
    coords = [
        getattr(_div_law(sys.ring(n), n), kind)(_pushed(v, n), _pushed(w, n))[-1]
        for n in sys.tset
    ]
    return IndVector(sys, tuple(coords))


def ind_add(v: IndVector, w: IndVector) -> IndVector:
    return _binary_op(v, w, "add")


def ind_mul(v: IndVector, w: IndVector) -> IndVector:
    return _binary_op(v, w, "mul")


def ind_neg(v: IndVector) -> IndVector:
    sys = v.system
    coords = [_div_law(sys.ring(n), n).neg(_pushed(v, n))[-1] for n in sys.tset]
    return IndVector(sys, tuple(coords))


def ind_pow(v: IndVector, e: int) -> IndVector:
    if e < 1:
        raise ValueError("power must be at least 1")
    acc = v
    for _ in range(e - 1):
        acc = ind_mul(acc, v)
    return acc


def res(v: IndVector):
    """The surjective projection onto the first component ring."""
    return v.coord(1)


def proj(v: IndVector, t: TruncationSet) -> IndVector:
    """Coordinate restriction onto a divisor-stable subset (a ring map)."""
    sub = v.system.restrict(t)
    return IndVector(sub, tuple(v.coord(n) for n in t))


def ind_frobenius(v: IndVector, n: int) -> IndVector:
    """F_n into the Witt vectors of the index-shifted system."""
    sys = v.system
    if n not in sys.tset:
        raise CrossRingError(f"{n} is not in {sys.tset}")
    coords = [
        _div_law(sys.ring(n * nu), n * nu).frobenius(n, _pushed(v, n * nu))[-1]
        for nu in sys.tset.quotient(n)
    ]
    return IndVector(sys.shift(n), tuple(coords))


def ind_verschiebung(sys: IndSystem, v: IndVector, n: int) -> IndVector:
    """V_n from the Witt vectors of the index-restricted system into W(sys)."""
    if n not in sys.tset:
        raise CrossRingError(f"{n} is not in {sys.tset}")
    expected = sys.restrict(sys.tset.quotient(n))
    if v.system.key() != expected.key():
        raise CrossRingError("vector is not over the index-restricted system")
    coords = []
    for mu in sys.tset:
        if mu % n == 0:
            coords.append(sys.push(mu // n, mu, v.coord(mu // n)))
        else:
            coords.append(sys.ring(mu).zero())
    return IndVector(sys, tuple(coords))


def nested_transition(sys: IndSystem, d: int, n: int, v: IndVector) -> IndVector:
    """The nested-system transition W_{S/d}(shift_d) -> W_{S/n}(shift_n).

    Restrict the index set, then push every coordinate from A_{v*d} to
    A_{v*n}; these compose functorially in d | n.
    """
    if n % d:
        raise CrossRingError(f"{d} does not divide {n}")
    if v.system.key() != sys.shift(d).key():
        raise CrossRingError("vector is not a component of the nested system")
    target = sys.shift(n)
    coords = [
        sys.push(nu * d, nu * n, v.coord(nu)) for nu in sys.tset.quotient(n)
    ]
    return IndVector(target, tuple(coords))


# ----------------------------------------------------------------------
# The ghost image and its congruence description.


def dwork_test(sys: IndSystem, xs) -> bool:
    """Whether a tuple satisfies the lift congruences cutting out the
    ghost image: phi_p(x_{n/p}) = x_n mod p^(v_p(n)) A_n for all p | n."""
    if not sys.has_lifts:
        raise UnsupportedRingOperation(f"{sys.label} has no Frobenius lifts")
    xs = tuple(xs)
    for i, n in enumerate(sys.tset):
        ring = sys.ring(n)
        for p in prime_factors(n):
            below = xs[sys.tset.index(n // p)]
            diff = ring.sub(xs[i], sys.lift(p, n, below))
            if not ring.is_divisible_mod(diff, p, v_p(n, p)):
                return False
    return True


def dwork_invert(sys: IndSystem, xs) -> IndVector:
    """The unique vector with the given ghost tuple; NotInImage when the
    recursive exact divisions fail."""
    xs = tuple(xs)
    if len(xs) != len(sys.tset):
        raise CrossRingError(f"expected {len(sys.tset)} ghost components")
    coords: list = []
    for n in sys.tset:
        ring = sys.ring(n)
        acc = xs[sys.tset.index(n)]
        for d in divisors(n):
            if d == n:
                continue
            pushed = sys.push(d, n, coords[sys.tset.index(d)])
            acc = ring.sub(acc, ring.int_scale(d, ring.pow(pushed, n // d)))
        c = ring.try_div_int(acc, n)
        if c is None:
            raise NotInImage(f"ghost component {n}: division by {n} failed")
        coords.append(c)
    return IndVector(sys, tuple(coords))


def frobenius_power_congruence(sys: IndSystem, p: int, budget: int = 20,
                               seed: int = 1729) -> bool:
    """Sampled check that F_p agrees with the pushed p-th power mod p.

    Both routes land in the shifted system: F_p directly, and the p-th
    power followed by restriction and the transition push.  Their
    coordinatewise difference must be divisible by p in each A_{p*v}.
    """
    rng = random.Random(seed)
    sub = sys.tset.quotient(p)
    for _ in range(budget):
        v = random_vector(sys, rng)
        left = ind_frobenius(v, p)
        power = proj(ind_pow(v, p), sub)
        for nu in sub:
            ring = sys.ring(p * nu)
            pushed = sys.push(nu, p * nu, power.coord(nu))
            diff = ring.sub(left.coord(nu), pushed)
            if not ring.is_divisible_mod(diff, p, 1):
                return False
    return True


# ----------------------------------------------------------------------
# The nested system and its universal lifts.


def dwork_lift(sys: IndSystem, n: int, a) -> IndVector:
    """The unique Frobenius-compatible section of res at index n.

    On the ghost side the lift of ``a`` is (phi_k(a))_{k in S/n}; the
    congruences hold by construction, so the recursive inverse must
    succeed, and failure signals broken lift axioms.
    """
    if not sys.has_lifts:
        raise UnsupportedRingOperation(f"{sys.label} has no Frobenius lifts")
    shifted = sys.shift(n)
    ghost = [sys.lift_n(n, k, a) for k in shifted.tset]
    return dwork_invert(shifted, ghost)


def map_system(v: IndVector, hom, target: IndSystem) -> IndVector:
    """Apply an index-wise family of ring maps hom(n, a) coordinatewise."""
    sys = v.system
    coords = tuple(hom(n, c) for n, c in zip(sys.tset, v.coords))
    return IndVector(target, coords)


def induced_lift(sysA: IndSystem, sysB: IndSystem, hom, n: int, a,
                 via: str = "lambda") -> IndVector:
    """The unique Frobenius-compatible lift of ``hom`` through res.

    ``via='lambda'`` composes the coordinatewise image of the universal
    lift; ``via='direct'`` inverts the pushed ghost tuple
    (hom_{k*n}(phi_k(a)))_k instead.  The two must agree; tests compare
    them as the uniqueness shadow.
    """
    if via == "lambda":
        lifted = dwork_lift(sysA, n, a)
        shiftedB = sysB.shift(n)
        # coordinates at quotient index k live in the base ring at k*n
        return map_system(lifted, lambda k, c: hom(k * n, c), shiftedB)
    if via == "direct":
        shiftedB = sysB.shift(n)
        ghost = [hom(k * n, sysA.lift_n(n, k, a)) for k in shiftedB.tset]
        return dwork_invert(shiftedB, ghost)
    raise ValueError(f"unknown construction {via!r}")
