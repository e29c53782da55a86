"""Projective systems of rings with Frobenius lifts and Verschiebung.

A system assigns to every divisor-stable subset S of a fixed top set a
coefficient ring A_S, with projections downward, Frobenius lifts
F_p : A_S -> A_{S/p}, and optionally Verschiebung maps V_p : A_{S/p} -> A_S.
The canonical example is S |-> W_S(A).  The central construction is the
unique morphism ``alpha`` into the Witt system of the one-point ring: its
n-th ghost coordinate is the projection of F_n, and inverting the ghost
map produces honest Witt coordinates whenever the axioms hold.  With
Verschiebung present, ``alpha`` is an isomorphism and ``alpha_inverse``
computes the inverse by peeling off one Verschiebung layer at a time.

Systems are represented extensionally (a ring per subset plus maps); the
axiom verifiers sample or enumerate and report per-axiom results instead
of aborting, because the degenerate fixtures that *fail* an axiom are as
important as the canonical ones that pass.

The nesting isomorphism for coprime index sets is the payoff: the system
M_S = W_{S*T2}(A) has one-point ring W_{T2}(A), and ``alpha`` becomes the
natural map W_{T1*T2}(A) -> W_{T1}(W_{T2}(A)).
"""

from __future__ import annotations

import random

from . import witt
from .errors import CrossRingError, UnsupportedRingOperation
from .report import Report
from .mpoly import MPoly, Q
from .rings import Ring, TwistedRing
from .truncset import ONE_SET, TruncationSet, factorization
from .universal import Family
from .witt import WittCoeffRing, WittVector

ENUM_BUDGET = 4096  # the most elements of a ring that the exactness check enumerates


class ProjSystem:
    """Base class: a projective system of rings on the subsets of ``top``."""

    top: TruncationSet
    has_versch: bool = False
    label: str = "?"

    def subsets(self) -> list[TruncationSet]:
        return self.top.sub_sets()

    def ring(self, s: TruncationSet) -> Ring:
        raise NotImplementedError

    def proj(self, s_from: TruncationSet, s_to: TruncationSet, a):
        raise NotImplementedError

    def frob(self, p: int, s: TruncationSet, a):
        """F_p : A_S -> A_{S/p} for a prime p in S."""
        raise NotImplementedError

    def versch(self, p: int, s: TruncationSet, a):
        """V_p : A_{S/p} -> A_S for a prime p in S."""
        raise UnsupportedRingOperation(f"{self.label} has no Verschiebung")

    def section(self, s_from: TruncationSet, s_to: TruncationSet, a):
        """A set-theoretic right inverse of proj(s_to, s_from)."""
        raise UnsupportedRingOperation(f"{self.label} has no section")

    def sample(self, s: TruncationSet, rng):
        return self.ring(s).random(rng)

    def __repr__(self):
        return f"<system {self.label} on {self.top}>"


class WittSystem(ProjSystem):
    """The canonical system S |-> W_S(A) for one family over one ring."""

    def __init__(self, base: Ring, top: TruncationSet,
                 family: Family = Family.classical(), q=None):
        self.base = base
        self.top = top
        self.family = family
        self.context = WittCoeffRing(base, top, family, q)
        twist = family.twist()
        if twist == MPoly.const(1):
            self._point = base
        else:
            # W_{1}(A) multiplies by t through A's own product.  TwistedRing
            # composes twists through the underlying product instead, so over
            # A = B^(r) the point ring is B^(r*r*t), not (B^(r))^(t) = B^(r*t).
            point, t = base, twist.eval(base, {Q: self.context.qval})
            if isinstance(base, TwistedRing):
                point, t = base.base, base.mul(base.r, t)
            self._point = TwistedRing(point, t)
        self.has_versch = True
        self.label = f"witt:{family.label()}:{base.descriptor}:{top}"

    def ring(self, s):
        return self._point if s == ONE_SET else self.context.on(s)

    def _vec(self, s, a) -> WittVector:
        return WittVector(self.context.on(s), (a,) if s == ONE_SET else tuple(a))

    def _unwrap(self, v: WittVector):
        return v.coords[0] if v.tset == ONE_SET else v.coords

    def proj(self, s_from, s_to, a):
        return self._unwrap(witt.project(self._vec(s_from, a), s_to))

    def frob(self, p, s, a):
        return self._unwrap(witt.frobenius(self._vec(s, a), p))

    def versch(self, p, s, a):
        return self._unwrap(witt.verschiebung(self._vec(s.quotient(p), a), p, s))

    def section(self, s_from, s_to, a):
        return self._unwrap(witt.section(self._vec(s_from, a), s_to))


class ConstantSystem(ProjSystem):
    """A_S = A for every S, with identity projections.

    ``frob_fn(p, a)`` supplies the lifts (identity by default, which is a
    genuine lift over the integers and a deliberately broken one over the
    polynomial ring).  ``versch_scale=True`` installs V_p = multiplication
    by p, a fixture whose exact sequences fail.
    """

    def __init__(self, ring: Ring, top: TruncationSet, frob_fn=None,
                 versch_scale: bool = False):
        self._ring = ring
        self.top = top
        self._frob = frob_fn or (lambda p, a: a)
        self.has_versch = versch_scale
        self.label = f"const:{ring.descriptor}:{top}"

    def ring(self, s):
        return self._ring

    def proj(self, s_from, s_to, a):
        return a

    def frob(self, p, s, a):
        return self._frob(p, a)

    def versch(self, p, s, a):
        if not self.has_versch:
            raise UnsupportedRingOperation(f"{self.label} has no Verschiebung")
        return self._ring.int_scale(p, a)

    def section(self, s_from, s_to, a):
        return a


class NestedWittSystem(ProjSystem):
    """M_S = W_{S*T2}(A) for S below a top set coprime to T2.

    Its one-point ring is W_{T2}(A); running ``alpha`` on it yields the
    nesting isomorphism W_{T1*T2}(A) -> W_{T1}(W_{T2}(A)).
    """

    def __init__(self, top: TruncationSet, t2: TruncationSet, base: Ring,
                 family: Family = Family.classical(), q=None):
        self.top = top
        self.t2 = t2
        self.base = base
        self.family = family
        self.context = WittCoeffRing(base, top.product(t2), family, q)
        self.has_versch = True
        self.label = f"nested:{family.label()}:{base.descriptor}:{top}*{t2}"

    def _bigset(self, s: TruncationSet) -> TruncationSet:
        return s.product(self.t2)

    def ring(self, s):
        return self.context.on(self._bigset(s))

    def _vec(self, s, a) -> WittVector:
        return WittVector(self.ring(s), tuple(a))

    def proj(self, s_from, s_to, a):
        return witt.project(self._vec(s_from, a), self._bigset(s_to)).coords

    def frob(self, p, s, a):
        return witt.frobenius(self._vec(s, a), p).coords

    def versch(self, p, s, a):
        sub = s.quotient(p)
        return witt.verschiebung(self._vec(sub, a), p, self._bigset(s)).coords

    def section(self, s_from, s_to, a):
        return witt.section(self._vec(s_from, a), self._bigset(s_to)).coords


# ----------------------------------------------------------------------
# The composite Frobenius and the alpha construction.


def f_n(sys: ProjSystem, s: TruncationSet, n: int, a):
    """F_n as the composite of prime-indexed lifts along the factorization."""
    if n not in s:
        raise CrossRingError(f"{n} is not in {s}")
    cur_set, cur = s, a
    for p, e in factorization(n):
        for _ in range(e):
            cur = sys.frob(p, cur_set, cur)
            cur_set = cur_set.quotient(p)
    return cur


def alpha(sys: ProjSystem, s: TruncationSet, a) -> WittVector:
    """The unique system morphism into Witt vectors of the one-point ring.

    Its n-th ghost coordinate is the one-point projection of F_n(a);
    the coordinates themselves come from inverting the ghost map, which
    succeeds exactly when the system satisfies the Frobenius congruence.
    """
    point = sys.ring(ONE_SET)
    if not (point.supports_div_int and point.torsion_free):
        raise UnsupportedRingOperation(
            f"one-point ring {point.descriptor} cannot invert the ghost map"
        )
    ghost = [sys.proj(s.quotient(n), ONE_SET, f_n(sys, s, n, a)) for n in s]
    return witt.unghost(Family.classical(), s, point, ghost)


def alpha_inverse(sys: ProjSystem, s: TruncationSet, w: WittVector):
    """Invert ``alpha`` by peeling Verschiebung layers along exact sequences.

    Requires Verschiebung and a section on the system side.  For the
    smallest prime p in S: recover the part of ``a`` seen by S(p), lift it
    with the section, and express the remainder (supported on multiples of
    p) through V_p of a recursively inverted vector.
    """
    if s == ONE_SET:
        return w.coords[0]
    p = s.primes()[0]
    comp = s.prime_complement(p)
    sub = s.quotient(p)
    abar = alpha_inverse(sys, comp, witt.project(w, comp))
    a0 = sys.section(comp, s, abar)
    diff = witt.sub(w, alpha(sys, s, a0))
    point = w.ring
    for n in comp:
        if not point.is_zero(diff.coord(n)):
            raise CrossRingError(
                "difference not supported on multiples of the prime; "
                "the system violates an exactness axiom"
            )
    shifted = WittVector(w.context.on(sub), tuple(diff.coord(p * v) for v in sub))
    b = alpha_inverse(sys, sub, shifted)
    return sys.ring(s).add(a0, sys.versch(p, s, b))


# ----------------------------------------------------------------------
# Axiom verification.


def _sites_rf(sys: ProjSystem):
    subs = sys.subsets()
    congr, natural, commute = [], [], []
    for s in subs:
        for p in s.primes():
            congr.append((s, p))
            for l in s.primes():
                if p * l in s:
                    commute.append((s, p, l))
    for s2 in subs:
        for s1 in subs:
            if s1 != s2 and s1.is_subset(s2):
                for p in s1.primes():
                    natural.append((s2, s1, p))
    return congr, natural, commute


def verify_rf(sys: ProjSystem, budget: int = 200, seed: int = 1729) -> Report:
    """Sample the Frobenius-lift axioms; one report entry per site."""
    rng = random.Random(seed)
    rep = Report(f"rf-axioms:{sys.label}")
    congr, natural, commute = _sites_rf(sys)
    sites = max(1, len(congr) + len(natural) + len(commute))
    n = max(2, budget // sites)

    for s, p in congr:
        sub = s.quotient(p)
        target = sys.ring(sub)
        ok = True
        for _ in range(n):
            a = sys.sample(s, rng)
            diff = target.sub(
                sys.frob(p, s, a), target.pow(sys.proj(s, sub, a), p)
            )
            if not target.is_divisible_mod(diff, p, 1):
                ok = False
                break
        rep.add(f"frobenius-congruence:p={p}@{s}", ok)
    for s2, s1, p in natural:
        ok = True
        for _ in range(n):
            a = sys.sample(s2, rng)
            lhs = sys.proj(s2.quotient(p), s1.quotient(p), sys.frob(p, s2, a))
            rhs = sys.frob(p, s1, sys.proj(s2, s1, a))
            if not sys.ring(s1.quotient(p)).eq(lhs, rhs):
                ok = False
                break
        rep.add(f"frobenius-natural:p={p}@{s1}<={s2}", ok)
    for s, p, l in commute:
        ok = True
        for _ in range(n):
            a = sys.sample(s, rng)
            lhs = sys.frob(l, s.quotient(p), sys.frob(p, s, a))
            rhs = sys.frob(p, s.quotient(l), sys.frob(l, s, a))
            if not sys.ring(s.quotient(p * l)).eq(lhs, rhs):
                ok = False
                break
        rep.add(f"frobenius-commute:{p},{l}@{s}", ok)
    return rep


def verify_rfv(sys: ProjSystem, budget: int = 200, seed: int = 1729) -> Report:
    """Frobenius axioms plus the Verschiebung axioms and exact sequences."""
    rep = verify_rf(sys, budget=budget, seed=seed)
    rep.name = f"rfv-axioms:{sys.label}"
    if not sys.has_versch:
        rep.add("verschiebung-present", False, "system has no Verschiebung maps")
        return rep
    rng = random.Random(seed + 1)
    subs = sys.subsets()
    sites = []
    for s in subs:
        for p in s.primes():
            sites.append((s, p))
    n = max(2, budget // max(1, 3 * len(sites)))

    for s, p in sites:
        sub = s.quotient(p)
        rs, rsub = sys.ring(s), sys.ring(sub)
        ok_add = True
        ok_fv = True
        for _ in range(n):
            a, b = sys.sample(sub, rng), sys.sample(sub, rng)
            lhs = sys.versch(p, s, rsub.add(a, b))
            rhs = rs.add(sys.versch(p, s, a), sys.versch(p, s, b))
            if not rs.eq(lhs, rhs):
                ok_add = False
            if not rsub.eq(sys.frob(p, s, sys.versch(p, s, a)), rsub.int_scale(p, a)):
                ok_fv = False
        rep.add(f"verschiebung-additive:p={p}@{s}", ok_add)
        rep.add(f"frobenius-verschiebung:p={p}@{s}", ok_fv)
        for l in s.primes():
            if l != p and p * l in s:
                ok = True
                for _ in range(n):
                    a = sys.sample(sub, rng)
                    lhs = sys.frob(l, s, sys.versch(p, s, a))
                    rhs = sys.versch(p, s.quotient(l), sys.frob(l, sub, a))
                    if not sys.ring(s.quotient(l)).eq(lhs, rhs):
                        ok = False
                        break
                rep.add(f"fv-coprime-commute:{l},{p}@{s}", ok)
            if p * l in s:
                ok = True
                for _ in range(n):
                    a = sys.sample(s.quotient(p * l), rng)
                    lhs = sys.versch(p, s, sys.versch(l, sub, a))
                    rhs = sys.versch(l, s, sys.versch(p, s.quotient(l), a))
                    if not sys.ring(s).eq(lhs, rhs):
                        ok = False
                        break
                rep.add(f"verschiebung-commute:{p},{l}@{s}", ok)
        rep.add(
            f"exactness:p={p}@{s}",
            _check_exactness(sys, s, p, rng, n),
        )
    return rep


def _check_exactness(sys, s, p, rng, n) -> bool:
    """ker(A_S -> A_{S(p)}) = im(V_p), by enumeration when feasible."""
    sub = s.quotient(p)
    comp = s.prime_complement(p)
    rs, rcomp = sys.ring(s), sys.ring(comp)
    try:
        elems = list(rs.enumerate())
        if len(elems) <= ENUM_BUDGET:
            image = {sys.versch(p, s, a) for a in sys.ring(sub).enumerate()}
            kernel = {a for a in elems if rcomp.is_zero(sys.proj(s, comp, a))}
            onto = {sys.proj(s, comp, a) for a in elems}
            full = set(rcomp.enumerate())
            if len(image) != sum(1 for _ in sys.ring(sub).enumerate()):
                return False
            return kernel == image and onto == full
    except UnsupportedRingOperation:
        pass
    for _ in range(n):
        a = sys.sample(sub, rng)
        if not rcomp.is_zero(sys.proj(s, comp, sys.versch(p, s, a))):
            return False
        if not sys.ring(sub).is_zero(a) and rs.is_zero(sys.versch(p, s, a)):
            return False  # V_p not injective
        b = sys.sample(comp, rng)
        if not rcomp.eq(sys.proj(s, comp, sys.section(comp, s, b)), b):
            return False  # projection not split-surjective
    return True


def alpha_is_iso(sys: ProjSystem, s: TruncationSet, budget: int = 100,
                 seed: int = 1729) -> Report:
    """Certify that alpha is a Verschiebung-compatible ring isomorphism.

    Checks on seeded samples: additivity and multiplicativity, naturality
    for projections and Frobenius, the Verschiebung intertwining law, and
    both round trips against the peel-off inverse.
    """
    rng = random.Random(seed)
    rep = Report(f"alpha-iso:{sys.label}@{s}")
    rs = sys.ring(s)
    point = sys.ring(ONE_SET)
    n = max(2, budget // 6)

    ok_add = ok_mul = True
    for _ in range(n):
        a, b = sys.sample(s, rng), sys.sample(s, rng)
        if not witt.eq(alpha(sys, s, rs.add(a, b)),
                       witt.add(alpha(sys, s, a), alpha(sys, s, b))):
            ok_add = False
        if not witt.eq(alpha(sys, s, rs.mul(a, b)),
                       witt.mul(alpha(sys, s, a), alpha(sys, s, b))):
            ok_mul = False
    rep.add("alpha-additive", ok_add)
    rep.add("alpha-multiplicative", ok_mul)

    ok = True
    for s1 in s.sub_sets():
        if s1 == s:
            continue
        for _ in range(max(1, n // 2)):
            a = sys.sample(s, rng)
            if not witt.eq(witt.project(alpha(sys, s, a), s1),
                           alpha(sys, s1, sys.proj(s, s1, a))):
                ok = False
    rep.add("alpha-projection-natural", ok)

    ok = True
    for m in s:
        if m == 1:
            continue
        for _ in range(max(1, n // 2)):
            a = sys.sample(s, rng)
            if not witt.eq(witt.frobenius(alpha(sys, s, a), m),
                           alpha(sys, s.quotient(m), f_n(sys, s, m, a))):
                ok = False
    rep.add("alpha-frobenius-natural", ok)

    if sys.has_versch:
        ok = True
        for p in s.primes():
            sub = s.quotient(p)
            for _ in range(n):
                a = sys.sample(sub, rng)
                lhs = alpha(sys, s, sys.versch(p, s, a))
                rhs = witt.verschiebung(alpha(sys, sub, a), p, s)
                if not witt.eq(lhs, rhs):
                    ok = False
        rep.add("alpha-verschiebung", ok)

        ok_back = ok_fwd = True
        for _ in range(n):
            a = sys.sample(s, rng)
            if not rs.eq(alpha_inverse(sys, s, alpha(sys, s, a)), a):
                ok_back = False
            w = witt.make(Family.classical(), s, point,
                          [point.random(rng) for _ in s])
            if not witt.eq(alpha(sys, s, alpha_inverse(sys, s, w)), w):
                ok_fwd = False
        rep.add("inverse-after-alpha", ok_back)
        rep.add("alpha-after-inverse", ok_fwd)
    else:
        rep.add("verschiebung-present", False, "cannot certify bijectivity")
    return rep


# ----------------------------------------------------------------------
# The nesting isomorphism.


class NestingIso:
    """The natural identification W_{T1*T2}(A) = W_{T1}(W_{T2}(A)).

    ``forward`` unnests a vector over the product set into a vector of
    vectors; ``backward`` is the peel-off inverse.  Both directions are
    exact and mutually inverse whenever A is torsion-free.
    """

    def __init__(self, t1: TruncationSet, t2: TruncationSet, base: Ring,
                 family: Family = Family.classical(), q=None):
        if set(t1.elements) & set(t2.elements) != {1}:
            raise CrossRingError(f"{t1} and {t2} are not coprime")
        if not (base.torsion_free and base.supports_div_int):
            raise UnsupportedRingOperation(
                f"nesting needs exact division in {base.descriptor}"
            )
        self.t1, self.t2, self.base = t1, t2, base
        self.family = family
        self.system = NestedWittSystem(t1, t2, base, family, q)
        self.big = t1.product(t2)
        self.nested_ring = self.system.ring(ONE_SET)

    def forward(self, a: WittVector) -> WittVector:
        """From W_{T1*T2}(A) to W_{T1}(W_{T2}(A))."""
        if a.tset != self.big:
            raise CrossRingError(f"expected a vector over {self.big}")
        return alpha(self.system, self.t1, a.coords)

    def backward(self, w: WittVector) -> WittVector:
        """From W_{T1}(W_{T2}(A)) back to W_{T1*T2}(A)."""
        coords = alpha_inverse(self.system, self.t1, w)
        return WittVector(self.system.context, tuple(coords))


def auer(t1: TruncationSet, t2: TruncationSet, base: Ring,
         family: Family = Family.classical(), q=None) -> NestingIso:
    """Build the nesting identification for coprime index sets."""
    return NestingIso(t1, t2, base, family, q)
