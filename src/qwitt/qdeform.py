"""Deformation-specific constructions on the prime-indexed sets.

This module houses the integral coefficient polynomials h and r of the
twisted-ghost family, the explicit isomorphism between the integer-q
family and the classical Witt vectors on {1, p} (with its failure
criterion p | q), and the certified identification of the twisted-ghost
family with the one-parameter deformation at twist 1 - g.
"""

from __future__ import annotations

from . import rings, universal, witt
from .errors import CertificationError, IntegralityViolation, PDividesQ
from .mpoly import MPoly, Q, xvar, yvar
from .report import Record, Report
from .truncset import TruncationSet
from .universal import Family


def h_poly(p: int) -> tuple[int, ...]:
    """The sum 1 + (1-q) + ... + (1-q)^(p-1), expanded in Z[q].

    Equals (1 - (1-q)^p)/q; both routes are computed and compared.
    """
    t = rings.zp_sub(rings.ZP_ONE, rings.ZP_Q)  # 1 - q
    acc = rings.ZP_ZERO
    for k in range(p):
        acc = rings.zp_add(acc, rings.zp_pow(t, k))
    # cross-check: q * h = 1 - (1-q)^p
    lhs = rings.zp_mul(rings.ZP_Q, acc)
    rhs = rings.zp_sub(rings.ZP_ONE, rings.zp_pow(t, p))
    if lhs != rhs:
        raise IntegralityViolation(f"h({p}) failed its defining identity")
    return acc


def r_poly(p: int) -> tuple[int, ...]:
    """The integer polynomial (h(q) - q^(p-1)) / p.

    Divisibility by p (and, in the second route, by q) is a theorem; both
    divisions are asserted and the two routes compared.
    """
    h = h_poly(p)
    num = rings.zp_sub(h, rings.zp_pow(rings.ZP_Q, p - 1))
    r = rings.zp_divexact(num, p)
    if r is None:
        raise IntegralityViolation(f"h - q^{p - 1} was not divisible by {p}")
    # second route: (1 - q^p - (1-q)^p) / (p*q)
    t = rings.zp_sub(rings.ZP_ONE, rings.ZP_Q)
    num2 = rings.zp_sub(
        rings.zp_sub(rings.ZP_ONE, rings.zp_pow(rings.ZP_Q, p)), rings.zp_pow(t, p)
    )
    by_p = rings.zp_divexact(num2, p)
    if by_p is None or (by_p and by_p[0] != 0):
        raise IntegralityViolation(f"1 - q^{p} - (1-q)^{p} route failed at p={p}")
    if rings.zp_trim(by_p[1:]) != r:  # dropping the zero constant divides by q
        raise IntegralityViolation(f"the two routes to r({p}) disagree")
    return r


# ----------------------------------------------------------------------
# The integer-q family on {1, p}.


# Miller-Rabin to the prime bases up to 41 decides primality below this
# bound (Sorenson and Webster, 2015); the p-typical constructions refuse
# a larger p rather than trial-divide it.
_PRIME_CERTIFIED_BELOW = 3317044064679887385961981


def _check_prime(p: int) -> None:
    """ValueError naming p unless p is a prime below _PRIME_CERTIFIED_BELOW."""
    if p >= _PRIME_CERTIFIED_BELOW:
        raise ValueError(f"p={p} is too large to be certified a prime")
    if p < 2 or not _strong_probable_prime(p):
        raise ValueError(f"p must be a prime, got p={p}")


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41; exact for n >= 2 below
    _PRIME_CERTIFIED_BELOW."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % n == 0:
            return True  # n is one of the bases
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def lenart_set(p: int) -> TruncationSet:
    """{1, p}, where the integer-q family is compared with the classical
    one; ValueError naming p unless p is a prime."""
    _check_prime(p)
    return TruncationSet.make([p])


def lenart_iso(p: int, q: int, a: witt.WittVector) -> witt.WittVector:
    """The ring isomorphism (a_1, a_p) -> (a_1, a_p + (q^(p-1)-1)/p * a_1^p)
    from the integer-q family on {1, p} to the classical one.

    Defined exactly when p does not divide q; raises PDividesQ otherwise.
    """
    if a.family != Family.lenart(q):
        raise CertificationError(f"vector family {a.family.label()} is not lenart:{q}")
    return _lenart_shift(p, q, a, None, 1)


def lenart_iso_inverse(p: int, q: int, a: witt.WittVector) -> witt.WittVector:
    """Inverse of :func:`lenart_iso`: subtract the same correction term."""
    if a.family != Family.classical():
        raise CertificationError("expected a classical vector")
    return _lenart_shift(p, q, a, q, -1)


_TARGETS: dict = {}  # (q, a source context's descriptor) -> the target context


def _lenart_shift(p: int, q: int, a: witt.WittVector, target_q: int | None,
                  sign: int) -> witt.WittVector:
    """(a_1, a_p + sign * c * a_1^p), c = (q^(p-1) - 1)/p, as a vector of
    lenart:target_q (classical if target_q is None) on a's set and ring.

    The target context is built first, so that its budget checks run before
    any power; c is 0 at q = 1, and at q = -1 for odd p, and then a_1^p is
    not computed.
    """
    _check_prime(p)
    if a.tset.elements != (1, p):
        raise CertificationError(f"the explicit formula lives on {{1,{p}}}")
    if q % p == 0:
        raise PDividesQ(f"{p} divides {q}: the families are not isomorphic there")
    key = (target_q, a.context.descriptor)
    ctx = _TARGETS.get(key)
    if ctx is None:
        family = Family.classical() if target_q is None else Family.lenart(target_q)
        ctx = _TARGETS[key] = witt.WittCoeffRing(a.ring, a.tset, family)
    c, rest = divmod(rings.Z.pow(q, p - 1) - 1, p)
    if rest:
        raise IntegralityViolation(f"(q^(p-1)-1)/p was not exact for p={p}, q={q}")
    ring = a.ring
    a1, ap = a.coords
    if c:
        ap = ring.add(ap, ring.int_scale(sign * c, ring.pow(a1, p)))
    return witt.WittVector(ctx, (a1, ap))


def lenart_frobenius_defect(p: int, q: int) -> witt.WittVector | None:
    """A witness that Frobenius fails its mod-p congruence, or None.

    On {1, p} the family's Frobenius satisfies F_p(a) = p*a_p +
    q^(p-1)*a_1^p, which is congruent to pi(a)^p mod p for every ring
    exactly when q^(p-1) = 1 mod p, i.e. when p does not divide q.  When
    that fails, the multiplicative lift of 1 is an explicit witness.
    """
    _check_prime(p)
    if pow(q, p - 1, p) == 1:
        return None
    tset = TruncationSet.make([p])
    w = witt.teichmuller(Family.lenart(q), tset, rings.Z, 1)
    fp = witt.frobenius(w, p).coords[0]
    power = witt.project(w, TruncationSet.make([1])).coords[0] ** p
    if (fp - power) % p == 0:
        raise CertificationError("expected witness did not witness the defect")
    return w


# ----------------------------------------------------------------------
# The twisted-ghost family as a deformation at twist 1 - g.


def _bind(coords: dict[int, MPoly]) -> dict:
    """The substitution x_d -> coords[d]."""
    return {xvar(d): p for d, p in coords.items()}


def _qdef_at(t: MPoly, tset: TruncationSet) -> universal.UniversalPolySet:
    """The deformation family's laws on S with q bound to t."""
    return universal.substitute_q(universal.derive(Family.qdef(), tset), t, Family.qdef())


def _derive_alpha(g, tset: TruncationSet, r: MPoly) -> dict[int, MPoly]:
    """Coordinates of the unique identification, by ghost inversion.

    The n-th ghost component of the image must equal the n-th twisted
    ghost of the source, so the coordinates solve the deformation-family
    ghost equations with those targets.
    """
    fam, qdef = Family.qbar(g), Family.qdef()
    targets = {n: universal.ghost_poly(fam, tset, n, "x") for n in tset}
    return universal.invert_ghost_weights(
        lambda n, d: qdef.ghost_weight(n, d).substitute({Q: r}),
        tset, targets, "(twisted-ghost identification)",
    )


class QbarIdentification(Record):
    """A certified isomorphism from the twisted-ghost family at g to the
    deformation family at twist r = 1 - g, with its inverse and the sign
    twin at r = g - 1."""

    # g and r in Z[q]; alpha and alpha_inv as {n: MPoly}; the Report of its checks
    __slots__ = ("g", "tset", "r", "alpha", "alpha_inv", "report")


def _check_hom(rep: Report, label: str, alpha: dict[int, MPoly],
               src_set, dst_set, tset: TruncationSet) -> None:
    """alpha must intertwine both laws: alpha(op(X,Y)) = op'(alpha X, alpha Y)."""
    to_y = {xvar(d): MPoly.var(yvar(d)) for d in tset}
    both = {**_bind(alpha), **{yvar(d): p.substitute(to_y) for d, p in alpha.items()}}
    for kind in ("sigma", "pi"):
        src = _bind(getattr(src_set, kind))
        dst = getattr(dst_set, kind)
        for n in tset:
            rep.add(f"{label}:{kind}:{n}", alpha[n].substitute(src) == dst[n].substitute(both))


def qbar_to_qdef_iso(g, tset: TruncationSet) -> QbarIdentification:
    """Certify the identification of the twisted-ghost family at g with
    the deformation family at twist 1 - g, at the polynomial level.

    Checks: the coordinates fix the first component, intertwine addition,
    multiplication, Frobenius and Verschiebung, and are two-sided inverse
    to the reverse inversion; composing with the unit -1 lands in the sign
    twin at twist g - 1.  Raises CertificationError if anything fails.
    """
    g = rings.zp_trim(g)
    rz = rings.zp_sub(rings.ZP_ONE, g)
    r = MPoly.from_zpoly(rz)
    rep = Report(f"qbar[{rings.zp_to_str(g)}] ~ qdef[{rings.zp_to_str(rz)}] on {tset}")

    qbar_set = universal.derive(Family.qbar(g), tset)
    qdef_at_r = _qdef_at(r, tset)
    alpha = _derive_alpha(g, tset, r)
    at_alpha = _bind(alpha)
    rep.add("fixes-first-coordinate", alpha[1] == MPoly.var(xvar(1)))
    _check_hom(rep, "hom", alpha, qbar_set, qdef_at_r, tset)

    # alpha on each S/m, m > 1, for the Frobenius and Verschiebung checks
    alpha_on = {m: _derive_alpha(g, tset.quotient(m), r) for m in tset if m != 1}
    # Frobenius: alpha_{S/m}(F_m(a)) = F_m(alpha_S(a))
    for m, alpha_sub in alpha_on.items():
        at_frob = _bind(qbar_set.frob[m])
        for v in alpha_sub:
            lhs = alpha_sub[v].substitute(at_frob)
            rhs = qdef_at_r.frob[m][v].substitute(at_alpha)
            rep.add(f"frobenius:{m}:{v}", lhs == rhs)
    # Verschiebung: alpha_S(shift_m(a)) = shift_m(alpha_{S/m}(a))
    for m, alpha_sub in alpha_on.items():
        shift = universal._shift_map(m, tset)
        for n in tset:
            rhs = alpha_sub[n // m] if n % m == 0 else MPoly.zero()
            rep.add(f"verschiebung:{m}:{n}", alpha[n].substitute(shift) == rhs)

    # two-sided inverse by the reverse inversion
    beta = universal.invert_ghost_weights(
        Family.qbar(g).ghost_weight,
        tset,
        {
            n: universal.ghost_poly(Family.qdef(), tset, n, "x").substitute({Q: r})
            for n in tset
        },
        "(reverse identification)",
    )
    at_beta = _bind(beta)
    for n in tset:
        rep.add(f"alpha-after-beta:{n}", alpha[n].substitute(at_beta) == MPoly.var(xvar(n)))
        rep.add(f"beta-after-alpha:{n}", beta[n].substitute(at_alpha) == MPoly.var(xvar(n)))

    # sign twin: coordinatewise -1 lands in the family at twist g - 1
    neg_alpha = {n: -alpha[n] for n in tset}
    _check_hom(rep, "sign-twin", neg_alpha, qbar_set, _qdef_at(-r, tset), tset)

    if not rep.passed:
        raise CertificationError(
            f"identification failed: {', '.join(rep.failures)}"
        )
    return QbarIdentification(g, tset, rz, alpha, beta, rep)


def certify_twist_candidate(g, tset: TruncationSet, candidate) -> bool:
    """Whether the twisted-ghost family at g is isomorphic to the
    deformation family at the candidate twist, via some unit u in {1,-1}.

    The closed-form criterion (1 - g = candidate * u for a unit u) is
    compared against a direct certification attempt for each sign; the two
    must agree, and the common answer is returned.
    """
    g = rings.zp_trim(g)
    candidate = rings.zp_trim(candidate)
    rz = rings.zp_sub(rings.ZP_ONE, g)
    closed_form = candidate in (rz, rings.zp_neg(rz))

    qbar_set = universal.derive(Family.qbar(g), tset)
    cand_set = _qdef_at(MPoly.from_zpoly(candidate), tset)
    try:
        base = _derive_alpha(g, tset, MPoly.from_zpoly(rz))  # the same for either sign
    except IntegralityViolation:
        base = None
    witnessed = False
    for u in (1, -1) if base is not None else ():
        rep = Report("candidate")
        _check_hom(rep, "cand", {n: u * base[n] for n in tset}, qbar_set, cand_set, tset)
        if rep.passed:
            witnessed = True
            break
    if witnessed != closed_form:
        raise CertificationError(
            f"unit criterion and direct certification disagree for "
            f"candidate {rings.zp_to_str(candidate)}"
        )
    return witnessed
