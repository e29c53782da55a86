"""Coefficient rings for exact Witt-vector arithmetic.

All rings here are commutative, carry a Z-action, and are *not* required to
be unital.  Elements are plain immutable Python values (ints, coefficient
tuples, pairs, nested tuples) manipulated only through the owning ring
object, domain-style.  Every operation is exact; nothing here ever rounds.

Instances: the integers, integers mod m, integer polynomials in one
variable q, dual numbers over the integers, and twisted rings C^(r) whose
multiplication is ``x * y = r*x*y``.  Rings of Witt vectors can themselves
serve as coefficient rings; that instance lives in :mod:`qwitt.witt` to
avoid a dependency cycle and is reachable through :func:`parse_ring`.

Each ring carries capability flags (``torsion_free``, ``reduced``,
``finite``, ``supports_div_int``, ``unital``) that algorithms check up
front instead of failing deep inside a recursion.
"""

from __future__ import annotations

import math
import operator

from . import exprs
from .errors import BudgetExceeded, NonUniqueQuotient, UnsupportedRingOperation
from .truncset import MAX_ELEMENT, factorization

# ----------------------------------------------------------------------
# Z[q] elements: dense integer coefficient tuples, lowest degree first,
# canonical form has no trailing zeros.  () is zero, (1,) is one.
#
# Products and powers use Kronecker substitution (Harvey, "Faster
# polynomial multiplication via multipoint Kronecker substitution", J.
# Symb. Comput. 2009): a tuple is packed into one Python int by evaluating
# it at q = 2^s, the product or power is a single big-int ``*`` or ``**``
# (Karatsuba inside CPython), and the result is read back s bits at a time
# as signed digits, borrowing one from the next slot whenever a slot holds
# a negative coefficient.  The read-back is exact when every coefficient c
# of the result has |c| < 2^(s-1).  The slot width s comes from a bound on
# those coefficients: max|a| * max|b| * min(len a, len b) for a product,
# and ||a||_1^e (the sum of the |coefficients|, to the e) for a power.
# ``zp_pow`` packs (after taking out the factor q^k of its base, so that a
# monomial's power costs nothing) unless the packed power would pass
# ZP_SERIES_MIN_BITS bits per coefficient of the base: there the C-level
# power, superlinear in its size, costs more than ``_zp_pow_series``, a
# recurrence linear in it per coefficient.  ``zp_mul`` keeps the schoolbook
# loop unless both operands have at least ZP_KRONECKER_MIN_LEN
# coefficients, below which packing costs more than it saves.
# Witt arithmetic runs every context through one kernel protocol
# (``qwitt.witt._Kernels``) of three kinds: generated methods, integer
# loops above a term cap, and ring loops.  Over Z[q] the first two pack a
# whole operation the same way, once: they pack the inputs, run the ghost
# rows of W_S(Z) on the packed values and read every result coefficient
# back, with one ``to_bytes`` at a width of 8, 16, 32 or 64 bits and with
# ``_zp_unpack`` above.  Over the other rings here (``dual``, twisted
# rings) the ring loops call only the element operations below.
# Packing and unpacking skip a run of zero coefficients with one shift and
# split a long tuple or integer in halves of slots, so a sparse tuple of
# high degree (a power of q^100000, say) or a long dense one costs about
# what its length does, not its square.

ZP_ZERO: tuple[int, ...] = ()
ZP_ONE: tuple[int, ...] = (1,)
ZP_Q: tuple[int, ...] = (0, 1)
ZP_KRONECKER_MIN_LEN = 8
ZP_SERIES_MIN_BITS = 1 << 15  # per coefficient of the base; see zp_pow
_ZP_LEAF = 32  # the most slots that _zp_pack and _zp_unpack take one at a time


def zp_trim(coeffs) -> tuple[int, ...]:
    cs = tuple(coeffs)
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def zp_from_int(k: int) -> tuple[int, ...]:
    return (k,) if k else ()


def zp_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return zp_trim(tuple(map(operator.add, a, b)) + a[len(b):])


def zp_neg(a):
    return tuple(map(operator.neg, a))


def zp_sub(a, b):
    return zp_add(a, zp_neg(b))


def zp_scale(k: int, a):
    if k == 0:
        return ZP_ZERO
    return tuple(map(k.__mul__, a))


def _zp_pack(a, s: int) -> int:
    """a(2^s) as one integer; coefficients may be negative.  A run of zero
    coefficients costs one shift.  A tuple longer than _ZP_LEAF is packed
    in halves, as :func:`_zp_unpack` splits, so its length k costs
    O(N log k) for an N-bit result, not O(N k)."""
    if len(a) > _ZP_LEAF:
        k = len(a) // 2
        return _zp_pack(a[:k], s) + (_zp_pack(a[k:], s) << s * k)
    x = gap = 0
    for c in reversed(a):
        gap += s
        if c:
            x = (x << gap) + c
            gap = 0
    return x << gap


def _zp_unpack(x: int, s: int, n: int):
    """The n coefficients of x in base 2^s as signed digits in
    [-2^(s-1), 2^(s-1)), lowest first, trimmed.  A run of zero slots is
    read with one shift, as in :func:`_zp_pack`.

    Past _ZP_LEAF slots, where each shift would cost the length of what is
    left, x is split in halves of slots and the low half is read first, so
    that its borrow is carried into the high half: k slots of an N-bit
    integer cost O(N log k), not O(N k), and a half that is 0 costs one
    mask."""
    return _zp_read(x, s, n)[0]


def _zp_read(x: int, s: int, n: int):
    """The digits of :func:`_zp_unpack`, and what is left of x past its n
    slots once their digits are taken off."""
    if n > _ZP_LEAF and x:
        k = n // 2
        lo, borrow = _zp_read(x & ((1 << s * k) - 1), s, k)
        hi, rest = _zp_read((x >> s * k) + borrow, s, n - k)
        return (lo + (0,) * (k - len(lo)) + hi if hi else lo), rest
    mask, half, full = (1 << s) - 1, 1 << (s - 1), 1 << s
    out = []
    i = 0
    while i < n:
        c = x & mask
        if not c:
            if not x:
                break
            run = min(((x & -x).bit_length() - 1) // s, n - i)
            out += [0] * run
            x >>= s * run
            i += run
            continue
        x >>= s
        if c >= half:  # a negative digit: borrow one from the next slot
            c -= full
            x += 1
        out.append(c)
        i += 1
    return zp_trim(out), x


def zp_mul(a, b):
    if not a or not b:
        return ZP_ZERO
    if len(a) >= ZP_KRONECKER_MIN_LEN and len(b) >= ZP_KRONECKER_MIN_LEN:
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        s = bound.bit_length() + 1
        return _zp_unpack(_zp_pack(a, s) * _zp_pack(b, s), s, len(a) + len(b) - 1)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return zp_trim(out)


def zp_pow(a, e: int):
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return ZP_ONE
    a = zp_trim(a)
    if e == 1 or not a:
        return a
    k = 0  # a = q^k * b with b(0) != 0, and a^e = q^(k*e) * b^e
    while not a[k]:
        k += 1
    b = a[k:]
    s, n = (sum(map(abs, b)) ** e).bit_length() + 1, (len(b) - 1) * e + 1
    if s * n > ZP_SERIES_MIN_BITS * len(b):
        return (0,) * (k * e) + _zp_pow_series(b, e)
    return (0,) * (k * e) + _zp_unpack(_zp_pack(b, s) ** e, s, n)


def _zp_pow_series(b, e: int) -> tuple:
    """b^e for b(0) != 0 by J. C. P. Miller's recurrence for the power of a
    series: c_0 = b_0^e and k*b_0*c_k = sum_{i=1..min(k,d)} ((e+1)*i - k)
    * b_i * c_(k-i), d = deg b.  Each division is exact, as c_k is an
    integer; the cost is about d small-by-big products per coefficient."""
    d, c = len(b) - 1, [b[0] ** e]
    for k in range(1, d * e + 1):
        t = sum(((e + 1) * i - k) * b[i] * c[k - i] for i in range(1, min(k, d) + 1))
        c.append(t // (k * b[0]))
    return tuple(c)


def zp_subst_qpow(a, p: int):
    """a(q^p): spread coefficients p slots apart; BudgetExceeded when that
    would take more than exprs.MAX_BITS coefficients."""
    if not a:
        return ZP_ZERO
    if (n := (len(a) - 1) * p + 1) > exprs.MAX_BITS:
        raise BudgetExceeded(f"q -> q^{p} would take {n} coefficients (budget {exprs.MAX_BITS})")
    out = [0] * n
    for i, c in enumerate(a):
        out[i * p] = c
    return zp_trim(out)


def zp_eval_int(a, x: int) -> int:
    result = 0
    for c in reversed(a):
        result = result * x + c
    return result


def zp_divexact(a, k: int):
    """Coefficientwise exact quotient by ``k``, or None."""
    if any(map(k.__rmod__, a)):
        return None
    return tuple(map(k.__rfloordiv__, a))


def zp_to_str(a) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text


def randint(rng, a: int, b: int) -> int:
    """rng.randint(a, b): the same draw, with rng left in the same state, by
    CPython's rejection loop on getrandbits (Random._randbelow_with_getrandbits)
    inline, without the three Python frames of randint."""
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


# ----------------------------------------------------------------------


class Ring:
    """Abstract commutative, possibly non-unital ring with a Z-action."""

    descriptor: str = "?"
    unital: bool = False
    torsion_free: bool = False
    reduced: bool = False
    finite: bool = False
    supports_div_int: bool = False

    # --- required element operations ---------------------------------
    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def bits(self, a) -> int:
        """The size of ``a`` in bits: the bit lengths of the integers it is
        made of, summed.  An integer's e-th power takes e times its bits,
        an element's of the other rings here at least that."""
        raise NotImplementedError

    # --- derived operations -------------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def int_scale(self, k: int, a):
        """k-fold sum of ``a`` (the Z-action); works in any ring."""
        if k == 0:
            return self.zero()
        if k < 0:
            return self.neg(self.int_scale(-k, a))
        acc = None
        base = a
        while k:
            if k & 1:
                acc = base if acc is None else self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc

    def pow_bits(self, a, e: int) -> int:
        """An estimate of the bits of a^e: e times those of a."""
        return e * self.bits(a)

    def _bound_pow(self, a, e: int) -> None:
        if e > exprs.FREE_EXPONENT and (bits := self.pow_bits(a, e)) > exprs.MAX_BITS:
            raise BudgetExceeded(f"a power would take {bits} bits (budget {exprs.MAX_BITS})")

    def pow(self, a, e: int):
        """e-fold product, e >= 1; e = 0 needs a unit element.  Squares and
        multiplies, about 2*log2(e) products; above exprs.FREE_EXPONENT it
        raises BudgetExceeded first when pow_bits(a, e) passes exprs.MAX_BITS."""
        if e == 0:
            return self.one()
        self._bound_pow(a, e)
        acc = None
        while True:
            if e & 1:
                acc = a if acc is None else self.mul(acc, a)
            e >>= 1
            if not e:
                return acc
            a = self.mul(a, a)

    def one(self):
        raise UnsupportedRingOperation(f"{self.descriptor} has no designated unit")

    def from_int(self, k: int):
        return self.int_scale(k, self.one())

    # --- exactness queries --------------------------------------------
    def try_div_int(self, a, k: int):
        """The unique b with k*b = a, or None; NonUniqueQuotient on torsion."""
        raise UnsupportedRingOperation(f"{self.descriptor} has no exact division")

    def is_divisible_mod(self, a, p: int, e: int) -> bool:
        """Whether ``a`` lies in p^e * (this ring)."""
        raise UnsupportedRingOperation(f"{self.descriptor} cannot decide divisibility")

    def units(self) -> list:
        raise UnsupportedRingOperation(f"{self.descriptor} has no known unit list")

    def enumerate(self):
        raise UnsupportedRingOperation(f"{self.descriptor} is not enumerable")

    def cover(self):
        """A torsion-free ring whose elements include this one's, and the
        reduction homomorphism onto this ring (None for a torsion-free ring)."""
        if self.torsion_free:
            return self, None
        raise UnsupportedRingOperation(f"{self.descriptor} has no torsion-free cover")

    # --- plumbing -------------------------------------------------------
    def check(self, a):
        """Validate and normalize an element value; raises ValueError."""
        return a

    def random(self, rng):
        raise NotImplementedError

    def constants(self) -> dict:
        """Named element constants the expression grammar may use."""
        return {}

    def from_str(self, text: str):
        node = exprs.parse(text)
        return exprs.evaluate(
            node,
            self.constants(),
            add=self.add,
            mul=self.mul,
            neg=self.neg,
            from_int=self._coerce_int,
            power=self.pow,
        )

    def _coerce_int(self, k: int):
        if self.unital:
            return self.from_int(k)
        if k == 0:
            return self.zero()
        raise UnsupportedRingOperation(
            f"cannot place the integer {k} into non-unital {self.descriptor}"
        )

    def to_str(self, a) -> str:
        raise NotImplementedError

    def to_json(self, a):
        return self.to_str(a)

    def from_json(self, value):
        if isinstance(value, str):
            return self.check(self.from_str(value))
        raise ValueError(f"cannot decode {value!r} as an element of {self.descriptor}")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"<ring {self.descriptor}>"


def bounded_int_pow(x: int, e: int) -> int:
    """x**e, or BudgetExceeded when it could take more than exprs.MAX_BITS bits."""
    bits = e * x.bit_length()
    if bits > exprs.MAX_BITS and not -1 <= x <= 1:
        raise BudgetExceeded(f"a power would take {bits} bits (budget {exprs.MAX_BITS})")
    return x ** e


class ZRing(Ring):
    """The ring of integers."""

    descriptor = "z"
    unital = True
    torsion_free = True
    reduced = True
    finite = False
    supports_div_int = True

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return k

    add = operator.add
    sub = operator.sub
    neg = operator.neg
    mul = operator.mul
    int_scale = operator.mul
    pow = staticmethod(bounded_int_pow)
    eq = operator.eq

    def is_zero(self, a):
        return a == 0

    def bits(self, a):
        return a.bit_length()

    def try_div_int(self, a, k):
        q, r = divmod(a, k)
        return q if r == 0 else None

    def is_divisible_mod(self, a, p, e):
        return a % p**e == 0

    def units(self):
        return [1, -1]

    def check(self, a):
        if not isinstance(a, int):
            raise ValueError(f"integer expected, got {a!r}")
        return a

    def random(self, rng):
        return randint(rng, -9, 9)

    def to_str(self, a):
        return str(a)


# The largest modulus whose units ZModRing.units lists, by a walk over
# range(m).  At 4096, listing them and trying each as a co-unit in
# ``qwitt ringlaw verify`` takes about 0.2 s.
UNITS_BUDGET = 1 << 12


class ZModRing(Ring):
    """Integers modulo m, elements normalized to range(m)."""

    unital = True
    torsion_free = False
    finite = True
    supports_div_int = True

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.m = m
        self.descriptor = f"zmod:{m}"

    @property
    def reduced(self):
        """Whether m is squarefree; only decided up to MAX_ELEMENT, where
        trial division of m takes milliseconds."""
        if self.m > MAX_ELEMENT:
            raise UnsupportedRingOperation(
                f"cannot decide whether {self.descriptor} is reduced: the modulus "
                f"is above {MAX_ELEMENT}, too large to factor"
            )
        return all(e == 1 for _, e in factorization(self.m))

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def from_int(self, k):
        return k % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def int_scale(self, k, a):
        return (k * a) % self.m

    def pow(self, a, e):
        return pow(a, e, self.m) if e else self.one()

    def is_zero(self, a):
        return a % self.m == 0

    def bits(self, a):
        return a.bit_length()

    def eq(self, a, b):
        return (a - b) % self.m == 0

    def try_div_int(self, a, k):
        g = math.gcd(k, self.m)
        if g == 1:
            return (pow(k, -1, self.m) * a) % self.m
        if a % g == 0:
            raise NonUniqueQuotient(
                f"{k}-division in {self.descriptor} has {g} solutions"
            )
        return None

    def is_divisible_mod(self, a, p, e):
        # p^e * Z/m is the subgroup generated by gcd(p^e, m)
        return a % math.gcd(p**e, self.m) == 0

    def units(self):
        if self.m > UNITS_BUDGET:
            raise UnsupportedRingOperation(
                f"{self.descriptor} has more than {UNITS_BUDGET} elements to search for units"
            )
        return [a for a in range(self.m) if math.gcd(a, self.m) == 1]

    def enumerate(self):
        return range(self.m)

    def cover(self):
        return Z, self.m.__rmod__

    def check(self, a):
        if not isinstance(a, int):
            raise ValueError(f"integer expected, got {a!r}")
        return a % self.m

    def random(self, rng):
        return randint(rng, 0, self.m - 1)

    def to_str(self, a):
        return str(a % self.m)


class ZqRing(Ring):
    """Integer polynomials in one variable q; elements are coefficient tuples."""

    descriptor = "zq"
    unital = True
    torsion_free = True
    reduced = True
    finite = False
    supports_div_int = True

    def zero(self):
        return ZP_ZERO

    def one(self):
        return ZP_ONE

    def from_int(self, k):
        return zp_from_int(k)

    def generator(self):
        return ZP_Q

    add = staticmethod(zp_add)
    neg = staticmethod(zp_neg)
    int_scale = staticmethod(zp_scale)

    def pow(self, a, e):
        self._bound_pow(a, e)
        return zp_pow(a, e)

    def pow_bits(self, a, e):
        """e*deg(a) + 1 coefficients, each of at most e*log2(||a||_1) + 1 bits."""
        return ((len(a) - 1) * e + 1) * (e * (sum(map(abs, a)) - 1).bit_length() + 1) if a else 0

    def mul(self, a, b):
        return zp_mul(a, b)  # looked up per call, so a wrapped zp_mul is seen

    def is_zero(self, a):
        return not a

    def bits(self, a):
        return sum(map(int.bit_length, a))

    def eq(self, a, b):
        return a == b

    try_div_int = staticmethod(zp_divexact)

    def is_divisible_mod(self, a, p, e):
        m = p**e
        return all(c % m == 0 for c in a)

    def units(self):
        return [ZP_ONE, zp_neg(ZP_ONE)]

    def check(self, a):
        if not isinstance(a, tuple) or not all(isinstance(c, int) for c in a):
            raise ValueError(f"coefficient tuple expected, got {a!r}")
        return zp_trim(a)

    def random(self, rng):
        return zp_trim([randint(rng, -3, 3) for _ in range(randint(rng, 0, 2) + 1)])

    def constants(self):
        return {"q": ZP_Q}

    def to_str(self, a):
        return zp_to_str(a)


class DualRing(Ring):
    """Dual numbers a + b*eps over the integers, with eps^2 = 0."""

    descriptor = "dual"
    unital = True
    torsion_free = True
    reduced = False
    finite = False
    supports_div_int = True

    EPS = (0, 1)

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def from_int(self, k):
        return (k, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])

    def int_scale(self, k, a):
        return (k * a[0], k * a[1])

    def is_zero(self, a):
        return a == (0, 0)

    def bits(self, a):
        return a[0].bit_length() + a[1].bit_length()

    def eq(self, a, b):
        return a == b

    def try_div_int(self, a, k):
        if a[0] % k or a[1] % k:
            return None
        return (a[0] // k, a[1] // k)

    def is_divisible_mod(self, a, p, e):
        m = p**e
        return a[0] % m == 0 and a[1] % m == 0

    def check(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != 2
            or not all(isinstance(c, int) for c in a)
        ):
            raise ValueError(f"pair of integers expected, got {a!r}")
        return a

    def random(self, rng):
        return (randint(rng, -9, 9), randint(rng, -9, 9))

    def constants(self):
        return {"eps": self.EPS}

    def to_str(self, a):
        c, d = a
        if d == 0:
            return str(c)
        eps = "eps" if abs(d) == 1 else f"{abs(d)}*eps"
        eps = ("-" if d < 0 else "") + eps
        if c == 0:
            return eps
        joiner = "" if eps.startswith("-") else "+"
        return f"{c}{joiner}{eps}"


# The operations a twisted ring takes from its base: all but the product,
# the unit, the power estimate and the cover.  Elements are written in the
# base ring's notation.
_BASE_OPS = ("zero", "add", "neg", "sub", "int_scale", "is_zero", "bits", "eq",
             "try_div_int", "is_divisible_mod", "enumerate", "check", "random",
             "from_str", "to_str")


class TwistedRing(Ring):
    """Same additive group as ``base``, multiplication ``x * y = r*x*y``.

    Unital exactly when ``r`` is invertible in the base (then 1 = r^-1).
    """

    def __init__(self, base: Ring, r):
        if isinstance(base, TwistedRing):
            # the twist element acts through the underlying product, so
            # (A^(r))^(r') is A^(r*r') with the product taken in A
            r = base.base.mul(base.r, base.check(r))
            base = base.base
        self.base = base
        self.r = base.check(r)
        self.descriptor = f"twist:{base.descriptor}:{base.to_str(self.r)}"
        self.torsion_free = base.torsion_free
        self.finite = base.finite
        self.supports_div_int = base.supports_div_int
        # over a domain a nonzero twist keeps the ring reduced
        self.reduced = isinstance(base, (ZRing, ZqRing)) and not base.is_zero(self.r)
        self._one = self._find_inverse()
        self.unital = self._one is not None
        for name in _BASE_OPS:
            setattr(self, name, getattr(base, name))

    def _find_inverse(self):
        base, r = self.base, self.r
        if isinstance(base, ZRing):
            return r if r in (1, -1) else None
        if isinstance(base, ZModRing):
            if math.gcd(r, base.m) == 1:
                return pow(r, -1, base.m)
            return None
        if isinstance(base, ZqRing):
            if r == ZP_ONE or r == zp_neg(ZP_ONE):
                return r
            return None
        return None

    def one(self):
        if self._one is None:
            raise UnsupportedRingOperation(
                f"{self.descriptor} is not unital (twist is not a unit)"
            )
        return self._one

    def mul(self, a, b):
        return self.base.mul(self.r, self.base.mul(a, b))

    def pow_bits(self, a, e):
        # a^e is r^(e-1) * a^e in the base, which (r*a)^e bounds
        return self.base.pow_bits(self.base.mul(self.r, a), e)

    def cover(self):
        base, reduce = self.base.cover()
        return (self, None) if reduce is None else (TwistedRing(base, self.r), reduce)

    def __reduce__(self):  # rebuilt from (base, r), which binds the base's operations again
        return TwistedRing, (self.base, self.r)


Z = ZRing()
ZQ = ZqRing()
DUAL = DualRing()


def parse_ring(text: str) -> Ring:
    """Build a ring from a descriptor string.

    Formats: ``z``, ``zmod:6``, ``zq``, ``dual``, ``twist:<base>:<elem>``
    and ``witt:[<family>[(q=<elem>)]@]<base>:<set>``, a ring of Witt
    vectors used as coefficients; the family defaults to classical, and
    elements are written in the base ring's notation.
    """
    if text == "z":
        return Z
    if text == "zq":
        return ZQ
    if text == "dual":
        return DUAL
    if text.startswith("zmod:"):
        return ZModRing(exprs.read_int(text.split(":", 1)[1]))
    if text.startswith("twist:"):
        base_desc, sep, elem = text[len("twist:"):].rpartition(":")
        if not sep:
            raise ValueError(f"expected twist:<base>:<element>, got {text!r}")
        base = parse_ring(base_desc)
        return TwistedRing(base, base.from_str(elem))
    if text.startswith("witt:"):
        from . import witt
        from .truncset import TruncationSet
        from .universal import Family

        rest, sep, setpart = text[len("witt:"):].rpartition(":")
        if not sep:
            raise ValueError(f"expected witt:[<family>@]<base>:<set>, got {text!r}")
        label, base_desc = "", rest
        if rest.startswith(("qdef", "qbar", "lenart")):
            label, _, base_desc = rest.partition("@")
        label, bound, qtext = label.partition("(q=")
        if bound and not qtext.endswith(")"):
            raise ValueError(f"unclosed q binding in ring descriptor {text!r}")
        family = Family.parse(label) if label else Family.classical()
        base = parse_ring(base_desc)
        q = base.from_str(qtext[:-1]) if bound else None
        return witt.WittCoeffRing(base, TruncationSet.parse(setpart), family, q)
    raise ValueError(f"unknown ring descriptor {text!r}")
