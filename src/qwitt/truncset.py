"""Divisor-stable index sets and their combinatorics.

Every Witt-vector coordinate list in this package is indexed by a finite
set of positive integers closed under taking divisors (a *truncation set*).
The derived sets ``S/n`` and ``S(n)`` and the coprime product ``S*T`` carry
the index bookkeeping behind Frobenius, Verschiebung and the nesting
isomorphism, so they live here, away from any ring arithmetic.
"""

from __future__ import annotations

from functools import cache

from .errors import BudgetExceeded
from .exprs import read_int
from .report import FrozenRecord

# The largest element a truncation set may have.  Divisors are found by
# trial division up to sqrt(n), which for the largest prime below 2^32,
# 4294967291, takes about 9 ms (1.5 ms at 10^8, 3.8 ms at 10^9, 14 ms at
# 10^10 and 46 ms at 10^11, one shared Xeon core); a set with a larger
# element would be a computation of seconds to hours.
MAX_ELEMENT = 1 << 32
# The most divisor-stable subsets that ``sub_sets`` lists, which also bounds
# the pairs of them that ``systems.verify_rf`` checks (at most 2,016).
# {1,2,3,4,6,12}, the largest set the suites, tests and demos verify a
# system on, has 9; {1,...,8} has 44, and ``qwitt systems verify`` on it
# takes 0.3 s at budget 2 (one shared Xeon core); {1,...,10} has 102.
SUBSET_BUDGET = 64


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n``, ascending (computed once per n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    large.reverse()
    return tuple(small + large)


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n`` as (prime, exponent) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n``, ascending."""
    return [p for p, _ in factorization(n)]


def is_prime(n: int) -> bool:
    return factorization(n) == [(n, 1)]


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer ``n``."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class TruncationSet(FrozenRecord):
    """A finite divisor-stable set of positive integers, sorted ascending.

    Always contains 1.  Instances are immutable and safe to share.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        _set_elements(self, elements)
        if not elements or elements[0] != 1:
            raise ValueError("a truncation set must contain 1")
        if list(elements) != sorted(set(elements)):
            raise ValueError("elements must be strictly increasing")
        known = set(elements)
        for n in elements:
            for d in divisors(n):
                if d not in known:
                    raise ValueError(f"{n} is present but its divisor {d} is not")

    @staticmethod
    def make(elems) -> "TruncationSet":
        """Divisor closure of ``elems``, deduplicated and sorted.

        Rejects zero, negative and non-integer entries and empty input,
        and raises BudgetExceeded for an entry above MAX_ELEMENT.
        """
        items = list(elems)
        if not items:
            raise ValueError("a truncation set needs at least one element")
        closed: set[int] = set()
        for n in items:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"truncation sets contain positive integers, got {n!r}")
            if n > MAX_ELEMENT:
                raise BudgetExceeded(
                    f"truncation set element {n} is above {MAX_ELEMENT} (2^32)")
            closed.update(divisors(n))
        return TruncationSet(tuple(sorted(closed)))

    @staticmethod
    def parse(text: str) -> "TruncationSet":
        """Parse the comma-separated text form, e.g. ``"1,2,4"``.

        The result is closed under divisors automatically.
        """
        try:
            items = [read_int(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse truncation set {text!r}") from exc
        return TruncationSet.make(items)

    def __contains__(self, n: int) -> bool:
        return n in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.elements)

    def index(self, n: int) -> int:
        """Position of ``n`` in the sorted element tuple."""
        try:
            return self.elements.index(n)
        except ValueError:
            raise KeyError(f"{n} is not in the truncation set {self}") from None

    def primes(self) -> list[int]:
        """The prime members, ascending."""
        return [n for n in self.elements if is_prime(n)]

    def quotient(self, n: int) -> "TruncationSet":
        """The set ``S/n`` of all ``v`` in S with ``v*n`` in S."""
        if n not in self:
            raise ValueError(f"{n} is not in {self}")
        return _quotient(self.elements, n)

    def prime_complement(self, n: int) -> "TruncationSet":
        """The set ``S(n)`` of members not divisible by ``n`` (n > 1)."""
        if n == 1:
            raise ValueError("S(1) would be empty; n must exceed 1")
        if n not in self:
            raise ValueError(f"{n} is not in {self}")
        return _prime_complement(self.elements, n)

    def product(self, other: "TruncationSet") -> "TruncationSet":
        """The coprime product ``{n*m}``; inputs must intersect in {1} only."""
        shared = set(self.elements) & set(other.elements)
        if shared != {1}:
            raise ValueError(
                f"truncation sets {self} and {other} are not coprime "
                f"(shared elements {sorted(shared - {1})})"
            )
        prods = {n * m for n in self.elements for m in other.elements}
        return TruncationSet(tuple(sorted(prods)))

    def is_subset(self, other: "TruncationSet") -> bool:
        return set(self.elements) <= set(other.elements)

    def sub_sets(self) -> list["TruncationSet"]:
        """Every divisor-stable subset, ordered by size then lexicographically.

        Built one element at a time, ascending: n joins each subset found
        so far that holds its proper divisors.  Raises BudgetExceeded as
        soon as more than SUBSET_BUDGET subsets are found.
        """
        found = [(1,)]
        for n in self.elements[1:]:
            below = divisors(n)[1:-1]
            found += [t + (n,) for t in found if all(d in t for d in below)]
            if len(found) > SUBSET_BUDGET:
                raise BudgetExceeded(
                    f"the {len(self)}-element set up to {self.elements[-1]} has more than "
                    f"{SUBSET_BUDGET} divisor-stable subsets (budget {SUBSET_BUDGET})")
        found.sort(key=lambda t: (len(t), t))
        return [TruncationSet(t) for t in found]


# The derived sets are built (and validated) once per (elements, n); the
# sets are immutable, so every caller may share them.


@cache
def _quotient(elements: tuple[int, ...], n: int) -> TruncationSet:
    return TruncationSet(tuple(v for v in elements if v * n in elements))


@cache
def _prime_complement(elements: tuple[int, ...], n: int) -> TruncationSet:
    return TruncationSet(tuple(v for v in elements if v % n != 0))


_set_elements = TruncationSet.elements.__set__
ONE_SET = TruncationSet((1,))
