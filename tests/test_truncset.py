"""Index-set combinatorics: construction, derived sets, subset lattice."""

import itertools

import pytest

from qwitt.errors import BudgetExceeded
from qwitt.truncset import (MAX_ELEMENT, TruncationSet, divisors, factorization, is_prime,
                            prime_factors, v_p)


def test_make_minimal():
    assert TruncationSet.make([1]).elements == (1,)


def test_make_closes_under_divisors():
    assert TruncationSet.make([4]).elements == (1, 2, 4)
    assert TruncationSet.make([6]).elements == (1, 2, 3, 6)


def test_make_rejects_bad_entries():
    with pytest.raises(ValueError):
        TruncationSet.make([0])
    with pytest.raises(ValueError):
        TruncationSet.make([-3])
    with pytest.raises(ValueError):
        TruncationSet.make([])


def test_elements_above_the_bound_are_refused():
    # 2^32 has all its divisors found in milliseconds; one more is refused
    # before any trial division
    assert len(TruncationSet.make([MAX_ELEMENT])) == 33
    for elems in ([MAX_ELEMENT + 1], [6, 10**18 + 3]):
        with pytest.raises(BudgetExceeded, match="2\\^32"):
            TruncationSet.make(elems)
    with pytest.raises(BudgetExceeded):
        TruncationSet.parse(f"1,{MAX_ELEMENT + 1}")


def test_parse_round_trip():
    s = TruncationSet.parse("1,2,4")
    assert str(s) == "1,2,4"
    assert TruncationSet.parse("6").elements == (1, 2, 3, 6)


def test_quotient_examples():
    assert TruncationSet.make([4]).quotient(2).elements == (1, 2)
    assert TruncationSet.make([6]).quotient(6).elements == (1,)
    for p in (2, 3, 5):
        assert TruncationSet.make([p]).quotient(p).elements == (1,)
    with pytest.raises(ValueError):
        TruncationSet.make([4]).quotient(3)


def test_derived_sets_are_built_once_and_shared():
    s12 = TruncationSet.make([12])
    assert s12.quotient(2) is TruncationSet.make([12]).quotient(2)
    assert s12.quotient(2).elements == (1, 2, 3, 6)
    assert s12.prime_complement(3) is s12.prime_complement(3)
    assert divisors(12) == (1, 2, 3, 4, 6, 12) and divisors(12) is divisors(12)
    with pytest.raises(ValueError):
        s12.quotient(5)
    with pytest.raises(ValueError):
        TruncationSet((1, 4))  # validation still runs for every new set


def test_prime_complement_examples():
    assert TruncationSet.make([4]).prime_complement(2).elements == (1,)
    assert TruncationSet.make([6]).prime_complement(2).elements == (1, 3)
    assert TruncationSet.make([6]).prime_complement(3).elements == (1, 2)
    with pytest.raises(ValueError):
        TruncationSet.make([6]).prime_complement(1)
    with pytest.raises(ValueError):
        TruncationSet.make([6]).prime_complement(5)


def test_product_examples():
    assert TruncationSet.make([2]).product(TruncationSet.make([3])).elements == (
        1, 2, 3, 6,
    )
    assert TruncationSet.make([1]).product(TruncationSet.make([5])).elements == (1, 5)
    with pytest.raises(ValueError):
        TruncationSet.make([2]).product(TruncationSet.make([2]))


def test_sub_sets_examples():
    assert [t.elements for t in TruncationSet.make([1]).sub_sets()] == [(1,)]
    assert [t.elements for t in TruncationSet.make([3]).sub_sets()] == [(1,), (1, 3)]


def test_sub_sets_against_exhaustive_filter():
    # independent oracle: filter all subsets containing 1 by divisor stability
    s = TruncationSet.make([12])
    rest = [n for n in s if n != 1]
    expected = set()
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            chosen = {1, *combo}
            if all(d in chosen for n in chosen for d in divisors(n)):
                expected.add(tuple(sorted(chosen)))
    assert [t.elements for t in s.sub_sets()] == sorted(expected, key=lambda t: (len(t), t))


def test_v_p():
    assert v_p(12, 2) == 2
    assert v_p(12, 3) == 1
    assert v_p(7, 2) == 0
    with pytest.raises(ValueError):
        v_p(0, 2)


def test_prime_factors_and_primality_follow_the_factorization():
    assert [n for n in range(-3, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23,
                                                         29, 31, 37]
    assert factorization(360) == [(2, 3), (3, 2), (5, 1)] and prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == [] and prime_factors(97) == [97]
    assert is_prime(4294967291) and not is_prime(3 * 4294967291)
