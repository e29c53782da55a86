"""One-dimensional ring laws: axiom verification and the classifier."""

import pytest

from qwitt.errors import NotInNormalForm, UnsupportedRingOperation
from qwitt.onedim import RingLaw1D, classify_reduced, parse_poly, twisted_isos, verify_law
from qwitt.rings import DUAL, Z, ZQ, ZP_ONE, ZModRing


def test_twisted_law_passes_for_any_twist():
    for r in (0, 1, -4, 7):
        rep = verify_law(RingLaw1D.twisted(Z, r))
        assert rep.passed, rep.failures


def test_dual_number_law_passes():
    law = RingLaw1D(
        DUAL, parse_poly(DUAL, "x+y+eps*x*y"), parse_poly(DUAL, "3*eps*x*y")
    )
    rep = verify_law(law)
    assert rep.passed, rep.failures


def test_multiplicative_style_addition_fails():
    law = RingLaw1D(Z, parse_poly(Z, "x+y+x*y"), parse_poly(Z, "x*y"))
    rep = verify_law(law)
    assert "up to the degree bound" in rep.check("add-inverse").detail


def test_classify_examples():
    assert classify_reduced(RingLaw1D.twisted(Z, 5)) == 5
    assert classify_reduced(RingLaw1D.twisted(Z, 0)) == 0
    with pytest.raises(UnsupportedRingOperation):
        classify_reduced(
            RingLaw1D(
                DUAL,
                parse_poly(DUAL, "x+y+eps*x*y"),
                parse_poly(DUAL, "2*eps*x*y"),
            )
        )


def test_classify_rejects_extra_terms():
    law = RingLaw1D(Z, parse_poly(Z, "x+y"), parse_poly(Z, "x*y+x^2*y^2"))
    with pytest.raises(NotInNormalForm):
        classify_reduced(law)
    law2 = RingLaw1D(Z, parse_poly(Z, "x+y+x*y"), parse_poly(Z, "x*y"))
    with pytest.raises(NotInNormalForm):
        classify_reduced(law2)


def test_sampled_verification_over_finite_ring():
    zm = ZModRing(6)
    rep = verify_law(RingLaw1D.twisted(zm, 4), budget=128)
    assert rep.passed


def test_twisted_isos_examples():
    assert twisted_isos(2, 3, Z) == []


def test_aut_trivial_for_non_zero_divisor():
    assert twisted_isos(ZQ.from_str("q+1"), ZQ.from_str("q+1"), ZQ) == [ZP_ONE]


def test_co_unit_note_for_unit_twist():
    zm = ZModRing(6)
    rep = verify_law(RingLaw1D.twisted(zm, 5), budget=64)
    assert "co-unit point at 5" in rep.check("co-unit-note").detail
