"""Every verification suite behind ``qwitt verify`` passes."""

import pytest

from qwitt import suites

# The suite checks that stand in for module tests deleted or cut down
# because they repeated them (CHANGES.md lists which test each replaces):
# each must stay in its suite's report.
COVERING = {
    "truncset": ["quotient-by-1", "quotient-composes", "prime-splitting", "product-quotient",
                 "sub-sets-brute-force"],
    "rings": ["twist-composition", "units-zmod6", "units-z", "units-zq"],
    "universal": ["ghost-roundtrip:classical", "ghost-roundtrip:qdef", "ghost-roundtrip:qbar:-q+1",
                  "ghost-roundtrip:lenart:2", "commutative-at-polynomial-level",
                  "qdef-is-scaled-classical", "specialize-q-to-1", "frobenius-mod-p",
                  "base-change-two-routes"],
    "witt": ["exact-sequences"],
    "qdeform": ["h-and-r", "qdef-prime-tables", "qbar-prime-tables", "lenart-defect",
                "qbar-identification"],
    "onedim": ["classifier-roundtrip", "inverse-failure-detected", "twisted-isos-closed-form",
               "iso-symmetry", "aut-trivial-for-nonzerodivisor"],
    "systems": ["rfv-witt-zmod3", "rfv-witt-z-1236", "rf-const-z", "rf-const-zq-id-lift-fails",
                "lenart-2-congruence-fails", "alpha-iso-witt-z", "nesting-iso"],
    "indwitt": ["dwork-image", "frobenius-power-congruence"],
}


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_suite_passes(name):
    report = suites.SUITES[name](budget=200, seed=1729)
    assert report.passed, f"suite {name} failed: {report.failures}"
    assert set(COVERING) <= set(suites.SUITES)
    missing = set(COVERING.get(name, ())) - {check.name for check in report.checks}
    assert not missing, f"suite {name} no longer checks {sorted(missing)}"
