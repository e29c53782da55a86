"""Every verification suite behind ``qwitt verify`` passes."""

import pytest

from qwitt import suites


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_suite_passes(name):
    report = suites.SUITES[name](budget=200, seed=1729)
    assert report.passed, f"suite {name} failed: {report.failures}"
