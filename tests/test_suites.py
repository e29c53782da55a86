"""Every verification suite behind ``qwitt verify`` passes, and running the
suites in forked workers changes no output."""

import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from qwitt import suites
from qwitt.cli import main
from qwitt.errors import Error
from qwitt.mpoly import MPoly, Q, xvar, yvar
from qwitt.report import Report
from qwitt.truncset import TruncationSet
from qwitt.universal import Family

# The suite checks that stand in for module tests and acceptance criteria
# deleted or cut down because they repeated them (CHANGES.md lists which
# test each replaces): each must stay in its suite's report.
COVERING = {
    "truncset": ["quotient-by-1", "quotient-composes", "prime-splitting", "product-quotient",
                 "sub-sets-brute-force"],
    "rings": ["twist-composition", "units-zmod6", "units-z", "units-zq"],
    "universal": ["ghost-roundtrip:classical", "ghost-roundtrip:qdef", "ghost-roundtrip:qbar:-q+1",
                  "ghost-roundtrip:lenart:2", "commutative-at-polynomial-level",
                  "qdef-is-scaled-classical", "specialize-q-to-1", "frobenius-mod-p",
                  "base-change-two-routes"],
    "witt": ["exact-sequences"],
    "qdeform": ["h-and-r", "qdef-prime-tables", "qbar-prime-tables", "lenart-iso",
                "lenart-defect", "qbar-identification"],
    "onedim": ["classifier-roundtrip", "dual-number-law", "inverse-failure-detected",
               "twisted-isos-closed-form", "iso-symmetry", "aut-trivial-for-nonzerodivisor"],
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


def test_a_raising_r_poly_is_a_failed_check_not_an_aborted_run(monkeypatch):
    from qwitt import qdeform
    from qwitt.errors import IntegralityViolation

    def refuse(p):
        raise IntegralityViolation(f"h - q^{p - 1} was not divisible by {p}")
    monkeypatch.setattr(qdeform, "r_poly", refuse)
    assert suites.suite_universal().failures == ["r-integrality"]


def test_a_classical_law_with_a_constant_term_is_a_failed_check_not_an_error(plant, capsys):
    # 1 added to sigma[2] on {1,2,3,6}: its q-scaling does not divide by q
    plant(Family.classical(), TruncationSet.make([6]), "sigma", 2, const=True)
    code = main(["verify", "--suite", "all", "--budget", "2", "--seed", "1"])
    out, err = capsys.readouterr()
    reports = {r["suite"]: r for r in json.loads(out)["reports"]}
    assert code == 1 and err == "" and list(reports) == list(suites.SUITES)
    assert "qdef-is-scaled-classical" in reports["universal"]["failures"]


# ----------------------------------------------------------------------
# The suites dealt to forked workers, against the serial loop.  ``_cpus``
# is set by each test, so that both paths run on any host.


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _cpus(monkeypatch, n):
    monkeypatch.setattr(suites, "_cpus", lambda: n)


@pytest.mark.parametrize("budget, seed", [(2, 1), (2, -5), (40, 123456), (200, 1729)])
def test_the_workers_change_no_report(monkeypatch, forks, budget, seed):
    def reports(cpus):
        _cpus(monkeypatch, cpus)
        return [r.to_json() for r in suites.run_suites("all", budget=budget, seed=seed)]

    serial = reports(1)
    assert forks == []
    assert reports(2) == serial and reports(4) == serial
    assert len(forks) == 1 + 3  # min(CPUs, suites) - 1 each time


def test_a_run_reaps_its_workers_and_forks_no_threaded_process(monkeypatch, forks):
    _cpus(monkeypatch, 4)
    names = ["truncset", "rings"]
    assert [r.name for r in suites.run_suites(names, budget=2, seed=1)] == names
    assert len(forks) == 1  # one worker for the second of two suites
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forks[0], os.WNOHANG)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert [r.name for r in suites.run_suites(names, budget=2, seed=1)] == names
    finally:
        stop.set()
        thread.join()
    assert len(forks) == 1


def _suite(name, raises):
    def suite(budget, seed):
        if raises:
            raise Error(f"{name} broke")
        report = Report(name)
        report.add("ran", True, f"budget {budget}, seed {seed}")
        return report

    return suite


@pytest.mark.parametrize("raising", ["bc", "ad", "d", "b", "", "?c", "a?"])
def test_the_first_raise_in_suite_order_wins(monkeypatch, capsys, forks, raising):
    # with two shares, a and c run in this process and b and d in the
    # worker; "?" stands for b as a suite that does not exist, a usage error
    monkeypatch.setattr(suites, "SUITES", {n: _suite(n, n in raising) for n in "abcd"})
    order = "a?cd" if "?" in raising else "abcd"
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        runs.append((main(["verify", "--suite", ",".join(order)]), capsys.readouterr()))
    assert runs[0] == runs[1]
    code, (out, err) = runs[0]
    first = next((n for n in order if n in raising), None)
    if first == "?":
        assert code == 2 and err.startswith("usage error: unknown suite '?'")
    elif first:
        assert code == 1 and out == "" and err == f"error: {first} broke\n"
    else:
        assert code == 0 and [r["suite"] for r in json.loads(out)["reports"]] == list(order)
    assert len(forks) == 1


# A worker killed before it sends its reports: "killed" runs in it.
KILLED_WORKER = """
import os, signal, sys
from qwitt import suites
from qwitt.cli import main

def killed(budget, seed):
    os.kill(os.getpid(), signal.SIGKILL)

suites._cpus = lambda: 2
suites.SUITES = {"truncset": suites.SUITES["truncset"], "killed": killed}
sys.exit(main(["verify", "--suite", "truncset,killed", "--budget", "2"]))
"""


def test_a_killed_worker_is_an_internal_error(src_env):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("internal error: RuntimeError: suite worker"), proc.stderr


# Output that this process holds in its buffer when it forks, then reports
# from two processes.
BUFFERED = """
import sys
from qwitt import suites

suites._cpus = lambda: 2
print("before the fork")
print(len(suites.run_suites(["truncset", "rings"], budget=2, seed=1)))
"""


def test_output_buffered_before_the_fork_is_written_once(src_env):
    src_env.pop("PYTHONUNBUFFERED", None)  # stdout holds a buffer
    proc = subprocess.run([sys.executable, "-c", BUFFERED], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "before the fork\n2\n", proc.stderr


FORKED_VERIFY = """
import sys
from qwitt import suites
from qwitt.cli import main

suites._cpus = lambda: 3
sys.exit(main(["verify", "--suite", "truncset,rings,mpoly,onedim", "--budget", "2"]))
"""


def test_the_workers_leave_no_resource_unclosed(src_env):
    # development mode shows every warning, and a fork from a threaded
    # process warns from Python 3.12 on
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", FORKED_VERIFY], env=src_env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert len(json.loads(proc.stdout)["reports"]) == 4


def _rand_poly_by_products(rng):
    """The mpoly suite's draw as it was first written: each monomial built
    from up to four products."""
    out = MPoly.zero()
    for _ in range(rng.randint(1, 4)):
        mono = MPoly.const(rng.randint(-4, 4))
        for v in (xvar(1), xvar(2), yvar(1), Q):
            e = rng.randint(0, 2)
            if e:
                mono = mono * MPoly.var(v, e)
        out = out + mono
    return out


@pytest.mark.parametrize("seed", [1, 1729, -5, 123456])
def test_mpoly_suite_draws_the_polynomials_of_the_product_construction(seed):
    r1, r2 = random.Random(seed), random.Random(seed)
    for _ in range(200):
        got, want = suites._rand_poly(r1), _rand_poly_by_products(r2)
        assert got.terms() == want.terms() and r1.getstate() == r2.getstate()
