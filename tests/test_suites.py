"""Every verification suite behind ``qwitt verify`` passes, and running the
suites in forked workers changes no output."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from qwitt import suites
from qwitt.cli import main
from qwitt.errors import Error
from qwitt.report import Report

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


# ----------------------------------------------------------------------
# The suites dealt to forked workers, against the serial loop.  ``_cpus``
# is set by each test, so that both paths run on any host.

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


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


def test_a_killed_worker_is_an_internal_error():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER], env=ENV, capture_output=True,
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


def test_output_buffered_before_the_fork_is_written_once():
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}  # stdout holds a buffer
    proc = subprocess.run([sys.executable, "-c", BUFFERED], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "before the fork\n2\n", proc.stderr


FORKED_VERIFY = """
import sys
from qwitt import suites
from qwitt.cli import main

suites._cpus = lambda: 3
sys.exit(main(["verify", "--suite", "truncset,rings,mpoly,onedim", "--budget", "2"]))
"""


def test_the_workers_leave_no_resource_unclosed():
    # development mode shows every warning, and a fork from a threaded
    # process warns from Python 3.12 on
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", FORKED_VERIFY], env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert len(json.loads(proc.stdout)["reports"]) == 4
