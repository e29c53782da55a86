"""Command-line behavior: JSON I/O, exit codes, determinism."""

import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qwitt import suites, universal, witt
from qwitt.cli import main
from qwitt.mpoly import MPoly
from qwitt.rings import parse_ring
from qwitt.truncset import TruncationSet
from qwitt.universal import Family


@pytest.fixture(autouse=True)
def _isolated_cache():
    yield
    universal.set_cache_dir(None)


@pytest.fixture
def json_in(tmp_path):
    """Writes its argument as JSON to a new file in tmp_path and returns the
    file's path, for --in."""
    paths = (tmp_path / f"in{k}.json" for k in itertools.count())

    def write(data) -> str:
        path = next(paths)
        path.write_text(json.dumps(data))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_polys_add_json(capsys):
    code, data = run(capsys, "polys", "--family", "classical", "--set", "1,2",
                     "--law", "add")
    assert code == 0
    sigma2 = MPoly.from_json(data["polys"]["2"])
    assert str(sigma2) == "-x1*y1 + x2 + y2"


def test_polys_frobenius(capsys):
    code, data = run(capsys, "polys", "--family", "qdef", "--set", "1,2",
                     "--law", "frob:2", "--format", "text")
    assert code == 0
    assert data["polys"]["1"] == "q*x1^2 + 2*x2"


def test_polys_lenart_requires_integer(capsys):
    code = main(["polys", "--family", "lenart", "--set", "1,2", "--law", "add"])
    assert code == 2


def test_eval_add_and_roundtrip(json_in, capsys):
    payload = {
        "a": {"coords": {"1": "1", "2": "1"}},
        "b": {"coords": {"1": "1", "2": "1"}},
    }
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,2",
                     "--ring", "z", "--op", "add", "--in", json_in(payload))
    assert code == 0
    assert data == {"coords": {"1": "2", "2": "1"}}


def test_eval_qdef_mul_over_zq(json_in, capsys):
    payload = {
        "a": {"coords": {"1": "1", "2": "q"}},
        "b": {"coords": {"1": "2", "2": "1"}},
    }
    code, data = run(capsys, "eval", "--family", "qdef", "--set", "1,2",
                     "--ring", "zq", "--op", "mul", "--in", json_in(payload))
    assert code == 0
    assert data["coords"]["1"] == "2*q"


def test_eval_ghost_unghost_roundtrip(json_in, capsys):
    vec = {"coords": {"1": "3", "2": "-2", "3": "1", "6": "4"}}
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,2,3,6",
                     "--ring", "z", "--op", "ghost", "--in", json_in({"a": vec}))
    assert code == 0
    code, back = run(capsys, "eval", "--family", "classical", "--set", "1,2,3,6",
                     "--ring", "z", "--op", "unghost", "--in", json_in(data))
    assert code == 0
    assert back == vec


def test_eval_unghost_domain_error(json_in, capsys):
    code = main(["eval", "--family", "classical", "--set", "1,2", "--ring", "z",
                 "--op", "unghost", "--in", json_in({"ghost": {"1": "1", "2": "2"}})])
    assert code == 1


def test_eval_q_binding_over_zmod(json_in, capsys):
    payload = {
        "a": {"coords": {"1": "1", "2": "0"}},
        "b": {"coords": {"1": "1", "2": "0"}},
    }
    code, data = run(capsys, "eval", "--family", "qdef", "--set", "1,2",
                     "--ring", "zmod:6", "--q", "2", "--op", "add",
                     "--in", json_in(payload))
    assert code == 0
    # a2 + b2 - q*a1*b1 = -2 = 4 mod 6
    assert data["coords"]["2"] == "4"


@pytest.mark.parametrize("family, q", [("classical", None), ("qdef", 2)])
@pytest.mark.parametrize("op", ["add", "mul"])
def test_eval_over_non_unital_twist(json_in, capsys, family, q, op):
    payload = {
        "a": {"coords": {"1": "3", "2": "1"}},
        "b": {"coords": {"1": "2", "2": "-1"}},
    }
    qarg = [] if q is None else ["--q", str(q)]
    code, data = run(capsys, "eval", "--family", family, "--set", "1,2",
                     "--ring", "twist:z:2", *qarg, "--op", op, "--in", json_in(payload))
    assert code == 0
    ring, tset = parse_ring("twist:z:2"), TruncationSet.make([2])
    a = witt.make(Family.parse(family), tset, ring, [3, 1], q)
    b = witt.make(Family.parse(family), tset, ring, [2, -1], q)
    assert data == witt.vector_to_json(getattr(witt, op)(a, b))


def test_eval_over_a_q_witt_ring(json_in, capsys):
    # the descriptor a q-family Witt ring prints is accepted by --ring
    el = {"coords": {"1": "1", "2": "1"}}
    path = json_in({"a": {"coords": {"1": el, "3": el}},
                    "b": {"coords": {"1": el, "3": el}}})
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,3",
                     "--ring", "witt:qdef(q=3)@zmod:7:1,2", "--op", "mul",
                     "--in", path)
    assert code == 0
    assert data == {"coords": {"1": {"coords": {"1": "3", "2": "3"}},
                               "3": {"coords": {"1": "0", "2": "2"}}}}


def test_deform_lenart_iso(json_in, capsys):
    path = json_in({"coords": {"1": "2", "2": "5"}})
    code, data = run(capsys, "deform", "lenart-iso", "--p", "2", "--q", "3",
                     "--in", path)
    assert code == 0
    assert data == {"coords": {"1": "2", "2": "9"}}
    code2 = main(["deform", "lenart-iso", "--p", "2", "--q", "2",
                  "--in", path])
    assert code2 == 1  # the prime divides the deformation integer


def test_deform_defect_and_certify(capsys):
    code, data = run(capsys, "deform", "lenart-defect", "--p", "2", "--q", "3")
    assert code == 0 and data["defect"] is None
    code, data = run(capsys, "deform", "lenart-defect", "--p", "2", "--q", "2")
    assert code == 0 and data["defect"]["coords"] == {"1": "1", "2": "0"}
    code, data = run(capsys, "deform", "certify-qbar", "--g", "q", "--set", "1,2")
    assert code == 0 and data["passed"] is True


def test_ringlaw_classify(capsys):
    code, data = run(capsys, "ringlaw", "classify", "--ring", "z",
                     "--F", "x+y", "--G", "5*x*y")
    assert code == 0 and data == {"r": "5"}
    code, data = run(capsys, "ringlaw", "verify", "--ring", "dual",
                     "--F", "x+y+eps*x*y", "--G", "2*eps*x*y")
    assert code == 0 and data["passed"] is True
    code = main(["ringlaw", "classify", "--ring", "z",
                 "--F", "x+y+x*y", "--G", "x*y"])
    assert code == 1


def test_systems_verify_and_exit_codes(capsys):
    code, data = run(capsys, "systems", "verify", "--instance", "witt:zmod:3:1,2",
                     "--budget", "60")
    assert code == 0 and data["passed"] is True
    code, data = run(capsys, "systems", "verify", "--instance", "lenart:2:1,2",
                     "--budget", "60")
    assert code == 1 and data["passed"] is False


def test_systems_auer_roundtrip(json_in, capsys):
    vec = {"coords": {"1": "1", "2": "2", "3": "3", "6": "4"}}
    code, nested = run(capsys, "systems", "auer", "--t1", "1,2", "--t2", "1,3",
                       "--ring", "z", "--in", json_in(vec))
    assert code == 0
    code, back = run(capsys, "systems", "auer", "--t1", "1,2", "--t2", "1,3",
                     "--ring", "z", "--in", json_in(nested), "--backward")
    assert code == 0 and back == vec


def test_indwitt_ops(json_in, capsys):
    code, data = run(capsys, "indwitt", "ghost", "--system", "triv:z",
                     "--set", "1,2,4", "--in", json_in({"coords": {"1": "1", "2": "2", "4": "0"}}))
    assert code == 0 and data["ghost"] == {"1": "1", "2": "4", "4": "0"}
    code, data = run(capsys, "indwitt", "lambda", "--system", "const:z",
                     "--set", "1,2", "--n", "1", "--elem", "2")
    assert code == 0 and data["coords"] == {"1": "2", "2": "-1"}
    path2 = json_in({"ghost": {"1": "3", "2": "5"}})
    code, data = run(capsys, "indwitt", "dwork-test", "--system", "const:z",
                     "--set", "1,2", "--in", path2)
    assert code == 0 and data["in_image"] is True
    code, data = run(capsys, "indwitt", "dwork-invert", "--system", "const:z",
                     "--set", "1,2", "--in", path2)
    assert code == 0 and data["coords"] == {"1": "3", "2": "-2"}
    code = main(["indwitt", "dwork-invert", "--system", "const:z",
                 "--set", "1,2", "--in", json_in({"ghost": {"1": "3", "2": "4"}})])
    assert code == 1


def test_eval_teich_ver_project(json_in, capsys):
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,2,3,6",
                     "--ring", "z", "--op", "teich", "--in", json_in({"value": "3"}))
    assert code == 0
    assert data == {"coords": {"1": "3", "2": "0", "3": "0", "6": "0"}}
    path2 = json_in({"a": {"coords": {"1": "5", "3": "-1"}}})
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,2,3,6",
                     "--ring", "z", "--op", "ver:2", "--in", path2)
    assert code == 0
    assert data == {"coords": {"1": "0", "2": "5", "3": "0", "6": "-1"}}
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,2,3,6",
                     "--ring", "z", "--op", "project:1,3", "--in", json_in({"a": data}))
    assert code == 0
    assert data == {"coords": {"1": "0", "3": "0"}}


def test_verify_deterministic(capsys):
    code, first = run(capsys, "verify", "--suite", "onedim", "--budget", "40",
                      "--seed", "7")
    code2, second = run(capsys, "verify", "--suite", "onedim", "--budget", "40",
                        "--seed", "7")
    assert code == code2 == 0
    assert first == second


def test_usage_errors_exit_2(capsys):
    assert main(["polys", "--family", "nope", "--set", "1,2", "--law", "add"]) == 2
    assert main(["polys", "--family", "classical", "--set", "1,2",
                 "--law", "wat"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobulate"])
    assert exc.value.code == 2


# An expression that ends where the grammar needs more is named, with its
# text, not as a token None.
UNFINISHED = [
    (["polys", "--family", "qbar:1+", "--set", "1,2", "--law", "add"], "'1+'"),
    (["polys", "--family", "qbar:(1", "--set", "1,2", "--law", "add"], "'(1'"),
    (["ringlaw", "verify", "--ring", "z", "--F", "x*y*", "--G", "x*y"], "'x*y*'"),
]


@pytest.mark.parametrize("argv, text", UNFINISHED, ids=[row[1] for row in UNFINISHED])
def test_an_unfinished_expression_is_named_as_such(capsys, argv, text):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: unexpected end of expression {text}\n"


@pytest.mark.parametrize("ring, form", [("twist:z", "twist:<base>:<element>"),
                                        ("witt:z", "witt:[<family>@]<base>:<set>")])
def test_a_malformed_ring_descriptor_names_its_format(capsys, ring, form):
    assert main(["ringlaw", "verify", "--ring", ring, "--F", "x+y", "--G", "x*y"]) == 2
    assert capsys.readouterr().err == f"usage error: expected {form}, got {ring!r}\n"


def test_a_malformed_system_instance_names_its_format(capsys):
    assert main(["systems", "verify", "--instance", "witt"]) == 2
    assert capsys.readouterr().err == "usage error: expected <instance>:<set>, got 'witt'\n"


# an index or a subset outside the set is a usage error in every command
OUTSIDE = [
    ("polys-frob", ["polys", "--family", "classical", "--law", "frob:5"], "5 is not in 1,2"),
    ("eval-frob", ["eval", "--family", "classical", "--ring", "z", "--op", "frob:5"],
     "5 is not in 1,2"),
    ("eval-ver", ["eval", "--family", "classical", "--ring", "z", "--op", "ver:5"],
     "5 is not in 1,2"),
    ("eval-project", ["eval", "--family", "classical", "--ring", "z", "--op", "project:1,3"],
     "1,3 is not a subset of 1,2"),
    ("indwitt-frob", ["indwitt", "frob:5", "--system", "const:z"], "5 is not in 1,2"),
    ("indwitt-ver", ["indwitt", "ver:5", "--system", "const:z"], "5 is not in 1,2"),
]


@pytest.mark.parametrize("argv, text", [pytest.param(*row[1:], id=row[0]) for row in OUTSIDE])
def test_an_index_outside_the_set_is_a_usage_error(json_in, capsys, argv, text):
    if argv[0] != "polys":
        argv = [*argv, "--in", json_in({"a": {"coords": {"1": "3", "2": "1"}}})]
    assert main([*argv, "--set", "1,2"]) == 2
    assert capsys.readouterr().err == f"usage error: {text}\n"


def test_missing_input_fields_are_usage_errors(json_in, capsys):
    empty = json_in({})
    partial = json_in({"ghost": {"1": "3"}, "coords": {"1": "3"}})
    cases = [
        (["eval", "--family", "classical", "--set", "1,2", "--ring", "z",
          "--op", "teich", "--in", empty], "'value'"),
        (["eval", "--family", "classical", "--set", "1,2", "--ring", "z",
          "--op", "unghost", "--in", empty], "'ghost'"),
        (["eval", "--family", "classical", "--set", "1,2", "--ring", "z",
          "--op", "unghost", "--in", partial], "index 2"),
        (["indwitt", "neg", "--system", "const:z", "--set", "1,2",
          "--in", partial], "index 2"),
        (["indwitt", "dwork-test", "--system", "const:z", "--set", "1,2",
          "--in", empty], "'ghost'"),
        (["indwitt", "dwork-invert", "--system", "const:z", "--set", "1,2",
          "--in", partial], "index 2"),
    ]
    for argv, field in cases:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and field in err


@pytest.mark.parametrize("fault", [KeyError(3), RuntimeError("boom")])
def test_internal_faults_are_reported_as_internal_errors(json_in, monkeypatch,
                                                         capsys, fault):
    from qwitt import witt

    def broken(*args):
        raise fault

    monkeypatch.setattr(witt, "add", broken)
    path = json_in({"a": {"coords": {"1": "1"}},
                    "b": {"coords": {"1": "2"}}})
    code = main(["eval", "--family", "classical", "--set", "1", "--ring", "z",
                 "--op", "add", "--in", path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"internal error: {type(fault).__name__}: ")
    assert "Traceback" not in err


def test_results_longer_than_the_conversion_limit_are_printed(json_in, capsys):
    # coordinate 2 of the sum is a2 + b2 - a1*b1, with 6001 digits: more than
    # CPython's default 4300-digit limit on int-to-str conversion
    big = str(10**3000)
    path = json_in({"a": {"coords": {"1": big, "2": big}},
                    "b": {"coords": {"1": big, "2": big}}})
    code, data = run(capsys, "eval", "--family", "classical", "--set", "1,2",
                     "--ring", "z", "--op", "add", "--in", path)
    assert code == 0
    assert data["coords"]["1"] == "2" + "0" * 3000
    assert data["coords"]["2"] == "-" + "9" * 2999 + "8" + "0" * 3000
    with pytest.raises(ValueError):  # the limit is back after the run
        str(10**5000)


def test_inputs_over_the_budget_exit_1(json_in, capsys):
    from qwitt.cli import INPUT_BUDGET

    huge = "9" * (INPUT_BUDGET + 1)
    path = json_in({"a": {"coords": {"1": huge}},
                    "b": {"coords": {"1": "1"}}})
    cases = [
        ["eval", "--family", "classical", "--set", "1", "--ring", "z",
         "--op", "add", "--in", path],
        ["eval", "--family", "qdef", "--set", "1", "--ring", "zq",
         "--q", huge, "--op", "neg", "--in", path],
    ]
    for argv in cases:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(INPUT_BUDGET) in err


def test_huge_exponents_exit_1(json_in, capsys):
    code = main(["eval", "--family", "classical", "--set", "1", "--ring", "z",
                 "--op", "neg", "--in", json_in({"a": {"coords": {"1": "2^99999999999"}}})])
    assert code == 1
    assert "budget" in capsys.readouterr().err


# Every integer in a text input has one spelling, ASCII digits.  ``{}``
# marks where the integer goes, in an argument or in the input file.
SPELLED = [
    (["polys", "--family", "classical", "--set", "1,{}", "--law", "add"], "2"),
    (["polys", "--family", "classical", "--set", "1,2,4", "--law", "frob:{}"], "2"),
    (["polys", "--family", "lenart:{}", "--set", "1,2", "--law", "add"], "2"),
    (["eval", "--family", "classical", "--set", "1,2", "--ring", "zmod:{}",
      "--op", "teich", "--in", {"value": "5"}], "12"),
    (["eval", "--family", "classical", "--set", "1,2", "--ring", "z",
      "--op", "teich", "--in", {"value": "{}+1"}], "12"),
    (["eval", "--family", "qdef", "--set", "1,2", "--ring", "zq",
      "--op", "teich", "--in", {"value": "q^{}"}], "3"),
    (["eval", "--family", "classical", "--set", "1,2,4", "--ring", "z",
      "--op", "frob:{}", "--in", {"a": {"coords": {"1": "3", "2": "1", "4": "2"}}}], "2"),
    (["eval", "--family", "classical", "--set", "1,2,4", "--ring", "z",
      "--op", "ver:{}", "--in", {"a": {"coords": {"1": "3", "2": "1"}}}], "2"),
    (["eval", "--family", "classical", "--set", "1,2,4", "--ring", "z",
      "--op", "project:1,{}", "--in", {"a": {"coords": {"1": "3", "2": "1", "4": "2"}}}], "2"),
    (["indwitt", "frob:{}", "--system", "triv:z", "--set", "1,2",
      "--in", {"coords": {"1": "3", "2": "1"}}], "2"),
    (["indwitt", "ver:{}", "--system", "triv:z", "--set", "1,2",
      "--in", {"coords": {"1": "3"}}], "2"),
    (["systems", "verify", "--instance", "lenart:{}:1,2", "--budget", "4"], "2"),
]


def _spelled(tmp_path, capsys, argv, number):
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / "in.json"
            path.write_text(json.dumps(arg).replace("{}", number), encoding="utf-8")
            arg = str(path)
        args.append(arg.replace("{}", number))
    code = main(args)
    out = capsys.readouterr().out
    result = json.loads(out) if out.strip() else None
    if isinstance(result, dict):
        result.pop("law", None)  # the law as it was spelled
    return code, result


@pytest.mark.parametrize("argv, number", SPELLED, ids=lambda v: v[0] if isinstance(v, list) else v)
def test_integers_in_text_inputs_are_ascii_digits(tmp_path, capsys, argv, number):
    code, want = _spelled(tmp_path, capsys, argv, number)
    assert code in (0, 1) and want is not None
    spaced = number if "value" in json.dumps(argv) else f" {number} "  # not inside an expression
    for ascii_form in (spaced, "0" + number):
        assert _spelled(tmp_path, capsys, argv, ascii_form) == (code, want)
    arabic_indic = "".join(chr(0x660 + int(d)) for d in number)
    fullwidth = "".join(chr(0xFF10 + int(d)) for d in number)
    for other in (arabic_indic, fullwidth, "0_" + number, "+" + number):
        assert _spelled(tmp_path, capsys, argv, other) == (2, None), other


def test_no_disk_cache_without_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(universal, "_MEM", {})  # every derivation is fresh
    assert main(["polys", "--family", "qbar", "--set", "1,2,4", "--law", "mul"]) == 0
    assert main(["verify", "--suite", "all", "--budget", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    assert list(tmp_path.rglob("*")) == []


def test_the_disk_cache_changes_no_output(tmp_path, monkeypatch, capsys):
    # each command runs cold, cold storing every derivation, and disk-warm;
    # every process of a run, the forked suite workers too, logs its pid as
    # it runs a share of the suites and as it derives
    cache, log = str(tmp_path / "cache"), tmp_path / "log"

    def logged(what, real):
        def hook(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {what}\n")
            return real(*args)
        return hook

    monkeypatch.setattr(universal, "_derive_uncached", logged("derive", universal._derive_uncached))
    monkeypatch.setattr(suites, "_run_share", logged("run", suites._run_share))

    def outputs(argv):
        out, seen = [], []
        for pre in ([], ["--cache-dir", cache], ["--cache-dir", cache]):
            monkeypatch.setattr(universal, "_MEM", {})
            log.write_text("")
            assert main([*pre, *argv]) == 0
            out.append(capsys.readouterr().out)
            seen.append({tuple(line.split()) for line in log.read_text().splitlines()})
        derived = [{pid for pid, what in lines if what == "derive"} for lines in seen]
        assert derived[0] and not derived[2]  # the last run derived nothing, in any process
        return out, seen[0]

    for family, tset in (("classical", "1,2,3,4,6,12"), ("qbar", "1,2,4,8")):
        (cold, stored, warm), _ = outputs(["polys", "--family", family, "--set", tset,
                                           "--law", "mul"])
        assert cold == stored == warm and cold
    (cold, stored, warm), seen = outputs(["verify", "--suite", "all", "--budget", "2",
                                          "--seed", "1"])
    assert cold == stored == warm and json.loads(cold)
    # the derivations are seen in the processes that ran the suites: with two
    # shares, universal and qdeform, the suites that derive, both run in the worker
    runs = {pid for pid, what in seen if what == "run"}
    assert {pid for pid, what in seen if what == "derive"} <= runs


# Integer options read ASCII digits, with a minus only for seeds and q; a
# budget is at least 1.  ``{}`` marks the option's value.
OPTIONS = [
    (["verify", "--suite", "truncset", "--budget", "{}"], "budget"),
    (["verify", "--suite", "truncset", "--budget", "2", "--seed", "{}"], "signed"),
    (["ringlaw", "verify", "--ring", "z", "--F", "x+y", "--G", "x*y", "--budget", "{}"], "budget"),
    (["ringlaw", "classify", "--ring", "z", "--F", "x+y", "--G", "x*y", "--seed", "{}"], "signed"),
    (["systems", "verify", "--instance", "witt:z:1,2", "--budget", "{}"], "budget"),
    (["systems", "verify", "--instance", "witt:z:1,2", "--budget", "2", "--seed", "{}"],
     "signed"),
    (["indwitt", "lambda", "--system", "chain", "--set", "1,3", "--n", "{}", "--elem", "1"],
     "unsigned"),
    (["deform", "lenart-defect", "--p", "{}", "--q", "2"], "unsigned"),
    (["deform", "lenart-defect", "--p", "2", "--q", "{}"], "signed"),
    (["deform", "lenart-iso", "--p", "{}", "--q", "2", "--in", "{in}"], "unsigned"),
    (["deform", "lenart-iso", "--p", "5", "--q", "{}", "--in", "{in}"], "signed"),
]


def _option_run(json_in, capsys, argv, value):
    path = json_in({"a": {"coords": {"1": "2", "3": "1", "5": "1"}}})
    try:
        code = main([a.replace("{in}", path).replace("{}", value) for a in argv])
    except SystemExit as exc:  # argparse refuses the option
        code = exc.code
    return code, capsys.readouterr().out


def _option_id(case):
    return case if isinstance(case, str) else f"{case[0]}{case[case.index('{}') - 1]}"


@pytest.mark.parametrize("argv, kind", OPTIONS, ids=_option_id)
def test_integer_options_read_ascii_digits(json_in, capsys, argv, kind):
    code, want = _option_run(json_in, capsys, argv, "3")
    assert code == 0 and want
    for same in (" 3 ", "03"):
        assert _option_run(json_in, capsys, argv, same) == (0, want)
    bad = ["\u0661\u0660", "1_0", "+3", "\uff12"]  # Arabic-Indic 10, fullwidth 2
    if kind == "signed":
        for value in ("0", "-7"):
            assert _option_run(json_in, capsys, argv, value)[0] in (0, 1)
    else:
        bad += ["0", "-7"]
    for value in bad:
        assert _option_run(json_in, capsys, argv, value) == (2, ""), value


@pytest.mark.parametrize("p", [0, 1, 4, 10**30])
@pytest.mark.parametrize("action", ["lenart-defect", "lenart-iso"])
def test_lenart_constructions_need_a_prime_p(json_in, capsys, action, p):
    args = ["deform", action, "--p", str(p), "--q", "3"]
    if action == "lenart-iso":
        args += ["--in", json_in({"coords": {"1": "2", "2": "5"}})]
    assert main(args) == 2
    assert f"p={p}" in capsys.readouterr().err


def test_sets_with_a_huge_element_exit_1_at_once(json_in, capsys, monkeypatch):
    # a prime this large took minutes to trial-divide before the element bound
    p = "1000000000000000003"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"a": {"coords": {"1": 1, p: 0}}})))
    path = json_in({"coords": {"1": "2", p: "5"}})
    for argv in (["eval", "--family", "classical", "--ring", "z", "--set", p, "--op", "neg",
                  "--in", "-"],
                 ["deform", "lenart-iso", "--p", p, "--q", "2", "--in", path]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 2
        assert "above 4294967296" in capsys.readouterr().err


def test_lenart_constructions_at_a_prime_p(json_in, capsys):
    code, data = run(capsys, "deform", "lenart-defect", "--p", "3", "--q", "3")
    assert code == 0 and data["defect"] is not None
    code, data = run(capsys, "deform", "lenart-defect", "--p", "1000000000000000003",
                     "--q", "2")
    assert code == 0 and data["defect"] is None
    path = json_in({"coords": {"1": "2", "3": "5"}})
    code, data = run(capsys, "deform", "lenart-iso", "--p", "3", "--q", "2", "--in", path)
    assert code == 0 and data == {"coords": {"1": "2", "3": "13"}}  # 5 + (2^2-1)/3 * 2^3


LIMITED_MAIN = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from qwitt.cli import main; sys.exit(main(sys.argv[1:]))")
P = "100000007"
P10 = "1000000007"
ONE_ZERO = {"a": {"coords": {"1": "1", P: "0"}}, "b": {"coords": {"1": "0", P: "0"}}}
ZEROS = {str(n): "0" for n in (2, 4, 8, 16, 32)}
Z248 = {str(n): "0" for n in (2, 4, 8)}
WIDE = {"a": {"coords": {"1": "2^16000000", **ZEROS}}, "b": {"coords": {"1": "0", **ZEROS}}}


def _eval(family, ring, tset, op="add"):
    return ["eval", "--family", *family.split(), "--ring", ring, "--set", tset, "--op", op]


# Commands that hung, ran out of memory or ran for minutes until a bound
# stopped them, each run in a child process held to 1 GiB of address space:
# (name, argv, input passed with --in, expected, seconds).  Expected is 1,
# an exit 1 that names the budget, or the items an exit 0 prints.
# - modulus: the factorization of m behind ``reduced``, ``units()`` walking
#   range(m), and the list of Z/m behind the enumeration of W_S(Z/m).
# - ghost-term: on {1, p} the sum of (2, 0) and (1, 1) has the coordinate
#   (2^p + p + 1 - 3^p)/p, of about 1.6*p bits, also in the ring loops'
#   Ring.pow over dual numbers and a twist of Z.
# - weight: a q-family context built its ghost weights, q^(p-1), d*Q^(p-1)
#   of lenart:Q and the sum of g^j, j < p, of qbar, with no size check;
#   qbar-q-weight: at g = q the bits of g^(p-1) passed their budget, while
#   the sum has p terms and summing them took O(p^2).
# - twist-zq-power: the estimate e * bits(1+q) of (1+q)^e, about 2e6 bits at
#   e = 1000003, left out that the power spreads over e + 1 coefficients.
# - input-bits: a_1 = 2^16000000 is within the expression budget, but its
#   term a_1^32 on the divisors of 32 takes 512M bits; over zmod the
#   coordinate is reduced as it is read.
# - subsets: ``systems verify`` walked all 2^(|S|-1) subsets of S.
# - ringlaw-compose: the law checks substitute G = (x+y+1)^60 into itself,
#   and the products of its powers had no bound on their terms.
# - split-width: a_1 = 10^100000 on {1,2,4,8} over Z[q] takes a slot width
#   of about 2.7M bits, where the mask of the one digit check took time
#   quadratic in the width (17 s; under 3 s once built by doubling).
# - z-power: Z's power was Python's unchecked ``**``, so the ghost of (3, 0)
#   on {1, p} in const:z, and the inverse of that ghost, computed 3^p.
# - lenart-shift: c = (q^(p-1) - 1)/p and a_1^p were computed unchecked, also
#   where c is 0 (q = 1, and q = -1 for odd p).
# - qpow-subst: q -> q^p spread a Z[q] element over p times its degree
#   coefficients, in the lift of 1 + 2q and in the congruences of (q, 0).
BOUNDED = [
    ("modulus-eval", _eval("classical", "zmod:100000000000000000039", "1,2", "neg"),
     {"a": {"coords": {"1": "3", "2": "1"}}},
     {"coords": {"1": "100000000000000000036", "2": "100000000000000000029"}}, 2),
    ("modulus-ringlaw", ["ringlaw", "verify", "--ring", "zmod:1000000007", "--F", "x+y",
                         "--G", "x*y"], None, {"passed": True}, 2),
    ("modulus-systems", ["systems", "verify", "--instance", "witt:zmod:1000000007:1,2",
                         "--budget", "5"], None, {"passed": True}, 2),
    *((f"ghost-term-{ring}", _eval("classical", ring, f"1,{P}"),
       {"a": {"coords": {"1": "2", P: "0"}}, "b": {"coords": {"1": "1", P: "1"}}}, 1, 2)
      for ring in ("z", "zmod:7", "zq", "dual", "twist:z:2")),
    *((f"{name}-weight-{ring}", _eval(family, ring, f"1,{P}"), ONE_ZERO, 1, seconds)
      for name, family, seconds in (("qdef", "qdef --q 3", 5), ("lenart", "lenart:3", 2),
                                    ("qbar", "qbar --q 3", 2))
      for ring in ("z", "zmod:7", "zq")),
    *((f"qbar-q-weight-{ring}", _eval("qbar:q --q 2", ring, "1,1000003"),
       {"a": {"coords": {"1": "1", "1000003": "0"}}, "b": {"coords": {"1": "0", "1000003": "0"}}},
       1, 2) for ring in ("z", "zmod:7", "zq")),
    ("twist-zq-power", _eval("classical", "twist:zq:2", "1,1000003"),
     {"a": {"coords": {"1": "1+q", "1000003": "0"}}, "b": {"coords": {"1": "0", "1000003": "0"}}},
     1, 5),
    ("input-bits-z", _eval("classical", "z", "32"), WIDE, 1, 2),
    ("input-bits-zq", _eval("classical", "zq", "32"), WIDE, 1, 2),
    ("input-bits-zmod", _eval("classical", "zmod:7", "32"), WIDE,
     {"coords": {"1": str(pow(2, 16000000, 7)), **ZEROS}}, 2),
    ("split-width-zq", _eval("qdef", "zq", "1,2,4,8"),
     {"a": {"coords": {"1": "10^100000", **Z248}}, "b": {"coords": {"1": "0", **Z248}}},
     {"coords": {"1": "1" + "0" * 100000, **Z248}}, 8),
    ("subsets-1-24", ["systems", "verify", "--instance",
                      "witt:z:" + ",".join(map(str, range(1, 25))), "--budget", "2"], None, 1, 2),
    ("subsets-720720", ["systems", "verify", "--instance", "witt:zmod:3:720720", "--budget", "2"],
     None, 1, 2),
    ("ringlaw-compose", ["ringlaw", "verify", "--ring", "z", "--F", "x+y", "--G", "(x+y+1)^60"],
     None, 1, 5),
    ("z-power-ghost", ["indwitt", "ghost", "--system", "const:z", "--set", f"1,{P10}"],
     {"a": {"coords": {"1": "3", P10: "0"}}}, 1, 2),
    ("z-power-dwork-invert", ["indwitt", "dwork-invert", "--system", "const:z",
                              "--set", f"1,{P10}"], {"ghost": {"1": "3", P10: "0"}}, 1, 2),
    ("lenart-shift-q-1", ["deform", "lenart-iso", "--p", "4294967291", "--q", "-1"],
     {"a": {"coords": {"1": "3", "4294967291": "0"}}},
     {"coords": {"1": "3", "4294967291": "0"}}, 2),
    ("lenart-shift-q1", ["deform", "lenart-iso", "--p", P10, "--q", "1"],
     {"a": {"coords": {"1": "2", P10: "0"}}}, {"coords": {"1": "2", P10: "0"}}, 2),
    ("lenart-shift-inverse", ["deform", "lenart-iso", "--inverse", "--p", P10, "--q", "2"],
     {"a": {"coords": {"1": "2", P10: "0"}}}, 1, 2),
    ("qpow-subst-lambda", ["indwitt", "lambda", "--system", "qpow", "--set", f"1,{P10}",
                           "--n", "1", "--elem", "1+2*q"], None, 1, 2),
    ("qpow-subst-dwork-test", ["indwitt", "dwork-test", "--system", "qpow", "--set", f"1,{P10}"],
     {"ghost": {"1": "q", P10: "0"}}, 1, 2),
]


@pytest.mark.parametrize("argv, data, expected, seconds",
                         [pytest.param(*row[1:], id=row[0]) for row in BOUNDED])
def test_bounded_command_exits_in_time(json_in, argv, data, expected, seconds, src_env):
    if data is not None:
        argv = [*argv, "--in", json_in(data)]
    proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv], env=src_env,
                          capture_output=True, text=True, timeout=seconds)
    assert "internal error" not in proc.stderr, proc.stderr
    if expected == 1:
        assert proc.returncode == 1 and "budget" in proc.stderr, proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert {key: out[key] for key in expected} == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--budget", "50"],
    ["polys", "--family", "classical", "--set", "1,2,3,4,5,6,7,8", "--law", "mul"],
    ["deform", "lenart-defect", "--p", "2", "--q", "2"],
], ids=["verify", "polys", "small"])
def test_a_closed_stdout_exits_1_quietly(argv, src_env):
    # the reader of stdout is gone before the first byte: a large output
    # fails as it is written, a small one at the flush after the command
    src_env.pop("PYTHONUNBUFFERED", None)  # stdout holds a buffer
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "qwitt.cli", *argv], env=src_env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr == ""


def _indexed(elems, nonzero: dict) -> dict:
    """{str(n): x_n} on ``elems``: ``nonzero``'s x_n, and "0" at every other n."""
    return {str(n): nonzero.get(n, "0") for n in elems}


def _pair(elems, a: dict, b: dict, **more) -> dict:
    return {"a": {"coords": _indexed(elems, a)}, "b": {"coords": _indexed(elems, b)}, **more}


def _alone(line: str, digest: str):
    return [(line, None)], digest


S1236, S16 = (1, 2, 3, 6), range(1, 17)
ZQ_OPS = "eval --family qdef --set 1,2,3,6 --ring zq --op"
Q2_OPS = "eval --family qdef --q 2 --set 1,2,3,6 --ring"
LOOPS = "eval --family qdef --set " + ",".join(map(str, S16)) + " --ring zq --op"
# Over zq on {1,2,3,6}, three sizes of input whose ops take slot widths 8,
# 16, 32 and 64, read inline, and 65 and 67, read by _split.
ZQ_SIZES = [
    _pair(S1236, {1: "q", 6: "-1"}, {2: "-1", 3: "1"}),
    _pair(S1236, {1: "1-q", 2: "3", 3: "q^2"}, {1: "2*q^2-5", 3: "1", 6: "q"}),
    _pair(S1236, {1: "2^9*(1-q)", 2: "q^3-300", 6: "7"}, {1: "2^9+q", 3: "-2^9*q^2", 6: "1"}),
]
# On {1,...,16}, above the kernel cap: the row loops and _split, at aligned
# widths (16 and 32 bits) and above 64 bits.
LOOP_SIZES = [
    _pair(S16, {1: "q", 2: "-1", 3: "1-q", 5: "2", 16: "q^2"}, {1: "1", 2: "q", 4: "-1", 7: "3"}),
    _pair(S16, {1: "2^9*(1-q)", 2: "q^3-300", 6: "7", 16: "q"}, {1: "2^9+q", 3: "-2^9*q^2", 12: "1"}),
]
Q2_IN = _pair(S1236, {1: "3", 2: "1", 3: "4", 6: "5"}, {1: "2", 2: "5", 6: "1"}, value="7")

# sha256 of what each row's commands print to stdout, one after another:
# (shell line, input passed with --in or None), where "a | b" runs b on what
# a prints and keeps only b's output.  Polys was recorded before monomial keys
# were packed into integers, certify-qbar before the identification derived
# alpha once on each S/m (the order of its checks is part of its bytes), and
# each eval row before a rewrite of the Witt ops or of the Z[q] kernels.
GOLDEN = {
    "polys-classical": _alone("polys --family classical --set 1,2,3,4,5,6,7,8 --law mul",
                              "8b10995a10c935a49afaeb697474a8c31fb4e209b016fda42a8e79c559a1b540"),
    "polys-qbar": _alone("polys --family qbar --set 1,2,4,8 --law mul",
                         "18e8ae07359477f7540b393c2ea5e4e0190a034c1ea94fbb4133db3a9a9bc414"),
    "polys-qdef": _alone("polys --family qdef --set 1,2,3,4,5,6 --law mul",
                         "76924d808c3bbe9263c41e78c637cce7a16f0bceec1fa5ed71a8b07473a1386d"),
    "polys-lenart:2": _alone("polys --family lenart:2 --set 1,2,3,6 --law mul",
                             "2b5e492bb6aa5d26c1cded8b5ca35a0e590201fb17fe902bf227836a34ae10fd"),
    "certify-qbar-q": _alone("deform certify-qbar --g q --set 1,2,3,6",
                             "e2fab59efec28efd7d8a840eb51ed0aea86258c32fdf60384bab8864bbf81bd1"),
    "certify-qbar-0": _alone("deform certify-qbar --g 0 --set 1,2,3,6",
                             "a694f3f9dcb0235d75dde96ea34c366cead7b95783c1ae8fc070e0080f86038c"),
    "certify-qbar-1-q": _alone("deform certify-qbar --g 1-q --set 1,2,3,6",
                               "0a5704a16e4736afaf8bfa638ddd30e5d4e01ee147d260ecbdf9e99155c0e8ff"),
    # the Z[q] kernels at an aligned slot width (32 bits, coordinates of 4 to
    # 23 digits) and at a generic one (489 bits)
    "zq-products": ([
        ("eval --family qbar --set 1,2,3,6 --ring zq --op mul",
         _pair(S1236, {1: "1-q", 2: "2*q^2", 3: "-3", 6: "q"}, {1: "q+1", 3: "q^3-1", 6: "2"})),
        ("eval --family qdef --set 1,2,4 --ring zq --op mul",
         _pair((1, 2, 4), {1: "2^60*(1-q)", 2: "q", 4: "3"}, {1: "2^60+q", 4: "-q^2"})),
    ], "9b99b54eb892b591bca3c655add7cb148ade4702de818836c104c025c4cef847"),
    "zq-ops": ([(f"{ZQ_OPS} {op}", data) for data in ZQ_SIZES
                for op in ("add", "neg", "frob:2", "frob:3", "ghost")],
               "04280a9721f34338c85798bb540d7d654c1520b220d5ab7d2266da9041dd5217"),
    # every op that builds a Witt value, over z and zmod:6 at q = 2
    "z-zmod6-ops": ([(f"{Q2_OPS} {ring} --op {op}", Q2_IN) for ring in ("z", "zmod:6")
                     for op in ("add", "mul", "neg", "frob:2", "frob:3", "ver:2", "project:1,2",
                                "teich", "ghost")]
                    + [(f"{Q2_OPS} z --op ghost | {Q2_OPS} z --op unghost", Q2_IN)],
                    "8a3f67eddcc4cd500741790f3ce0d8d1cdf94e2a7d1b2bb847307d789cc38b09"),
    "zq-loops-1-16": ([(line, data) for data in LOOP_SIZES
                       for line in (f"{LOOPS} add", f"{LOOPS} mul",
                                    f"{LOOPS} ghost | {LOOPS} unghost")],
                      "0b5a4970cab461c73b55706bf43dcf7b4a1361348f3e7dfef39c7d64f1bbdb1c"),
}


def _stdout(capsys, json_in, line: str, data) -> str:
    for command in line.split(" | "):
        argv = command.split() + ([] if data is None else ["--in", json_in(data)])
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        data = json.loads(out)
    return out


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_matches_its_golden_digest(capsys, json_in, name):
    lines, digest = GOLDEN[name]
    out = "".join(_stdout(capsys, json_in, line, data) for line, data in lines)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_polys_output_matches_its_golden_digests(src_env):
    # the slots of packed monomial keys follow the order in which a process
    # first uses each variable, so pytest's long-lived process and a fresh
    # one lay them out differently; the output must not show it
    [(line, _)], digest = GOLDEN["polys-qbar"]
    proc = subprocess.run([sys.executable, "-m", "qwitt.cli", *line.split()], env=src_env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_a_non_ghost_vector_above_the_kernel_cap_is_refused_at_3(json_in, capsys):
    # its packed division by 3 is exact at 8 bits, so that _split's check
    # must refuse it
    path = json_in({"ghost": _indexed(S16, {3: "1-q"})})
    assert main(f"{LOOPS} unghost --in {path}".split()) == 1
    assert "component 3 " in capsys.readouterr().err


def test_ci_holds_no_golden_digest():
    # golden bytes live in GOLDEN alone, where a local Tier-1 run sees them
    ci = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    assert re.findall(r"\b[0-9a-f]{64}\b", ci.read_text()) == []


def test_indexed_json_is_read_back_as_written():
    ring, tset = parse_ring("zq"), TruncationSet.make([6])
    xs = [ring.from_str(text) for text in ("1-q", "0", "q^2", "-3")]
    data = witt.indexed_to_json(xs, "ghost", tset, lambda n: ring)
    assert data == {"ghost": {"1": "-q+1", "2": "0", "3": "q^2", "6": "-3"}}
    assert witt.indexed_from_json(data, "ghost", tset, lambda n: ring) == xs


# What ``import qwitt.cli`` must not load: every command pays for its start-up,
# so the modules of one command are imported inside it, and only the disk
# cache needs hashlib.  ``dataclasses`` brings inspect, ast, dis and tokenize.
NOT_AT_START = ["dataclasses", "inspect", "hashlib", "qwitt.suites", "qwitt.systems",
                "qwitt.indwitt", "qwitt.onedim", "qwitt.qdeform"]
STARTUP = """import json, sys
start = set(sys.modules)
import qwitt
package = set(sys.modules) - start
import qwitt.cli
print(json.dumps([sorted(package), sorted(set(sys.modules) - start)]))
"""


def test_the_cli_starts_with_only_what_every_command_needs(src_env):
    # a fresh interpreter, as pytest's has imported everything; modules that
    # the interpreter itself loaded at start are not the package's doing
    proc = subprocess.run([sys.executable, "-c", STARTUP], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, cli = json.loads(proc.stdout)
    assert "qwitt.cli" in cli and "dataclasses" not in package
    assert [name for name in NOT_AT_START if name in cli] == []


# One disk store after the start-up: the builtin sha256 hashes it, and
# hashlib, with the OpenSSL that it loads, stays out.
STORE = """import json, os, sys, tempfile
start = set(sys.modules)
import qwitt.cli
from qwitt import universal
from qwitt.truncset import TruncationSet
with tempfile.TemporaryDirectory() as cache:
    universal.set_cache_dir(cache)
    universal.derive(universal.Family.classical(), TruncationSet.make([2]))
    stored = len(os.listdir(cache))
print(json.dumps([stored, sorted(set(sys.modules) - start)]))
"""


def test_a_disk_store_loads_no_openssl(src_env):
    proc = subprocess.run([sys.executable, "-c", STORE], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stored, loaded = json.loads(proc.stdout)
    assert stored == 1
    assert [name for name in ("_hashlib", "hashlib") if name in loaded] == []
