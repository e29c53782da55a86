"""Command-line front door: polynomial emission, Witt arithmetic, the
deformation constructions, ring-law classification, system verification,
inductive-system operations, and the verification suites.

Standard output is pure JSON; diagnostics go to standard error.  Exit
codes: 0 on success, 1 on domain errors (failed divisions, tuples outside
a ghost image, broken congruences, failed verifications), on internal
errors, which are reported as such, and when standard output is closed
before all of it is written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import universal, witt
from .errors import BudgetExceeded, Error
from .exprs import INPUT_BITS, INPUT_BUDGET, read_int
from .rings import Z, ZQ, parse_ring
from .truncset import TruncationSet
from .universal import Family

DEFAULT_SEED = 1729


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _read_json(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read(INPUT_BUDGET + 1)
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(INPUT_BUDGET + 1)
    _check_size(text, "the input")
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("the input must be a JSON object")
    return data


def _vector_field(data: dict, field: str):
    """The input vector ``field``; a lone ``a`` may be the whole input."""
    payload = data.get(field, data if field == "a" else None)
    if payload is None:
        raise ValueError(f"input is missing the {field!r} vector")
    return payload


def _poly_payload(poly, fmt: str):
    return str(poly) if fmt == "text" else poly.to_json()


# ----------------------------------------------------------------------


def _index(op: str, tset: TruncationSet) -> int:
    """The m of ``name:m``, which must be in tset: a usage error otherwise."""
    m = read_int(op.split(":", 1)[1])
    if m not in tset:
        raise ValueError(f"{m} is not in {tset}")
    return m


def cmd_polys(args) -> int:
    family = Family.parse(args.family)
    tset = TruncationSet.parse(args.set)
    ps = universal.derive(family, tset)
    law = args.law
    if law.startswith("frob:"):
        m = _index(law, tset)
        polys = {str(v): ps.frob[m][v] for v in tset.quotient(m)}
    elif law in ("add", "mul", "neg"):
        polys = {str(n): ps.law(law)[n] for n in tset}
    else:
        raise ValueError(f"unknown law {law!r} (add, mul, neg or frob:m)")
    _emit(
        {
            "family": family.label(),
            "set": str(tset),
            "law": law,
            "polys": {k: _poly_payload(p, args.format) for k, p in polys.items()},
        }
    )
    return 0


def _input(ring, x):
    """``x``, an element read from the input; BudgetExceeded when it takes
    more bits than a literal within INPUT_BUDGET characters can, which the
    Witt ops' bound on their ghost terms assumes."""
    bits = ring.bits(x)
    if bits > INPUT_BITS:
        raise BudgetExceeded(f"an input element takes {bits} bits (budget {INPUT_BITS})")
    return x


def cmd_eval(args) -> int:
    family = Family.parse(args.family)
    tset = TruncationSet.parse(args.set)
    ring = parse_ring(args.ring)
    q = None if args.q is None else _input(ring, ring.from_str(args.q))
    op = args.op
    data = _read_json(args.infile) if args.infile else {}

    def vec(field="a", t=tset):
        a = witt.vector_from_json(family, t, ring, _vector_field(data, field), q)
        for c in a.coords:
            _input(ring, c)
        return a

    if op == "add" or op == "mul":
        a, b = vec("a"), vec("b")
        out = witt.add(a, b) if op == "add" else witt.mul(a, b)
        _emit(witt.vector_to_json(out))
    elif op == "neg":
        _emit(witt.vector_to_json(witt.neg(vec())))
    elif op.startswith("frob:"):
        m = _index(op, tset)
        _emit(witt.vector_to_json(witt.frobenius(vec(), m)))
    elif op.startswith("ver:"):
        m = _index(op, tset)
        a = vec("a", tset.quotient(m))
        _emit(witt.vector_to_json(witt.verschiebung(a, m, tset)))
    elif op.startswith("project:"):
        sub = TruncationSet.parse(op.split(":", 1)[1])
        if not sub.is_subset(tset):
            raise ValueError(f"{sub} is not a subset of {tset}")
        _emit(witt.vector_to_json(witt.project(vec(), sub)))
    elif op == "teich":
        if "value" not in data:
            raise ValueError("input is missing the 'value' field")
        value = _input(ring, ring.from_json(data["value"]))
        _emit(witt.vector_to_json(witt.teichmuller(family, tset, ring, value, q)))
    elif op == "ghost":
        gh = witt.ghost(vec())
        _emit(witt.indexed_to_json(gh, "ghost", tset, lambda n: ring))
    elif op == "unghost":
        xs = [_input(ring, x) for x in witt.indexed_from_json(data, "ghost", tset, lambda n: ring)]
        _emit(witt.vector_to_json(witt.unghost(family, tset, ring, xs, q)))
    else:
        raise ValueError(f"unknown op {op!r}")
    return 0


def cmd_deform(args) -> int:
    from . import qdeform
    if args.action == "lenart-iso":
        tset = qdeform.lenart_set(args.p)
        data = _read_json(args.infile)
        if args.inverse:
            a = witt.vector_from_json(Family.classical(), tset, Z, _vector_field(data, "a"))
            out = qdeform.lenart_iso_inverse(args.p, args.q, a)
        else:
            family = Family.lenart(args.q)
            a = witt.vector_from_json(family, tset, Z, _vector_field(data, "a"))
            out = qdeform.lenart_iso(args.p, args.q, a)
        _emit(witt.vector_to_json(out))
        return 0
    if args.action == "lenart-defect":
        w = qdeform.lenart_frobenius_defect(args.p, args.q)
        _emit({"defect": None if w is None else witt.vector_to_json(w)})
        return 0
    if args.action == "certify-qbar":
        g = ZQ.from_str(args.g)
        ident = qdeform.qbar_to_qdef_iso(g, TruncationSet.parse(args.set))
        _emit(ident.report.to_json())
        return 0
    raise ValueError(f"unknown deform action {args.action!r}")


def cmd_ringlaw(args) -> int:
    from . import onedim
    ring = parse_ring(args.ring)
    law = onedim.RingLaw1D(
        ring, onedim.parse_poly(ring, args.F), onedim.parse_poly(ring, args.G)
    )
    rep = onedim.verify_law(law, budget=args.budget, seed=args.seed)
    if args.action == "verify":
        _emit(rep.to_json())
        return 0 if rep.passed else 1
    if not rep.passed:
        print(f"law fails the axioms: {rep.failures}", file=sys.stderr)
        _emit(rep.to_json())
        return 1
    r = onedim.classify_reduced(law)
    _emit({"r": ring.to_json(r)})
    return 0


def _parse_system(text: str, setpart: str) -> systems.ProjSystem:
    from . import systems
    top = TruncationSet.parse(setpart)
    if text.startswith("witt:"):
        return systems.WittSystem(parse_ring(text.split(":", 1)[1]), top)
    if text.startswith("constv:"):
        return systems.ConstantSystem(
            parse_ring(text.split(":", 1)[1]), top, versch_scale=True
        )
    if text.startswith("const:"):
        return systems.ConstantSystem(parse_ring(text.split(":", 1)[1]), top)
    if text.startswith("lenart:"):
        return systems.WittSystem(Z, top, family=Family.parse(text))
    raise ValueError(f"unknown system instance {text!r}")


def cmd_systems(args) -> int:
    from . import systems
    if args.action == "verify":
        desc, sep, setpart = args.instance.rpartition(":")
        if not sep:
            raise ValueError(f"expected <instance>:<set>, got {args.instance!r}")
        sys_obj = _parse_system(desc, setpart)
        if sys_obj.has_versch:
            rep = systems.verify_rfv(sys_obj, budget=args.budget, seed=args.seed)
        else:
            rep = systems.verify_rf(sys_obj, budget=args.budget, seed=args.seed)
        _emit(rep.to_json())
        return 0 if rep.passed else 1
    if args.action == "auer":
        t1 = TruncationSet.parse(args.t1)
        t2 = TruncationSet.parse(args.t2)
        ring = parse_ring(args.ring)
        iso = systems.auer(t1, t2, ring)
        data = _read_json(args.infile)
        if args.backward:
            nested = witt.vector_from_json(
                Family.classical(), t1, iso.nested_ring, _vector_field(data, "a")
            )
            _emit(witt.vector_to_json(iso.backward(nested)))
        else:
            big = t1.product(t2)
            a = witt.vector_from_json(Family.classical(), big, ring, _vector_field(data, "a"))
            _emit(witt.vector_to_json(iso.forward(a)))
        return 0
    raise ValueError(f"unknown systems action {args.action!r}")


def _parse_ind_system(text: str, tset: TruncationSet) -> indwitt.IndSystem:
    from . import indwitt
    if text == "const:z":
        return indwitt.constant_system(Z, tset, identity_lift=True)
    if text == "const:zq":
        return indwitt.constant_system(ZQ, tset)
    if text == "triv:z":
        return indwitt.trivial_system(Z, tset)
    if text == "qpow":
        return indwitt.qpow_system(tset)
    if text == "chain":
        return indwitt.chain_system(tset)
    raise ValueError(f"unknown inductive system {text!r}")


def _ind_vec_json(v: indwitt.IndVector) -> dict:
    return witt.indexed_to_json(v.coords, "coords", v.system.tset, v.system.ring)


def cmd_indwitt(args) -> int:
    from . import indwitt
    tset = TruncationSet.parse(args.set)
    sys_obj = _parse_ind_system(args.system, tset)
    op = args.op
    data = _read_json(args.infile) if args.infile else {}

    def vec(field="a", system=sys_obj):
        coords = witt.indexed_from_json(_vector_field(data, field), "coords", system.tset,
                                        system.ring)
        return indwitt.make(system, coords)

    if op in ("add", "mul"):
        fn = indwitt.ind_add if op == "add" else indwitt.ind_mul
        _emit(_ind_vec_json(fn(vec("a"), vec("b"))))
    elif op == "neg":
        _emit(_ind_vec_json(indwitt.ind_neg(vec())))
    elif op == "ghost":
        _emit(witt.indexed_to_json(indwitt.ind_ghost(vec()), "ghost", tset, sys_obj.ring))
    elif op.startswith("frob:"):
        n = _index(op, tset)
        _emit(_ind_vec_json(indwitt.ind_frobenius(vec(), n)))
    elif op.startswith("ver:"):
        n = _index(op, tset)
        sub = sys_obj.restrict(tset.quotient(n))
        _emit(_ind_vec_json(indwitt.ind_verschiebung(sys_obj, vec("a", sub), n)))
    elif op == "dwork-test":
        xs = witt.indexed_from_json(data, "ghost", tset, sys_obj.ring)
        _emit({"in_image": indwitt.dwork_test(sys_obj, xs)})
    elif op == "dwork-invert":
        xs = witt.indexed_from_json(data, "ghost", tset, sys_obj.ring)
        _emit(_ind_vec_json(indwitt.dwork_invert(sys_obj, xs)))
    elif op == "lambda":
        if args.n is None or args.elem is None:
            raise ValueError("lambda needs --n and --elem")
        ring = sys_obj.ring(args.n)
        _emit(_ind_vec_json(indwitt.dwork_lift(sys_obj, args.n, ring.from_str(args.elem))))
    else:
        raise ValueError(f"unknown op {op!r}")
    return 0


def cmd_verify(args) -> int:
    from . import suites
    names = args.suite.split(",") if args.suite != "all" else "all"
    reports = suites.run_suites(names, budget=args.budget, seed=args.seed)
    payload = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload)
    return 0 if payload["passed"] else 1


# ----------------------------------------------------------------------


def _int_arg(signed: bool = False, least: int | None = None):
    """An argparse type that reads an integer as :func:`read_int` does and,
    when ``least`` is given, refuses a smaller one."""
    def integer(text: str) -> int:  # argparse names the type by this name
        n = read_int(text, signed)
        if least is not None and n < least:
            raise ValueError(f"{text!r} is below {least}")
        return n

    return integer


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qwitt",
        description="Exact arithmetic for Witt vectors over truncation sets "
        "and their deformations.",
    )
    top.add_argument(
        "--cache-dir",
        help="directory for the derived-polynomial cache (default: no disk cache)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polys", help="emit universal structure polynomials")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--law", required=True, help="add | mul | neg | frob:m")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_polys)

    p = sub.add_parser("eval", help="evaluate Witt arithmetic on JSON vectors")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--q", help="q binding for deformed families (element expression)")
    p.add_argument(
        "--op",
        required=True,
        help="add | mul | neg | frob:m | ver:m | teich | ghost | unghost | project:S",
    )
    p.add_argument("--in", dest="infile", help="input JSON file ('-' for stdin)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("deform", help="deformation-specific constructions")
    dsub = p.add_subparsers(dest="action", required=True)
    d = dsub.add_parser("lenart-iso")
    d.add_argument("--p", type=_int_arg(), required=True)
    d.add_argument("--q", type=_int_arg(signed=True), required=True)
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--inverse", action="store_true")
    d.set_defaults(fn=cmd_deform)
    d = dsub.add_parser("lenart-defect")
    d.add_argument("--p", type=_int_arg(), required=True)
    d.add_argument("--q", type=_int_arg(signed=True), required=True)
    d.set_defaults(fn=cmd_deform)
    d = dsub.add_parser("certify-qbar")
    d.add_argument("--g", required=True)
    d.add_argument("--set", required=True)
    d.set_defaults(fn=cmd_deform)

    p = sub.add_parser("ringlaw", help="one-dimensional ring laws")
    rsub = p.add_subparsers(dest="action", required=True)
    for action in ("classify", "verify"):
        r = rsub.add_parser(action)
        r.add_argument("--ring", required=True)
        r.add_argument("--F", required=True)
        r.add_argument("--G", required=True)
        r.add_argument("--budget", type=_int_arg(least=1), default=64)
        r.add_argument("--seed", type=_int_arg(signed=True), default=DEFAULT_SEED)
        r.set_defaults(fn=cmd_ringlaw)

    p = sub.add_parser("systems", help="projective systems with lifts")
    ssub = p.add_subparsers(dest="action", required=True)
    s = ssub.add_parser("verify")
    s.add_argument("--instance", required=True,
                   help="witt:RING:SET | const:RING:SET | constv:RING:SET | lenart:Q:SET")
    s.add_argument("--budget", type=_int_arg(least=1), default=200)
    s.add_argument("--seed", type=_int_arg(signed=True), default=DEFAULT_SEED)
    s.set_defaults(fn=cmd_systems)
    s = ssub.add_parser("auer")
    s.add_argument("--t1", required=True)
    s.add_argument("--t2", required=True)
    s.add_argument("--ring", required=True)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--backward", action="store_true")
    s.set_defaults(fn=cmd_systems)

    p = sub.add_parser("indwitt", help="Witt vectors of inductive systems")
    p.add_argument("op", help="ghost | add | mul | neg | frob:n | ver:n | "
                             "dwork-test | dwork-invert | lambda")
    p.add_argument("--system", required=True,
                   help="const:z | const:zq | triv:z | qpow | chain")
    p.add_argument("--set", required=True)
    p.add_argument("--in", dest="infile")
    p.add_argument("--n", type=_int_arg())
    p.add_argument("--elem")
    p.set_defaults(fn=cmd_indwitt)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--budget", type=_int_arg(least=1), default=200)
    p.add_argument("--seed", type=_int_arg(signed=True), default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_verify)

    return top


def _check_size(text: str, what: str) -> None:
    if len(text) > INPUT_BUDGET:
        raise BudgetExceeded(f"{what} is longer than {INPUT_BUDGET} characters")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    universal.set_cache_dir(args.cache_dir)
    # results may have integers of any length; inputs are held to INPUT_BUDGET
    # (a Python without the conversion limit has neither function)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        for arg in sys.argv[1:] if argv is None else argv:
            _check_size(arg, "an argument")
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (``| head``): the output cannot be
        # written, and the interpreter's flush at exit must not try again
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except OSError:  # a stdout with no file descriptor
            pass
        return 1
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in qwitt itself, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        set_limit(digits)


if __name__ == "__main__":
    sys.exit(main())
