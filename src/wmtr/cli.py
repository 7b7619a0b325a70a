"""Command-line front end.

Subcommands:
  explore   trace-set statistics and observable behaviours of a client
  axioms    extract the enforced order and check the ordering laws
  check     refinement check of an implementation against a specification
  refute    run a battery of clients until one refutes
  dot       render the enforced order as graphviz input

Exit codes: 0 on success (property holds), 1 when a check fails or a
refutation is found, 2 on usage, parse, or validation errors, 3 when
the run is inconclusive (a state or burst id outgrew the field that
holds it, or the run ran out of memory), 141 (128 + SIGPIPE) when the
reader of standard output closed it early.  Input that nests blocks
more than 100 deep or has an expression of more than 200 terms is a
parse error, exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .events import event_to_record, pretty, trace_to_lines
from .memmodel import ExploreConfig, Model, enforced_order, explore
from .porder import LAW_CROSS_OP, check_axioms, order_to_lines, to_dot
from .program import ClientProgram, ObjectDef, ParseError, empty_object, parse
from .refine import check_wmtr, refute_object_refinement


def _common(sub):
    sub.add_argument("--model", required=True,
                     choices=[m.value for m in Model])
    sub.add_argument("--unroll", type=int, default=2,
                     help="loop iterations explored per activation")
    sub.add_argument("--buffer", type=int, default=4,
                     help="store buffer capacity per core")
    sub.add_argument("--values", type=int, default=3,
                     help="largest value in the data domain")
    sub.add_argument("--out", help="write the primary artifact to this file")


def _object_options(sub) -> None:
    objects = sub.add_mutually_exclusive_group()
    objects.add_argument("--spec"), objects.add_argument("--impl")


def _config(args) -> ExploreConfig:
    return ExploreConfig(model=Model(args.model), unroll=args.unroll,
                         buffer=args.buffer, values=args.values)


def _load_client(path: str) -> ClientProgram:
    with open(path) as f:
        prog = parse(f.read())
    if not isinstance(prog, ClientProgram):
        raise ValueError(f"{path} is an object definition, expected a client")
    return prog


def _load_object(path: Optional[str], kind: Optional[str] = None) -> ObjectDef:
    if path is None:
        return empty_object()
    with open(path) as f:
        obj = parse(f.read())
    if not isinstance(obj, ObjectDef):
        raise ValueError(f"{path} is a client, expected an object definition")
    if kind is not None and obj.kind != kind:
        article = "an" if obj.kind == "impl" else "a"
        raise ValueError(f"{path} is {article} {obj.kind} object, "
                         f"expected {kind}")
    return obj


def _chosen_object(args) -> ObjectDef:
    """The object of `--spec` or `--impl` (at most one is given), else
    the empty object."""
    if args.spec:
        return _load_object(args.spec, "spec")
    return _load_object(args.impl, "impl" if args.impl else None)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _observable(o) -> str:
    """An observable behaviour as `thread.var=value` words."""
    return " ".join(f"{th}.{var}={val}" for th, var, val in o)


def cmd_explore(args) -> int:
    p = _load_client(args.client)
    obj = _chosen_object(args)
    ts = explore(p, obj, _config(args))
    obs = sorted(ts.observables(), key=lambda o: (len(o), o))
    if args.format == "json":
        doc = {"model": args.model, "states": ts.states,
               "observables": [[list(t) for t in o] for o in obs]}
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"model: {args.model}", f"states: {ts.states}",
                 f"observables: {len(obs)}"]
        lines += ["  " + (_observable(o) or "(empty)") for o in obs]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_axioms(args) -> int:
    p = _load_client(args.client)
    obj = _chosen_object(args)
    po = enforced_order(p, obj, _config(args))
    report = check_axioms(po)
    for law in report.checks:
        status = "PASS" if law.holds else "FAIL"
        extra = "" if law.holds else f"  witness: {law.witness}"
        print(f"{status}  {law.name}{extra}")
    # the lemma is the cross-operation law, already in the report
    lemma = report.law(LAW_CROSS_OP).holds
    print(f"{'PASS' if lemma else 'FAIL'}  completed-responses-ordered")
    print(f"events: {len(po.universe)}  pairs: {len(po.pairs)}")
    if args.out:
        _emit(order_to_lines(po), args.out)
    return 0 if report.all_hold else 1


def cmd_check(args) -> int:
    p = _load_client(args.client)
    spec = _load_object(args.spec, "spec")
    impl = _load_object(args.impl, "impl")
    v = check_wmtr(p, spec, impl, _config(args))
    if args.format == "json":
        doc = {"verdict": v.verdict, "stats": v.stats}
        if v.counterexample:
            doc["observable"] = [list(t) for t in v.counterexample.observable]
            doc["trace"] = [event_to_record(e) for e in v.counterexample.trace]
        print(json.dumps(doc, indent=2))
    else:
        print(f"verdict: {v.verdict}")
        for k, val in v.stats.items():
            print(f"  {k}: {val}")
        if v.counterexample:
            print(f"refuting observable: "
                  f"{_observable(v.counterexample.observable)}")
            print("counterexample trace:")
            for e in v.counterexample.trace:
                print(f"  {pretty(e)}")
    if v.counterexample and args.out:
        _emit(trace_to_lines(v.counterexample.trace), args.out)
    return 0 if v.holds else 1


def cmd_refute(args) -> int:
    spec = _load_object(args.spec, "spec")
    impl = _load_object(args.impl, "impl")
    clients = [(path, _load_client(path)) for path in args.client]
    name, v = refute_object_refinement(spec, impl, clients, _config(args))
    if name is None:
        print(f"verdict: {v.verdict} for all {len(clients)} clients")
        return 0
    print(f"verdict: refuted by {name}")
    print(f"refuting observable: {_observable(v.counterexample.observable)}")
    for e in v.counterexample.trace:
        print(f"  {pretty(e)}")
    if args.out:
        _emit(trace_to_lines(v.counterexample.trace), args.out)
    return 1


def cmd_dot(args) -> int:
    p = _load_client(args.client)
    obj = _chosen_object(args)
    po = enforced_order(p, obj, _config(args))
    _emit(to_dot(po), args.out)
    return 0


@functools.cache  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wmtr",
        description="trace exploration and refinement checking for "
                    "concurrent objects under weak memory models")
    sp = ap.add_subparsers(dest="command", required=True)

    ex = sp.add_parser("explore", help="observable behaviours of a client")
    ex.add_argument("--client", required=True)
    _object_options(ex)
    ex.add_argument("--format", choices=["text", "json"], default="text")
    _common(ex)
    ex.set_defaults(fn=cmd_explore)

    axc = sp.add_parser("axioms", help="check the ordering laws of the "
                                       "extracted enforced order")
    axc.add_argument("--client", required=True)
    _object_options(axc)
    _common(axc)
    axc.set_defaults(fn=cmd_axioms)

    ck = sp.add_parser("check", help="refinement check for one client")
    ck.add_argument("--client", required=True)
    ck.add_argument("--spec", required=True)
    ck.add_argument("--impl", required=True)
    ck.add_argument("--format", choices=["text", "json"], default="text")
    _common(ck)
    ck.set_defaults(fn=cmd_check)

    rf = sp.add_parser("refute", help="search a client battery for a refutation")
    rf.add_argument("--client", action="append", required=True,
                    help="client file; may be repeated")
    rf.add_argument("--spec", required=True)
    rf.add_argument("--impl", required=True)
    _common(rf)
    rf.set_defaults(fn=cmd_refute)

    dt = sp.add_parser("dot", help="enforced order as graphviz input")
    dt.add_argument("--client", required=True)
    _object_options(dt)
    _common(dt)
    dt.set_defaults(fn=cmd_dot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush of what
        # is still buffered stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as e:
        why = "out of memory" if isinstance(e, MemoryError) else e
        print(f"inconclusive: {why}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
