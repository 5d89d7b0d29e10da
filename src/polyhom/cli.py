"""Command-line front end.

JSON is the only interchange format; the text format is derived from
the same report dictionaries and never parsed back.  Exit codes: 0 for
pass/success, 1 for a verification failure (the report carries a
machine-checkable counterexample), 2 for usage, IO, or parse errors.

Input schemas: polygroupoid instances and towers as produced by gen
and the tower module; homology takes {"d_n": [[...]], "d_np1": [[...]]}
with integer row-major matrices.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .algebra import BoundaryCompositionError, IntMatrix, abelian_group, homology
from .binding import ExtractionError, action_law_witness, base_config, extract
from .hurewicz import verdict
from .polygroupoid import (
    AxiomCheck,
    AxiomReport,
    EmptyFiberError,
    check_all_associativity,
    check_axioms,
    from_json_dict,
    scramble,
    standard,
)
from .tower import (
    TowerError,
    check_tower,
    cyclic_chain_tower,
    group_tower_from_poly,
    inverse_limit,
    poly_tower_from_json_dict,
)


class UsageError(Exception):
    pass


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, payload, text_lines=None):
    if getattr(args, "format", "json") == "text":
        lines = text_lines if text_lines is not None else [_dump(payload).rstrip("\n")]
        out = "\n".join(lines) + "\n"
    else:
        out = _dump(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_instance(args):
    if not args.infile:
        raise UsageError("--in is required for this command")
    try:
        return from_json_dict(_read_json(args.infile))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"not a polygroupoid instance: {exc}") from exc


def _parse_group(spec):
    try:
        orders = [int(x) for x in spec.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad group spec {spec!r}") from exc
    if not orders or any(d < 1 for d in orders):
        raise UsageError(f"bad group spec {spec!r}: need positive cyclic orders")
    return abelian_group(*orders)


def _report_lines(report_dict):
    lines = []
    for check in report_dict.get("checks", []):
        mark = "ok" if check["passed"] else "FAIL"
        lines.append(f"{mark:4} {check['axiom']}")
        if not check["passed"] and check["witness"] is not None:
            lines.append(f"     witness: {json.dumps(check['witness'], sort_keys=True)}")
    lines.append("PASS" if report_dict["passed"] else "FAIL")
    return lines


def cmd_gen(args):
    group = _parse_group(args.group)
    h = standard(group, range(args.vertices), args.arity)
    _emit(args, h.to_json_dict(), [f"standard instance: arity {args.arity}, {group}, {args.vertices} vertices"])
    return 0


def cmd_scramble(args):
    h = _load_instance(args)
    s = scramble(h, args.seed)
    _emit(args, s.to_json_dict(), [f"scrambled with seed {args.seed}"])
    return 0


def cmd_check(args):
    h = _load_instance(args)
    report = check_axioms(h).to_json_dict()
    _emit(args, {"command": "check", **report}, _report_lines(report))
    return 0 if report["passed"] else 1


def cmd_associativity(args):
    h = _load_instance(args)
    try:
        report = check_all_associativity(h).to_json_dict()
    except EmptyFiberError as exc:
        # the scan stops at the first (n+2)-subset with an empty cell
        # fiber, which is the first one containing that fiber's config
        subset = next(
            c
            for c in itertools.combinations(h.vertices, h.arity + 2)
            if set(exc.config) <= set(c)
        )
        check = AxiomCheck(
            f"associativity@{','.join(map(str, subset))}",
            False,
            {"empty_fiber": list(exc.config)},
        )
        report = AxiomReport((check,)).to_json_dict()
    _emit(args, {"command": "associativity", **report}, _report_lines(report))
    return 0 if report["passed"] else 1


def cmd_extract(args):
    h = _load_instance(args)
    pre = check_axioms(h)
    if not pre.passed:
        report = pre.to_json_dict()
        _emit(args, {"command": "extract", "precondition": report}, _report_lines(report))
        return 1
    try:
        group, act = extract(h, base_config(h))
    except ExtractionError as exc:
        payload = {"command": "extract", "passed": False, "stage": exc.stage, "witness": exc.witness}
        _emit(args, payload, [f"FAIL extraction at {exc.stage}", json.dumps(exc.witness)])
        return 1
    # The extracted action is only the binding group's if it obeys the
    # action law; an input can yield a table that does not.
    witness = action_law_witness(h, act)
    if witness is not None:
        payload = {"command": "extract", "passed": False, "stage": "action-law", "witness": witness}
        _emit(args, payload, ["FAIL extraction at action-law", json.dumps(witness)])
        return 1
    payload = {"command": "extract", "passed": True, **act.to_json_dict()}
    _emit(args, payload, [f"binding group: {group}"])
    return 0


def cmd_verdict(args):
    h = _load_instance(args)
    pre = check_axioms(h)
    if not pre.passed:
        report = pre.to_json_dict()
        _emit(args, {"command": "verdict", "precondition": report}, _report_lines(report))
        return 1
    report = verdict(h)
    payload = report.to_json_dict()
    lines = [
        f"{'ok' if v['passed'] else 'FAIL':4} {k}" for k, v in payload["stages"].items()
    ]
    if report.group is not None:
        lines.append(f"group: {report.group}")
    if report.pocket_group is not None:
        lines.append(f"pocket_group: {report.pocket_group}")
    lines.append("isomorphic" if payload["isomorphic"] else "NOT isomorphic")
    lines.append("PASS" if report.passed else "FAIL")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def cmd_homology(args):
    data = _read_json(args.infile) if args.infile else None
    if data is None or "d_n" not in data or "d_np1" not in data:
        raise UsageError('homology needs --in JSON with "d_n" and "d_np1" matrices')
    try:
        d_n = IntMatrix.from_rows(data["d_n"]) if data["d_n"] else IntMatrix.zeros(0, 0)
        rows_np1 = data["d_np1"]
        if rows_np1:
            d_np1 = IntMatrix.from_rows(rows_np1)
        else:
            d_np1 = IntMatrix.zeros(d_n.cols, 0)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad matrix data: {exc}") from exc
    try:
        group = homology(d_n, d_np1)
    except BoundaryCompositionError as exc:
        payload = {"command": "homology", "passed": False, "violating_column": exc.column}
        _emit(args, payload, [f"FAIL composition is nonzero at column {exc.column}"])
        return 1
    payload = {
        "command": "homology",
        "passed": True,
        "group": {"invariant_factors": list(group.invariant_factors), "free_rank": group.free_rank},
    }
    _emit(args, payload, [f"homology: {group}"])
    return 0


def _load_tower(args):
    if args.infile:
        try:
            return poly_tower_from_json_dict(_read_json(args.infile))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"not a tower: {exc}") from exc
    if args.group:
        orders = [int(x) for x in args.group.split(",")]
        try:
            tower, _, _ = cyclic_chain_tower(orders, range(args.vertices), args.arity)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return tower
    raise UsageError("tower commands need --in or --group")


def cmd_tower_check(args):
    tower = _load_tower(args)
    report = check_tower(tower).to_json_dict()
    _emit(args, {"command": "tower-check", **report}, _report_lines(report))
    return 0 if report["passed"] else 1


def cmd_tower_limit(args):
    tower = _load_tower(args)
    pre = check_tower(tower)
    if not pre.passed:
        report = pre.to_json_dict()
        _emit(args, {"command": "tower-limit", "precondition": report}, _report_lines(report))
        return 1
    acts = {}
    for u in tower.poset.nodes:
        h = tower.nodes[u]
        try:
            acts[u] = extract(h, base_config(h))[1]
        except ExtractionError as exc:
            stage, witness = exc.stage, exc.witness
        else:
            stage, witness = "action-law", action_law_witness(h, acts[u])
        if witness is not None:
            payload = {"command": "tower-limit", "passed": False, "stage": stage, "node": u, "witness": witness}
            _emit(args, payload, [f"FAIL extraction at {stage} on node {u}", json.dumps(witness)])
            return 1
    try:
        limit, projections = inverse_limit(group_tower_from_poly(tower, acts))
    except TowerError as exc:
        payload = {"command": "tower-limit", "passed": False, "stage": exc.stage, "witness": exc.witness}
        _emit(args, payload, [f"FAIL at {exc.stage}", json.dumps(exc.witness)])
        return 1
    payload = {
        "command": "tower-limit",
        "passed": True,
        "group": {"invariant_factors": list(limit.invariant_factors), "free_rank": limit.free_rank},
        "projections": {
            u: [list(row) for row in hom.matrix] for u, hom in sorted(projections.items())
        },
    }
    _emit(args, payload, [f"inverse limit: {limit}"])
    return 0


def cmd_selftest(args):
    from . import selftest

    results = selftest.run_selftest(quick=args.quick, inject_fault=args.inject_fault)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} criterion {r.criterion} ({r.name}) [{r.seconds:.2f}s] {r.detail}"
        for r in results
    ]
    payload = {
        "command": "selftest",
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    _emit(args, payload, lines)
    return 0 if payload["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyhom",
        description="Finite polygroupoids, binding groups, homology, and towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, infile=False, gen=False, seed=False):
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if infile:
            p.add_argument("--in", dest="infile", default=None, help="input JSON path")
        if gen:
            p.add_argument("--arity", type=int, default=2)
            p.add_argument("--group", default="2", help="comma-separated cyclic orders")
            p.add_argument("--vertices", type=int, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate a standard instance")
    common(p, gen=True, seed=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("scramble", help="relabel the top fibers of an instance")
    common(p, infile=True, seed=True)
    p.set_defaults(fn=cmd_scramble)

    p = sub.add_parser("check", help="verify the quasigroupoid axioms")
    common(p, infile=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("associativity", help="verify the grid law over every vertex subset")
    common(p, infile=True)
    p.set_defaults(fn=cmd_associativity)

    p = sub.add_parser("extract", help="recover the binding group and action")
    common(p, infile=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("verdict", help="run the five-stage homology comparison")
    common(p, infile=True)
    p.set_defaults(fn=cmd_verdict)

    p = sub.add_parser("homology", help="homology of a pair of integer boundary maps")
    common(p, infile=True)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("tower-check", help="verify a tower of instances")
    common(p, infile=True, gen=True)
    p.set_defaults(fn=cmd_tower_check)

    p = sub.add_parser("tower-limit", help="inverse limit of the induced group tower")
    common(p, infile=True, gen=True)
    p.set_defaults(fn=cmd_tower_limit)

    p = sub.add_parser("selftest", help="run the acceptance sweep at small sizes")
    common(p)
    p.add_argument("--quick", action="store_true", help="smaller grid, well under a minute")
    p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "vertices", None) is None and hasattr(args, "vertices"):
        args.vertices = args.arity + 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
