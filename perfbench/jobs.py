"""The four workloads: how their inputs are generated, how a job runs
through polyhom, and how its report is checked.

A job starts from JSON text and ends with report text.  It makes the
calls the matching `polyhom` subcommand makes (see polyhom/cli.py) and
writes one canonical JSON line per subcommand, as the CLI would print
it.  `verify_action` and `check_horn_filling` have no subcommand and are
called directly.  Every polyhom function is looked up on its module at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass

import oracle

# The faulty input that ROADMAP item 4 names: one Q-tuple dropped over
# {1, 2, 3}.  It does not depend on the workload seed, so the two
# operations that get it wrong (F1, F2) fail in every round of every run.
F_INPUT = {"orders": (4,), "vertices": 4, "arity": 2, "union": (1, 2, 3), "scramble": 7}

MODULES = ("algebra", "binding", "cli", "faults", "hurewicz", "polygroupoid", "tower")


class Polyhom:
    """polyhom's modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "polyhom" or m.startswith("polyhom.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"polyhom.{name}"))


@dataclass
class Job:
    name: str
    kind: str
    text: str
    orders: tuple | None = None  # cyclic orders of the group a standard input is built from
    fault: str | None = None  # F1/F2: polyhom is known to get this one wrong


class Generator:
    """Builds a workload's inputs the way `polyhom gen`, `scramble` and
    the planted-fault helpers do, timing the calls into polyhom."""

    def __init__(self, P, seed):
        self.P = P
        self.rng = random.Random(seed)
        self.polyhom_s = 0.0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.polyhom_s += time.perf_counter() - t0

    def next_seed(self):
        return self.rng.randrange(2**31)

    def instance(self, orders, vertices, arity, fault=None, scramble_seed=None):
        """gen | [plant a fault] | scramble, through JSON text."""
        P = self.P
        group = self.call(P.algebra.abelian_group, *orders)
        h = self.call(P.polygroupoid.standard, group, range(vertices), arity)
        if fault is not None:
            h = self.call(fault, h)
        text = P.cli._dump(h.to_json_dict())
        parsed = P.polygroupoid.from_json_dict(json.loads(text))
        seed = self.next_seed() if scramble_seed is None else scramble_seed
        return P.cli._dump(self.call(P.polygroupoid.scramble, parsed, seed).to_json_dict())

    def with_action(self, text, tamper=False):
        """Instance text plus the action extract finds on it, optionally
        tampered, for the verify_action jobs."""
        P = self.P
        h = P.polygroupoid.from_json_dict(json.loads(text))
        _, act = self.call(P.binding.extract, h, h.top_configs[0])
        if tamper:
            act = self.call(P.faults.tamper_action, act)
        return P.cli._dump({"instance": json.loads(text), "action": act.to_json_dict()})

    def tower(self, orders, vertices, tamper=False):
        """cyclic_chain_tower with every node's top fibers relabelled by a
        seeded bijection, so that no element id encodes its coordinates."""
        P = self.P
        pt, _, _ = self.call(P.tower.cyclic_chain_tower, list(orders), range(vertices), 2)
        d = relabel_tower(P.tower.poly_tower_to_json_dict(pt), random.Random(self.next_seed()))
        if tamper:
            t = P.tower.poly_tower_from_json_dict(d)
            d = P.tower.poly_tower_to_json_dict(self.call(P.faults.tamper_rho, t))
        return P.cli._dump(d)


def relabel_tower(d, rng):
    mapping = {}
    for u in sorted(d["nodes"]):
        inst = d["nodes"][u]
        m = mapping[u] = {}
        for key in sorted(inst["fibers"]):
            if len(key.split(",")) != inst["arity"]:
                continue
            elems = inst["fibers"][key]
            perm = list(range(len(elems)))
            rng.shuffle(perm)
            for new, old in enumerate(perm):
                m[elems[old]] = f"z:{key}:{new}"
            inst["fibers"][key] = sorted(m[w] for w in elems)
        inst["pi"] = {m.get(w, w): t for w, t in inst["pi"].items()}
        inst["Q"] = sorted([m[w] for w in t] for t in inst["Q"])
    d["rho"] = {
        edge: {mapping[edge.split(",")[1]][x]: mapping[edge.split(",")[0]][y] for x, y in rho.items()}
        for edge, rho in d["rho"].items()
    }
    return d


def _cls(orders, vertices, arity):
    return f"n{arity}-Z{'x'.join(map(str, orders))}-V{vertices}"


def build(workload, seed, P):
    """(jobs of one round, seconds spent inside polyhom's generators)."""
    gen = Generator(P, seed)
    jobs = WORKLOADS[workload](gen)
    return interleave(jobs), gen.polyhom_s


def interleave(jobs):
    """Spread the copies of each job name evenly over the round, so that
    the like-sized jobs that set the median run at different moments
    rather than back to back."""
    groups = {}
    for job in jobs:
        groups.setdefault(job.name, []).append(job)
    keyed = [((i + 0.5) / len(js), g, job)
             for g, js in enumerate(groups.values()) for i, job in enumerate(js)]
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


def _standard_jobs(gen, kind, classes):
    jobs = []
    for (arity, orders, vertices), copies in classes:
        for _ in range(copies):
            text = gen.instance(orders, vertices, arity)
            jobs.append(Job(f"{kind}:{_cls(orders, vertices, arity)}", kind, text, orders))
    return jobs


def build_verify(gen):
    return _standard_jobs(gen, "verify", [
        ((2, (4,), 5), 2),
        ((3, (3,), 5), 3),
        ((2, (2, 4), 5), 1),
        ((2, (8,), 5), 1),
    ])


def build_extract(gen):
    jobs = _standard_jobs(gen, "extract", [
        ((2, (16,), 5), 2),
        ((2, (4, 4), 5), 2),
        ((2, (12,), 5), 2),
    ])
    for orders, vertices in [((32, 16), 4), ((16, 8, 4, 2), 5)]:
        jobs.append(Job(f"tower-limit:Z{'>'.join(map(str, orders))}-V{vertices}", "tower-limit",
                        gen.tower(orders, vertices), orders))
    return jobs


def build_verdict(gen):
    return _standard_jobs(gen, "verdict", [
        ((2, (3,), 4), 2),
        ((2, (4,), 4), 2),
        ((2, (2, 2), 4), 2),
        ((2, (8,), 4), 1),
        ((3, (2,), 5), 1),
        ((3, (3,), 5), 1),
    ])


def build_faults(gen):
    """The middle of the job-time distribution is `check` on six
    duplicate_horn instances, whose work hardly depends on where the
    scramble puts the witness; nine cheaper and eight dearer jobs sit
    on either side."""
    F = gen.P.faults
    jobs = []

    def add(kind, name, text, fault=None):
        jobs.append(Job(f"{kind}:{name}", kind, text, None, fault))

    # Grids over the shifted subset come early or late in the scan
    # over (n+2)-subsets; every other grid passes in full.
    for orders, copies in (((4,), 3), ((8,), 1)):
        for union, where in [((0, 1, 2), "early"), ((2, 3, 4), "late")]:
            for _ in range(copies):
                text = gen.instance(orders, 5, 2, lambda h, u=union: F.shift_q(h, unions=[u]))
                add("associativity", f"shift_q-{where}-Z{orders[0]}", text)
    for _ in range(6):
        add("check", "duplicate_horn", gen.instance((16,), 5, 2, F.duplicate_horn))
    add("check", "rewire_pi", gen.instance((16,), 5, 2, F.rewire_pi))
    add("horn-filling", "duplicate_horn", gen.instance((16,), 5, 2, F.duplicate_horn))
    add("verify-action", "tamper_action", gen.with_action(gen.instance((8,), 5, 2), tamper=True))
    add("tower-check", "tamper_rho-Z16>8>4>2", gen.tower((16, 8, 4, 2), 5, tamper=True))
    add("tower-check", "tamper_rho-Z32>16", gen.tower((32, 16), 4, tamper=True))

    f = F_INPUT
    dropped = gen.instance(f["orders"], f["vertices"], f["arity"],
                           lambda h: F.drop_q_tuple(h, union=f["union"]), scramble_seed=f["scramble"])
    add("check", "drop_q_tuple", dropped, "F1")
    add("extract", "drop_q_tuple", dropped, "F2")
    add("horn-filling", "drop_q_tuple", dropped)
    add("verify-action", "drop_q_tuple", gen.with_action(dropped))
    return jobs


WORKLOADS = {"verify": build_verify, "extract": build_extract, "verdict": build_verdict, "faults": build_faults}


# --- running a job -----------------------------------------------------


def parse_instance(P, text):
    return P.cli.from_json_dict(json.loads(text))


def parse_tower(P, text):
    return P.tower.poly_tower_from_json_dict(json.loads(text))


def parse_with_action(P, text):
    d = json.loads(text)
    return P.cli.from_json_dict(d["instance"]), P.binding.action_table_from_json_dict(d["action"])


def cmd_check(P, h):
    return {"command": "check", **P.cli.check_axioms(h).to_json_dict()}


def cmd_associativity(P, h):
    return {"command": "associativity", **P.cli.check_all_associativity(h).to_json_dict()}


def cmd_horn_filling(P, h):
    return {"command": "horn-filling", **P.polygroupoid.check_horn_filling(h).to_json_dict()}


def cmd_verify_action(P, h, act):
    return {"command": "verify-action", **P.binding.verify_action(h, act).to_json_dict()}


def cmd_extract(P, h):
    """As polyhom.cli.cmd_extract; also hands back the action for
    verify_action."""
    pre = P.cli.check_axioms(h)
    if not pre.passed:
        return {"command": "extract", "precondition": pre.to_json_dict()}, None
    try:
        _, act = P.cli.extract(h, h.top_configs[0])
    except P.binding.ExtractionError as exc:
        return {"command": "extract", "passed": False, "stage": exc.stage, "witness": exc.witness}, None
    return {"command": "extract", "passed": True, **act.to_json_dict()}, act


def cmd_verdict(P, h):
    pre = P.cli.check_axioms(h)
    if not pre.passed:
        return {"command": "verdict", "precondition": pre.to_json_dict()}
    return P.cli.verdict(h, seed=0).to_json_dict()


def cmd_tower_check(P, t):
    return {"command": "tower-check", **P.cli.check_tower(t).to_json_dict()}


def cmd_tower_limit(P, t):
    pre = P.cli.check_tower(t)
    if not pre.passed:
        return {"command": "tower-limit", "precondition": pre.to_json_dict()}
    try:
        acts = {u: P.cli.extract(t.nodes[u], t.nodes[u].top_configs[0])[1] for u in t.poset.nodes}
        limit, projections = P.cli.inverse_limit(P.cli.group_tower_from_poly(t, acts))
    except (P.binding.ExtractionError, P.tower.TowerError) as exc:
        return {"command": "tower-limit", "passed": False, "error": str(exc)}
    return {
        "command": "tower-limit",
        "passed": True,
        "group": {"invariant_factors": list(limit.invariant_factors), "free_rank": limit.free_rank},
        "projections": {u: [list(row) for row in hom.matrix] for u, hom in sorted(projections.items())},
    }


def payloads(P, job):
    """The report payloads of one job, in the order the CLI would print
    them."""
    kind = job.kind
    if kind == "verify":
        h = parse_instance(P, job.text)
        out = [cmd_check(P, h), cmd_associativity(P, h), cmd_horn_filling(P, h)]
        extracted, act = cmd_extract(P, h)
        out.append(extracted)
        if act is not None:
            out.append(cmd_verify_action(P, h, act))
        return out
    if kind == "verify-action":
        return [cmd_verify_action(P, *parse_with_action(P, job.text))]
    if kind in ("tower-check", "tower-limit"):
        t = parse_tower(P, job.text)
        return [cmd_tower_check(P, t) if kind == "tower-check" else cmd_tower_limit(P, t)]
    h = parse_instance(P, job.text)
    if kind == "extract":
        return [cmd_extract(P, h)[0]]
    return [{"check": cmd_check, "associativity": cmd_associativity,
             "horn-filling": cmd_horn_filling, "verdict": cmd_verdict}[kind](P, h)]


def run(P, job):
    """Report text of one job: one canonical JSON line per subcommand."""
    return "".join(P.cli._dump(p) for p in payloads(P, job))


# --- checking a report -------------------------------------------------


def check(job, report, rng):
    """Errors found by the independent computations in oracle.py."""
    lines = [json.loads(line) for line in report.splitlines()]
    kind = job.kind
    if kind in ("tower-check", "tower-limit"):
        return _check_tower(job, lines[0], json.loads(job.text))
    if kind == "verify-action":
        d = json.loads(job.text)
        inst, act = oracle.Instance(d["instance"]), oracle.Action(d["action"])
        return oracle.action_witness_errors(inst, act, lines[0])
    inst = oracle.Instance(json.loads(job.text))
    truth = oracle.polygroupoid_errors(inst)
    errors = []
    if job.orders:
        errors += oracle.q_count_errors(inst, job.orders)
    for payload in lines:
        errors += _check_payload(job, inst, truth, payload, rng)
    return errors


def _check_payload(job, inst, truth, payload, rng):
    command = payload.get("command")
    orders = job.orders
    if "precondition" in payload or command in ("check", "associativity", "horn-filling"):
        report = payload.get("precondition", payload)
        if not report["passed"]:
            return oracle.instance_witness_errors(inst, report)
        if command == "associativity":  # the oracle has no grid search of its own
            return [] if orders is not None else ["a planted associativity fault was accepted"]
        return truth
    if command is None:  # verdict
        if not all(s["passed"] for s in payload["stages"].values()) or not payload["isomorphic"]:
            return [f"verdict failed: {payload['stages']}"]
        return oracle.group_errors(payload["group"], orders) + oracle.group_errors(
            payload["pocket_group"], orders, "pocket group")
    if command == "extract":
        if not payload["passed"]:
            return [f"extract rejected the input: {payload}"] if not truth else []
        act = oracle.Action(payload)
        errors = oracle.action_shape_errors(inst, act) + oracle.q_law_errors(inst, act, rng)
        if orders is not None:
            errors += oracle.group_errors(payload["group"], orders)
        return errors
    if command == "verify-action":
        return [] if payload["passed"] else [f"verify_action rejected a standard instance: {payload}"]
    return [f"unexpected payload {command!r}"]


def _check_tower(job, payload, tower):
    if "precondition" in payload or payload["command"] == "tower-check":
        report = payload.get("precondition", payload)
        if job.orders is None:
            return oracle.tower_witness_errors(tower, report)
        return [] if report["passed"] else [f"tower check failed: {report}"]
    orders = job.orders
    errors = oracle.group_errors(payload.get("group"), [max(orders)], "limit")
    # node t_i carries Z/orders[i]; its projection from the limit must be onto
    for u, matrix in payload.get("projections", {}).items():
        d = orders[int(u[1:])]
        if d > 1 and not any(math.gcd(x, d) == 1 for row in matrix for x in row):
            errors.append(f"projection onto {u} is not surjective")
    return errors


def planted(job_list, reports, rng):
    """(label, errors) for wrong expectations planted into the checks of
    the first job of each name.  Every one must come back with errors."""
    out = []
    seen = set()
    law_planted = horn_planted = False
    for job, report in zip(job_list, reports):
        if report is None or job.name in seen or job.fault:
            continue
        seen.add(job.name)
        lines = [json.loads(line) for line in report.splitlines()]
        d = json.loads(job.text)
        if job.orders:
            wrong = Job(job.name, job.kind, job.text, (2 * job.orders[0],) + job.orders[1:])
            out.append((f"{job.name}: group of twice the order", check(wrong, report, rng)))
        elif job.kind == "tower-check":
            bad = oracle.planted_report(lines[0], d)
            out.append((f"{job.name}: false witness", oracle.tower_witness_errors(d, bad)))
        elif job.kind == "verify-action":
            inst, act = oracle.Instance(d["instance"]), oracle.Action(d["action"])
            bad = oracle.planted_report(lines[0], inst, act)
            out.append((f"{job.name}: false witness", oracle.action_witness_errors(inst, act, bad)))
        else:
            inst = oracle.Instance(d)
            bad = oracle.planted_report(lines[0], inst)
            out.append((f"{job.name}: false witness", oracle.instance_witness_errors(inst, bad)))
        if "Q" not in d:
            continue
        if not horn_planted and not oracle.polygroupoid_errors(oracle.Instance(d)):
            inst = oracle.Instance(d)
            horn_planted = True
            inst.q.discard(min(inst.q))
            out.append((f"{job.name}: one Q-tuple dropped", oracle.polygroupoid_errors(inst)))
        extracted = [p for p in lines if p.get("command") == "extract" and p.get("passed")]
        if extracted and not law_planted:
            law_planted = True
            act = oracle.Action(extracted[0])
            inst = oracle.Instance(d)
            # on one element per fiber, so that no automorphism of the
            # group can absorb the swap
            for ws in act.table.values():
                orbit = ws[min(ws)]
                a, b = sorted(orbit)[:2]
                orbit[a], orbit[b] = orbit[b], orbit[a]
            out.append((f"{job.name}: two twists swapped on one element per fiber",
                        oracle.q_law_errors(inst, act, rng)))
    return out
