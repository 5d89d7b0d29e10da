"""Checks of polyhom's reports that share no code with polyhom.

Everything here works on the JSON texts: the instance a job read and
the report it wrote.  Group arithmetic is plain modular arithmetic on
coordinate lists, compatibility and horn counts are recomputed from the
definitions, and invariant factors come from prime-power bookkeeping,
so a fault in polyhom cannot hide behind the same fault here.

Every check returns a list of error strings; an empty list means the
report agrees with the independent computation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


def invariant_factors(orders):
    """Invariant factors of the direct sum of Z/d over the given orders,
    ascending, unit factors dropped."""
    powers = {}
    for d in orders:
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = []
    for k in range(width):
        f = 1
        for qs in powers.values():
            qs = sorted(qs, reverse=True)
            if k < len(qs):
                f *= qs[k]
        factors.append(f)
    return sorted(f for f in factors if f > 1)


def _key(config):
    return ",".join(str(v) for v in config)


class Instance:
    """An instance read back from its JSON dict."""

    def __init__(self, d):
        self.n = d["arity"]
        self.vertices = sorted(d["vertices"])
        self.fibers = {tuple(int(v) for v in k.split(",")): list(ws) for k, ws in d["fibers"].items()}
        self.config_of = {w: c for c, ws in self.fibers.items() for w in ws}
        self.pi = {w: list(t) for w, t in d["pi"].items()}
        self.q = {tuple(t) for t in d["Q"]}

    def config(self, x):
        return (x,) if isinstance(x, int) else self.config_of[x]

    def compatible(self, ws, gap=None):
        """pi_a(w_b) = pi_{b-1}(w_a) for every slot pair a < b (0-based),
        skipping the gap; distinctness for vertices."""
        for a, b in itertools.combinations(range(len(ws)), 2):
            if gap in (a, b):
                continue
            x, y = ws[a], ws[b]
            if isinstance(x, int) or isinstance(y, int):
                if x == y:
                    return False
            elif self.pi[y][a] != self.pi[x][b - 1]:
                return False
        return True

    def faces(self, big):
        return [tuple(v for v in big if v != big[j]) for j in range(len(big))]

    def horn_index(self):
        index = Counter()
        for t in self.q:
            for s in range(len(t)):
                index[(s, t[:s] + t[s + 1 :])] += 1
        return index


def polygroupoid_errors(inst: Instance):
    """Coherence, Q-compatibility, and exactly one filler for every
    partially compatible horn: what passing `check` should mean."""
    for w, c in sorted(inst.config_of.items()):
        below = [inst.config(x) for x in inst.pi[w]]
        if below != inst.faces(c):
            return [f"pi({w}) sits over {below}, not the faces of {c}"]
        if len(c) > 2 and not inst.compatible(inst.pi[w]):
            return [f"pi({w}) is not compatible"]
    for t in sorted(inst.q):
        if not inst.compatible(t):
            return [f"Q-tuple {t} is not compatible"]
    index = inst.horn_index()
    for big in itertools.combinations(inst.vertices, inst.n + 1):
        fibs = [inst.fibers.get(f, []) for f in inst.faces(big)]
        if any(not f for f in fibs):
            return [f"empty fiber over a face of {big}"]
        for gap in range(inst.n + 1):
            for pick in itertools.product(*(f for j, f in enumerate(fibs) if j != gap)):
                ws = list(pick[:gap]) + [None] + list(pick[gap:])
                if inst.compatible(ws, gap) and index[(gap, pick)] != 1:
                    return [f"horn {ws} has {index[(gap, pick)]} fillers"]
    return []


def q_count_errors(inst: Instance, orders):
    """|Q| of a standard instance is C(V, n+1) * |G|^n."""
    want = math.comb(len(inst.vertices), inst.n + 1) * math.prod(orders) ** inst.n
    return [] if len(inst.q) == want else [f"|Q| = {len(inst.q)}, expected {want}"]


class Action:
    """An action table as extract writes it: coordinates are residues
    modulo the invariant factors."""

    def __init__(self, d):
        self.factors = list(d["group"]["invariant_factors"])
        self.table = d["action"]

    def image(self, inst, w, coords):
        return self.table[_key(inst.config_of[w])][w][_key(coords)]

    def random_coords(self, rng):
        return [rng.randrange(f) for f in self.factors]

    def alternating_zero(self, gammas):
        return all(
            sum((-1) ** i * g[c] for i, g in enumerate(gammas)) % f == 0
            for c, f in enumerate(self.factors)
        )


def q_law_errors(inst: Instance, act: Action, rng, budget=8192):
    """Q(g_0.w_0, ..., g_n.w_n) iff sum (-1)^i g_i = 0.  Exhaustive when
    |Q| * |G|^(n+1) fits the budget; otherwise `budget` seeded draws of
    a Q-tuple and twists, half of them solved to an alternating sum of
    zero so that both directions of the law are exercised."""
    n = inst.n
    order = math.prod(act.factors)
    tuples = sorted(inst.q)
    if len(tuples) * order ** (n + 1) <= budget:
        elements = [list(g) for g in itertools.product(*(range(f) for f in act.factors))]
        cases = ((t, list(gs)) for t in tuples for gs in itertools.product(elements, repeat=n + 1))
    else:
        cases = []
        for i in range(budget):
            gs = [act.random_coords(rng) for _ in range(n + 1)]
            if i % 2 == 0:
                sign = -((-1) ** n)
                gs[n] = [
                    sign * sum((-1) ** k * gs[k][c] for k in range(n)) % f
                    for c, f in enumerate(act.factors)
                ]
            cases.append((rng.choice(tuples), gs))
    for t, gs in cases:
        image = tuple(act.image(inst, w, g) for w, g in zip(t, gs))
        if (image in inst.q) != act.alternating_zero(gs):
            return [f"Q-law fails at {list(t)} twisted by {gs}"]
    return []


def action_shape_errors(inst: Instance, act: Action):
    """The table covers every top fiber, and each element's orbit is the
    whole fiber."""
    order = math.prod(act.factors)
    tops = {_key(c): ws for c, ws in inst.fibers.items() if len(c) == inst.n}
    if sorted(act.table) != sorted(tops):
        return ["action does not cover the top fibers"]
    for key, ws in tops.items():
        for w in ws:
            orbit = act.table[key].get(w, {})
            if len(orbit) != order or sorted(orbit.values()) != sorted(ws):
                return [f"orbit of {w} is not its fiber"]
    return []


# --- witnesses of rejected inputs -------------------------------------


def _grid_rows(n):
    """Row i of the grid over n+2 vertices: slot k holds the pair {i, m}
    with m = k below i and k + 1 from i on."""
    rows = []
    for i in range(n + 2):
        row = []
        for k in range(n + 1):
            m = k if k < i else k + 1
            row.append((min(i, m), max(i, m)))
        rows.append(row)
    return rows


def _associativity_witness(inst, axiom, w):
    c = [int(v) for v in axiom.split("@")[1].split(",")]
    cells = {tuple(int(x) for x in k.split(",")): e for k, e in w["cells"].items()}
    for (a, b), e in cells.items():
        if inst.config_of.get(e) != tuple(v for i, v in enumerate(c) if i not in (a, b)):
            return [f"cell {a},{b} holds {e} over the wrong config"]
    rows = [tuple(cells[p] for p in row) for row in _grid_rows(inst.n)]
    ell = w["deleted_row"]
    if any(rows[i] not in inst.q for i in range(len(rows)) if i != ell):
        return ["a kept row of the grid is not in Q"]
    if list(rows[ell]) != w["failing_row"]:
        return ["failing_row is not the deleted row of the grid"]
    if not inst.compatible(rows[ell]) or rows[ell] in inst.q:
        return ["failing_row is in Q or is not compatible"]
    return []


def _horn_count_witness(inst, axiom, w):
    ws = w["horn"]
    gap = ws.index(None)
    if not inst.compatible(ws, gap):
        return ["horn is not partially compatible"]
    rest = tuple(x for x in ws if x is not None)
    count = inst.horn_index()[(gap, rest)]
    if count != w["fillers"] or count == 1:
        return [f"horn has {count} fillers, report says {w['fillers']}"]
    return []


def _horn_uniqueness_witness(inst, axiom, w):
    first, second, slot = tuple(w["first"]), tuple(w["second"]), w["slot"] - 1
    same_rest = first[:slot] + first[slot + 1 :] == second[:slot] + second[slot + 1 :]
    if first in inst.q and second in inst.q and same_rest and first != second:
        return []
    return ["the two fillers are not distinct Q-tuples over one horn"]


def _coherence_witness(inst, axiom, w):
    e = w["element"]
    if "slot" not in w:
        return [] if not inst.compatible(inst.pi[e]) else ["pi tuple is compatible"]
    slot = w["slot"] - 1
    expected = inst.faces(inst.config_of[e])[slot]
    actual = inst.config(inst.pi[e][slot])
    if list(expected) == w["expected_config"] and list(actual) == w["actual_config"] and expected != actual:
        return []
    return ["projection sits over the expected config"]


def _q_compat_witness(inst, axiom, w):
    t = tuple(w["tuple"])
    return [] if t in inst.q and not inst.compatible(t) else ["tuple is a compatible Q-tuple"]


def _action_validity_witness(inst, act, w):
    key = _key(w["config"])
    table = act.table[key]
    zero = _key([0] * len(act.factors))
    reason = w["reason"]
    if reason == "zero moves it":
        return [] if table[w["element"]][zero] != w["element"] else ["zero fixes the element"]
    if reason == "not a bijection":
        images = [orbit[_key(w["gamma"])] for orbit in table.values()]
        return [] if len(set(images)) != len(images) else ["gamma acts bijectively"]
    if reason == "not additive":
        g1, g2 = w["gammas"]
        s = [(a + b) % f for a, b, f in zip(g1, g2, act.factors)]
        e = w["element"]
        return [] if table[table[e][_key(g2)]][_key(g1)] != table[e][_key(s)] else ["action is additive there"]
    return [f"cannot re-check action-validity reason {reason!r}"]


def _regular_witness(inst, act, w):
    table = act.table[_key(w["config"])]
    src, dst = w["pair"]
    hits = sorted(g for g, img in table[src].items() if img == dst)
    claimed = sorted(_key(g) for g in w["gammas"])
    return [] if hits == claimed and len(hits) != 1 else ["pair has exactly one mover"]


def _q_action_witness(inst, act, w):
    t, gs = w["tuple"], w["gammas"]
    image = tuple(act.image(inst, x, g) for x, g in zip(t, gs))
    zero = act.alternating_zero(gs)
    if tuple(t) in inst.q and zero == w["alternating_sum_zero"] and (image in inst.q) == w["image_in_q"] and zero != (image in inst.q):
        return []
    return ["the Q-law holds at the witness"]


_INSTANCE_WITNESSES = {
    "associativity": _associativity_witness,
    "horn-filling-count": _horn_count_witness,
    "horn-uniqueness": _horn_uniqueness_witness,
    "coherence": _coherence_witness,
    "q-compatibility": _q_compat_witness,
}

_ACTION_WITNESSES = {
    "action-validity": _action_validity_witness,
    "regular-transitive": _regular_witness,
    "q-action-law": _q_action_witness,
}


def _tower_witness(tower, axiom, w):
    nodes, rho = tower["nodes"], tower["rho"]
    if axiom == "q-coherence":
        u, v = w["edge"]
        image = [rho[f"{u},{v}"][x] for x in w["tuple"]]
        q_u = {tuple(t) for t in nodes[u]["Q"]}
        ok = w["tuple"] in nodes[v]["Q"] and image == w["image"] and tuple(image) not in q_u
        return [] if ok else ["the image tuple is in Q"]
    if axiom == "rho-functoriality":
        u, v, top = w["chain"]
        x = w["element"]
        two_steps = rho[f"{u},{v}"][rho[f"{v},{top}"][x]]
        return [] if two_steps != rho[f"{u},{top}"][x] else ["projections compose"]
    if axiom == "rho-commutes-with-pi":
        u, v = w["edge"]
        e = w["element"]
        return [] if nodes[u]["pi"][rho[f"{u},{v}"][e]] != nodes[v]["pi"][e] else ["rho commutes with pi"]
    return [f"cannot re-check tower axiom {axiom!r}"]


def witness_errors(report, recheck):
    """A rejecting report must carry at least one failing check, and each
    failing check's witness must fail again under `recheck`."""
    failing = [c for c in report.get("checks", []) if not c["passed"]]
    if report.get("passed") or not failing:
        return ["the input was accepted"]
    errors = []
    for c in failing:
        errors += [f"{c['axiom']}: {e}" for e in recheck(c["axiom"], c["witness"])]
    return errors


def instance_witness_errors(inst, report):
    def recheck(axiom, w):
        fn = _INSTANCE_WITNESSES.get(axiom.split("@")[0])
        return fn(inst, axiom, w) if fn else [f"cannot re-check axiom {axiom!r}"]

    return witness_errors(report, recheck)


def action_witness_errors(inst, act, report):
    def recheck(axiom, w):
        fn = _ACTION_WITNESSES.get(axiom)
        return fn(inst, act, w) if fn else [f"cannot re-check axiom {axiom!r}"]

    return witness_errors(report, recheck)


def tower_witness_errors(tower, report):
    return witness_errors(report, lambda axiom, w: _tower_witness(tower, axiom, w))


def group_errors(reported, orders, label="group"):
    want = invariant_factors(orders)
    if reported is None or reported.get("free_rank", 0) != 0 or reported["invariant_factors"] != want:
        return [f"{label} is {reported}, expected invariant factors {want}"]
    return []


# --- planted wrong expectations ---------------------------------------
# Each plant turns a true witness into a false one; the re-check must
# then report an error, which shows that it can fail.


def _plant_associativity(inst, w):
    return {**w, "deleted_row": (w["deleted_row"] + 1) % (len(w["failing_row"]) + 1)}


def _plant_q_compat(inst, w):
    return {**w, "tuple": list(next(t for t in sorted(inst.q) if inst.compatible(t)))}


def _plant_action_validity(inst, act, w):
    """Whatever the reason, claim that zero moves an element it fixes."""
    table = act.table[_key(w["config"])]
    zero = _key([0] * len(act.factors))
    fixed = next(e for e in sorted(table) if table[e][zero] == e)
    return {"config": w["config"], "element": fixed, "reason": "zero moves it"}


def _plant_functoriality(tower, w):
    u, v, top = w["chain"]
    rho = tower["rho"]
    x = next(x for x in sorted(rho[f"{v},{top}"]) if rho[f"{u},{v}"][rho[f"{v},{top}"][x]] == rho[f"{u},{top}"][x])
    return {**w, "element": x}


PLANTS = {
    "associativity": _plant_associativity,
    "horn-filling-count": lambda inst, w: {**w, "fillers": 1},
    "horn-uniqueness": lambda inst, w: {**w, "second": w["first"]},
    "coherence": lambda inst, w: {**w, "actual_config": w["expected_config"]},
    "q-compatibility": _plant_q_compat,
    "action-validity": _plant_action_validity,
    "regular-transitive": lambda inst, act, w: {**w, "gammas": w["gammas"] + w["gammas"][:1]},
    "q-action-law": lambda inst, act, w: {**w, "alternating_sum_zero": not w["alternating_sum_zero"]},
    "q-coherence": lambda tower, w: {**w, "image": w["image"][1:] + w["image"][:1]},
    "rho-functoriality": _plant_functoriality,
}


def planted_report(report, *context):
    """The report with every failing check's witness planted false."""
    checks = []
    for c in report["checks"]:
        if not c["passed"]:
            c = {**c, "witness": PLANTS[c["axiom"].split("@")[0]](*context, c["witness"])}
        checks.append(c)
    return {**report, "checks": checks}
