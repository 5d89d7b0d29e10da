"""Self-test sweeps: one function per acceptance criterion.

The CLI selftest command and the acceptance test suite both run these;
the grids and seed counts are parameters so the suite can run the full
sweep while the CLI default stays fast.  Everything is deterministic:
fixed seeds, sorted iteration, exact arithmetic.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import faults
from .algebra import FinAbelianGroup, IntMatrix, abelian_group, iso_check, snf
from .binding import ExtractionError, extract, verify_action
from .chain import SimplexGen, SimplexFamily, boundary, chain, full_complex, gen_chain
from .hurewicz import verdict
from .polygroupoid import (
    check_all_associativity,
    check_axioms,
    check_horn_filling,
    scramble,
    standard,
)
from .tower import (
    check_thread_action,
    check_tower,
    cyclic_chain_tower,
    group_tower_from_poly,
    induced_hom,
    inverse_limit,
)


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    name: str
    passed: bool
    seconds: float
    detail: str


def criterion2_grid(include_eight=True):
    out = []
    for n in (2, 3):
        orders = (2, 3, 4, 8) if (n == 2 and include_eight) else (2, 3, 4)
        for order in orders:
            for size in (n + 1, n + 2, n + 3):
                out.append((n, order, size))
    return out


def quick_grid():
    return [(2, 2, 3), (2, 4, 4), (3, 2, 4)]


def _pocket_family():
    base = [
        SimplexGen(sup)
        for k in (1, 2, 3)
        for sup in itertools.combinations((0, 1, 2), k)
    ]
    extra = SimplexGen((0, 1, 2), "b")
    return SimplexFamily(
        base + [extra], lambda g, i: SimplexGen(g.support[:i] + g.support[i + 1 :])
    )


def chain_axioms(random_chains=500):
    """d o d = 0, exhaustively on generators up to dimension 4 plus
    random chains."""
    families = [full_complex(range(6), 4), full_complex(range(5), 3), _pocket_family()]
    for fam in families:
        for dim in fam.dims:
            if dim < 2:
                continue
            for g in fam.generators(dim):
                if not boundary(fam, boundary(fam, gen_chain(g))).is_zero():
                    return False, f"generator {g} fails dd=0"
    rng = random.Random(1)
    fam = families[0]
    for _ in range(random_chains):
        dim = rng.randint(2, 4)
        gens = fam.generators(dim)
        c = chain(dim, {g: rng.randint(-5, 5) for g in rng.sample(gens, min(5, len(gens)))})
        if c.is_zero():
            continue
        if not boundary(fam, boundary(fam, c)).is_zero():
            return False, f"random chain fails dd=0 in dim {dim}"
    return True, f"{random_chains} random chains plus all generators"


def standard_axioms(grid, tamper=None):
    """Standard models pass every quasigroupoid axiom and associativity
    over every (n+2)-subset, each grid decided from its first leaf once
    the action law is certified (see check_all_associativity)."""
    count = 0
    for n, order, size in grid:
        h = standard(abelian_group(order), range(size), n)
        if tamper is not None:
            h = tamper(h)
        report = check_axioms(h)
        if not report.passed:
            return False, f"axioms fail at n={n} order={order} size={size}"
        report = check_all_associativity(h)
        if not report.passed:
            return False, f"associativity fails at n={n} order={order} size={size}"
        count += 1
    return True, f"{count} standard instances"


def horn_filling(grid):
    for n, order, size in grid:
        h = standard(abelian_group(order), range(size), n)
        if not check_horn_filling(h).passed:
            return False, f"horn count != 1 at n={n} order={order} size={size}"
    return True, f"{len(grid)} instances, every horn fills uniquely"


def blind_extraction(grid, seeds=100):
    checked = 0
    for n, order, size in grid:
        group = abelian_group(order)
        base = standard(group, range(size), n)
        for seed in range(seeds):
            h = scramble(base, seed)
            try:
                extracted, _ = extract(h, h.top_configs[0])
            except ExtractionError as exc:
                return False, f"extraction error at n={n} order={order} size={size} seed={seed}: {exc}"
            if not iso_check(extracted, group):
                return False, f"wrong group at n={n} order={order} size={size} seed={seed}"
            checked += 1
    return True, f"{checked} scrambled extractions"


def action_law(grid, tamper=None):
    for n, order, size in grid:
        group = abelian_group(order)
        h = scramble(standard(group, range(size), n), 0)
        _, act = extract(h, h.top_configs[0])
        if tamper is not None and group.order() >= 2:
            act = tamper(act)
        report = verify_action(h, act)
        if not report.passed:
            return False, f"action law fails at n={n} order={order} size={size}"
    return True, f"action law on all {len(grid)} instances"


def hurewicz_verdicts(grid):
    for n, order, size in grid:
        group = abelian_group(order)
        report = verdict(standard(group, range(size), n))
        if not report.passed:
            failing = [k for k, v in report.stages.items() if not v["passed"]]
            return False, f"verdict fails at n={n} order={order} size={size}: {failing or 'iso'}"
        if not iso_check(report.pocket_group, group):
            return False, f"pocket group mismatch at n={n} order={order} size={size}"
    return True, f"{len(grid)} verdicts, pocket group isomorphic throughout"


def tower_pipeline(tamper=None):
    pt, groups, surjections = cyclic_chain_tower([8, 4, 2], range(4), 2)
    if tamper is not None:
        pt = tamper(pt)
    report = check_tower(pt)
    if not report.passed:
        return False, f"tower checks fail: {[c.axiom for c in report.failures()]}"
    acts = {u: extract(pt.nodes[u], pt.nodes[u].top_configs[0])[1] for u in pt.poset.nodes}
    gt = group_tower_from_poly(pt, acts)
    if not check_tower(gt).passed:
        return False, "induced group tower fails its checks"
    limit, _ = inverse_limit(gt)
    if not iso_check(limit, abelian_group(8)):
        return False, f"limit is {limit}, expected Z/8"
    # induced homs must be the input surjections after identifying the
    # extracted groups with the native coordinates
    from .polygroupoid import standard_with_coordinates

    natives = {}
    for name, g in zip(["t0", "t1", "t2"], groups):
        _, coords = standard_with_coordinates(g, range(4), 2)
        natives[name] = coords

    def to_native(name, group, gamma, act):
        cfg = sorted(act.action)[0]
        w0 = sorted(act.action[cfg])[0]
        moved = act.action[cfg][w0][gamma.coords]
        return group.sub(natives[name][moved], natives[name][w0])

    for i, surj in enumerate(surjections):
        u, v = f"t{i + 1}", f"t{i}"
        hom = induced_hom(pt, u, v, acts)
        for gamma in acts[v].group.elements():
            lhs = to_native(u, groups[i + 1], hom(gamma), acts[u])
            rhs = surj(to_native(v, groups[i], gamma, acts[v]))
            if lhs != rhs:
                return False, f"induced hom on edge ({u},{v}) differs from the input surjection"
    thread_report = check_thread_action(pt, acts, (0, 1))
    if not thread_report.passed:
        return False, "thread action is not regular and transitive"
    return True, "chain Z/8 -> Z/4 -> Z/2: checks, limit, homs, thread action"


def fault_sensitivity():
    group = abelian_group(4)

    h = faults.duplicate_horn(standard(group, range(3), 2))
    report = check_axioms(h)
    bad = next((c for c in report.failures() if c.axiom == "horn-uniqueness"), None)
    if bad is None:
        return False, "horn duplicate not detected"
    first, second = tuple(bad.witness["first"]), tuple(bad.witness["second"])
    slot = bad.witness["slot"] - 1
    if not (
        first in h.q
        and second in h.q
        and first[slot] != second[slot]
        and first[:slot] + first[slot + 1 :] == second[:slot] + second[slot + 1 :]
    ):
        return False, "horn duplicate counterexample does not re-fail"

    h = faults.shift_q(standard(group, range(4), 2), unions=[(0, 1, 2)])
    report = check_all_associativity(h)
    bad = next(iter(report.failures()), None)
    if bad is None:
        return False, "non-associative Q not detected"
    if tuple(bad.witness["failing_row"]) in h.q:
        return False, "associativity counterexample does not re-fail"

    pt, _, _ = cyclic_chain_tower([4, 2], range(4), 2)
    bad_tower = faults.tamper_rho(pt)
    report = check_tower(bad_tower)
    qfail = next((c for c in report.failures() if c.axiom == "q-coherence"), None)
    if qfail is None:
        return False, "tampered rho not detected"
    u, v = qfail.witness["edge"]
    image = tuple(qfail.witness["image"])
    if image in bad_tower.nodes[u].q or tuple(qfail.witness["tuple"]) not in bad_tower.nodes[v].q:
        return False, "rho counterexample does not re-fail"

    h = scramble(standard(group, range(4), 2), 0)
    _, act = extract(h, h.top_configs[0])
    tampered = faults.tamper_action(act)
    report = verify_action(h, tampered)
    if report.passed:
        return False, "tampered action not detected"
    fail = report.failures()[0]
    if fail.witness is None:
        return False, "tampered action has no witness"
    return True, "four planted faults detected with re-checkable witnesses"


def homology_kernel(random_matrices=500):
    from .algebra import homology

    d1 = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    hollow = homology(d1, IntMatrix.zeros(3, 0))
    if hollow != FinAbelianGroup((), 1):
        return False, f"hollow triangle gives {hollow}"
    full = homology(d1, IntMatrix.from_rows([[1], [-1], [1]]))
    if not full.is_trivial():
        return False, f"filled triangle gives {full}"
    rng = random.Random(20240817)
    for _ in range(random_matrices):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n)))
        u, d, v = snf(a)
        if u * a * v != d:
            return False, "UAV != D"
        if abs(u.det()) != 1 or abs(v.det()) != 1:
            return False, "transform not unimodular"
        diag = d.diagonal_entries()
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0 and (diag[i] == 0 or diag[i + 1] % diag[i] != 0):
                return False, "divisibility chain broken"
    return True, f"triangles plus {random_matrices} random Smith checks"


FAULT_INJECTIONS = {
    "horn-dup": (2, lambda: {"tamper": faults.duplicate_horn}),
    "non-assoc": (2, lambda: {"tamper": lambda h: faults.shift_q(h, unions=[tuple(h.vertices[: h.arity + 1])])}),
    "rho": (7, lambda: {"tamper": faults.tamper_rho}),
    "action": (5, lambda: {"tamper": faults.tamper_action}),
}


def run_selftest(quick=False, inject_fault=None, seeds=None):
    """Deterministic sweep over every acceptance criterion at selftest
    sizes.  inject_fault plants a named fault to prove the sweep can
    fail; seeds overrides the per-configuration scramble count."""
    grid = quick_grid() if quick else criterion2_grid(include_eight=False)
    if seeds is None:
        seeds = 3 if quick else 25
    if inject_fault is not None and inject_fault not in FAULT_INJECTIONS:
        raise ValueError(f"unknown fault {inject_fault!r}; know {sorted(FAULT_INJECTIONS)}")

    def tamper_for(criterion):
        if inject_fault is None:
            return {}
        target, kwargs = FAULT_INJECTIONS[inject_fault]
        return kwargs() if target == criterion else {}

    plan = [
        (1, "chain-axioms", lambda: chain_axioms(100 if quick else 500)),
        (2, "standard-axioms", lambda: standard_axioms(grid, **tamper_for(2))),
        (3, "horn-filling", lambda: horn_filling(grid)),
        (4, "blind-extraction", lambda: blind_extraction(grid, seeds=seeds)),
        (5, "action-law", lambda: action_law(grid, **tamper_for(5))),
        (6, "hurewicz-verdict", lambda: hurewicz_verdicts(grid)),
        (7, "tower", lambda: tower_pipeline(**tamper_for(7))),
        (8, "fault-sensitivity", fault_sensitivity),
        (9, "homology-kernel", lambda: homology_kernel(100 if quick else 500)),
    ]
    results = []
    for criterion, name, fn in plan:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, never crash the sweep
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(criterion, name, passed, time.perf_counter() - start, detail)
        )
    return results
