"""Report bytes of every axiom check on a planted-fault corpus.

Each case runs one check on a structure with a planted fault and pins
the sha256 of its canonical report JSON, together with the checks that
fail in it.  Together the cases make every witness-producing scan in
the checkers reach a witness (verdict stages 3 and 4 only under a
replaced epsilon, since the action law rules their failures out), so
a change to a scan's order or to its witness shape changes a digest
here.  Extraction cases pin the stage and witness at which `extract`
stops, or the `polyhom extract` payload where it returns a table that
fails the action law; each of those witnesses is also re-checked from
the instance alone.
"""

import ast
import functools
import hashlib
import json
import pathlib
import tempfile

import pytest

import polyhom.hurewicz
from polyhom.algebra import GroupHom, abelian_group
from polyhom.binding import ActionTable, ExtractionError, extract, verify_action
from polyhom.cli import main
from polyhom.faults import drop_q_tuple, duplicate_horn, rewire_pi, shift_q, tamper_action, tamper_rho
from polyhom.hurewicz import EpsilonError, verdict
from polyhom.polygroupoid import (
    check_all_associativity,
    check_axioms,
    check_horn_filling,
    polygroupoid,
    standard,
)
from polyhom.tower import DirectedPoset, GroupTower, PolyTower, check_thread_action, check_tower, cyclic_chain_tower
from test_binding import _extract_cases, action_law_refails

Z2 = abelian_group(2)
Z4 = abelian_group(4)
Z8 = abelian_group(8)


def _tower_842():
    poset = DirectedPoset.chain(["c", "b", "a"])
    groups = {"a": Z8, "b": Z4, "c": Z2}
    homs = {
        ("b", "a"): GroupHom(Z8, Z4, ((1,),)),
        ("c", "a"): GroupHom(Z8, Z2, ((1,),)),
        ("c", "b"): GroupHom(Z4, Z2, ((1,),)),
    }
    return GroupTower(poset, groups, homs)


def _with_hom(t, edge, hom):
    homs = dict(t.homs)
    if hom is None:
        del homs[edge]
    else:
        homs[edge] = hom
    return GroupTower(t.poset, t.groups, homs)


def _with_rho(pt, edge, mapping):
    rho = dict(pt.rho)
    if mapping is None:
        del rho[edge]
    else:
        rho[edge] = mapping
    return PolyTower(pt.poset, pt.nodes, rho)


def _edited(act, edit):
    """A copy of the action table, edited in place by `edit`."""
    table = {c: {w: dict(m) for w, m in ws.items()} for c, ws in act.action.items()}
    edit(table)
    return ActionTable(act.group, table)


def _one_node(h, act):
    """check_thread_action over (0, 1) on the one-node tower of h."""
    pt = PolyTower(DirectedPoset.chain(["only"]), {"only": h}, {})
    return check_thread_action(pt, {"only": act}, (0, 1))


def _escape(table):
    """Send one element of the fiber over (0, 1) out of its fiber."""
    table[(0, 1)][sorted(table[(0, 1)])[0]][(1,)] = sorted(table[(0, 2)])[0]


def _fix_two(table):
    """Let 2 act as the identity on the fiber over (0, 1)."""
    for w, m in table[(0, 1)].items():
        m[(2,)] = w


def _epsilon_raising(h, act, g):
    raise EpsilonError("no unique horn filler", {"horn": [], "fillers": 0})


def _epsilon_zero_then_raising(h, act, g):
    """Zero while the first twist is zero, an EpsilonError after: the
    defect stage evaluates the zero twist, then raises at its first unit
    twist, and the pocket-group stage reports the same error."""
    if g.twists[0] != act.group.zero():
        raise EpsilonError("no unique horn filler", {"horn": [], "fillers": 0})
    return act.group.zero()


@functools.cache
def _extraction_inputs():
    return {p.id: p.values[0] for p in _extract_cases()}


def _extraction_failure(h):
    """The stage and witness at which library extract stops on h."""
    try:
        extract(h, h.top_configs[0])
    except ExtractionError as exc:
        return {"stage": exc.stage, "witness": exc.witness}
    raise AssertionError("extract returned a table")


def _cli_extract(h):
    """The payload `polyhom extract` writes for h."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = pathlib.Path(tmp) / "h.json", pathlib.Path(tmp) / "out.json"
        src.write_text(h.to_json())
        main(["extract", "--in", str(src), "--out", str(out)])
        return json.loads(out.read_text())


# Every stage library extract raises on _extract_cases(), and the two
# inputs where it returns a table that fails the action law.
EXTRACT_FAILURES = [
    "duplicate_horn", "empty-fiber", "incomplete-orbit", "no-filler", "non-associative", "not-a-permutation", "s3",
    "two-to-one", "unreachable",
]
CLI_ACTION_LAW = ["F1", "inconsistent"]

FAKE_EPSILON = {
    "zero": lambda h, act, g: act.group.zero(),
    "last-twist": lambda h, act, g: g.twists[-1],
    "raising": _epsilon_raising,
    "zero-then-raising": _epsilon_zero_then_raising,
}


def _cases():
    h = standard(Z4, range(4), 2)
    _, act = extract(h, (0, 1))
    h5 = standard(Z4, range(5), 2)
    _, act5 = extract(h5, (0, 1))
    pt = cyclic_chain_tower([8, 4, 2], range(4), 2)[0]
    gt = _tower_842()
    zero_42 = GroupHom(Z4, Z2, ((0,),))
    cases = {
        "rewire_pi/axioms": lambda: check_axioms(rewire_pi(h)),
        "duplicate_horn/axioms": lambda: check_axioms(duplicate_horn(h)),
        "shift_q/associativity": lambda: check_all_associativity(shift_q(h, unions=[(0, 1, 2)])),
        "drop_q_tuple/horn-filling": lambda: check_horn_filling(drop_q_tuple(h)),
        "duplicate_horn/horn-filling": lambda: check_horn_filling(duplicate_horn(h)),
        "tamper_action/verify_action": lambda: verify_action(h, tamper_action(act)),
        "missing-top-fiber/verify_action": lambda: verify_action(
            h, ActionTable(act.group, {c: ws for c, ws in act.action.items() if c != (1, 2)})
        ),
        "non-regular/verify_action": lambda: verify_action(h, _edited(act, _fix_two)),
        "empty-union/verify_action": lambda: verify_action(
            polygroupoid(2, h5.vertices, h5.fibers, h5.pi, h5.q - set(h5.q_by_union[(1, 2, 4)])), act5
        ),
        "drop_q_tuple/verify_action": lambda: verify_action(drop_q_tuple(h5, union=(1, 2, 3)), act5),
        "duplicate_horn/verify_action": lambda: verify_action(duplicate_horn(h5), act5),
        "missing-hom/tower": lambda: check_tower(_with_hom(gt, ("c", "b"), None)),
        "mistyped-hom/tower": lambda: check_tower(_with_hom(gt, ("b", "a"), GroupHom(Z8, Z2, ((1,),)))),
        "non-surjective-hom/tower": lambda: check_tower(_with_hom(gt, ("c", "b"), zero_42)),
        "missing-rho/tower": lambda: check_tower(_with_rho(pt, ("t1", "t0"), None)),
        "rho-domain/tower": lambda: check_tower(
            _with_rho(pt, ("t1", "t0"), dict(list(pt.rho[("t1", "t0")].items())[1:]))
        ),
        "rho-not-fiber-preserving/tower": lambda: check_tower(
            _with_rho(pt, ("t2", "t1"), {w: pt.nodes["t2"].fiber((0, 1))[0] for w in pt.rho[("t2", "t1")]})
        ),
        "rho-not-surjective/tower": lambda: check_tower(
            _with_rho(
                pt,
                ("t2", "t1"),
                {w: pt.nodes["t2"].fiber(pt.nodes["t1"].config_of[w])[0] for w in pt.rho[("t2", "t1")]},
            )
        ),
        "rewired-pi-node/tower": lambda: check_tower(
            PolyTower(pt.poset, {**pt.nodes, "t2": rewire_pi(pt.nodes["t2"])}, pt.rho)
        ),
        "tamper_rho/tower": lambda: check_tower(tamper_rho(pt)),
        "escaping-action/thread-action": lambda: _one_node(h, _edited(act, _escape)),
        "non-regular/thread-action": lambda: _one_node(h, _edited(act, _fix_two)),
        "shift_q/verdict": lambda: verdict(shift_q(h, unions=[(0, 1, 2)])),
    }
    for name in FAKE_EPSILON:
        cases[f"epsilon-{name}/verdict"] = lambda name=name: _fake_verdict(h, name)
    for name in EXTRACT_FAILURES:
        cases[f"{name}/extract"] = lambda name=name: _extraction_failure(_extraction_inputs()[name])
    for name in CLI_ACTION_LAW:
        cases[f"{name}/cli-extract"] = lambda name=name: _cli_extract(_extraction_inputs()[name])
    return cases


def _fake_verdict(h, name):
    real = polyhom.hurewicz.epsilon
    polyhom.hurewicz.epsilon = FAKE_EPSILON[name]
    try:
        return verdict(h)
    finally:
        polyhom.hurewicz.epsilon = real


def _failing(report_dict):
    if "stage" in report_dict:
        return [report_dict["stage"]]
    if "checks" in report_dict:
        return [c["axiom"] for c in report_dict["checks"] if not c["passed"]]
    return [name for name, stage in report_dict["stages"].items() if not stage["passed"]]


def _digest(report_dict):
    text = json.dumps(report_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED = {
    "F1/cli-extract": (["action-law"], "3741ce325dfdd643"),
    "drop_q_tuple/horn-filling": (["horn-filling-count"], "c334bcc746bc68a3"),
    "drop_q_tuple/verify_action": (["q-action-law"], "072cbae270000598"),
    "duplicate_horn/axioms": (["horn-uniqueness"], "dff076cb2ae66617"),
    "duplicate_horn/extract": (["horn-uniqueness"], "4df3d6837656dc7e"),
    "duplicate_horn/horn-filling": (["horn-filling-count"], "70f1dcd04e9c9762"),
    "duplicate_horn/verify_action": (["q-action-law"], "ea644bf660183850"),
    "empty-fiber/extract": (["base-fiber"], "059d442e22ec866a"),
    "empty-union/verify_action": (["q-action-law"], "f806a0ed13f10148"),
    "epsilon-last-twist/verdict": (["defect-vs-natural-iso", "twist-surjectivity", "pocket-group"], "a822e2aeefd03244"),
    "epsilon-raising/verdict": (["boundary-vanishing", "defect-vs-natural-iso", "twist-surjectivity", "pocket-group"], "eb64f3f7a703c03b"),
    "epsilon-zero-then-raising/verdict": (["defect-vs-natural-iso", "twist-surjectivity", "pocket-group"], "dc137041179395ce"),
    "epsilon-zero/verdict": (["defect-vs-natural-iso", "twist-surjectivity", "pocket-group"], "cabb423fb7e849f6"),
    "escaping-action/thread-action": (["thread-action-closure", "thread-action-regular-transitive"], "71b943b90cbf451c"),
    "incomplete-orbit/extract": (["propagation"], "0725c9a70bbc17df"),
    "inconsistent/cli-extract": (["action-law"], "b222898cfb86986c"),
    "missing-hom/tower": (["hom-typing", "surjectivity", "functoriality"], "dbcea50201d83e1f"),
    "missing-rho/tower": (["rho-fiber-surjections"], "2905f52ddd99f9bb"),
    "missing-top-fiber/verify_action": (["action-validity", "q-action-law"], "647783d6f5174d0e"),
    "mistyped-hom/tower": (["hom-typing", "surjectivity", "functoriality"], "7039149efa984928"),
    "no-filler/extract": (["propagation"], "b6c6342078907e08"),
    "non-associative/extract": (["group-structure"], "f0e5316d4e0c0152"),
    "non-regular/thread-action": (["thread-action-regular-transitive"], "1b5e7143c56fd37a"),
    "non-regular/verify_action": (["action-validity", "regular-transitive", "q-action-law"], "be90c61529e4d1d6"),
    "non-surjective-hom/tower": (["surjectivity", "functoriality"], "2c242653991871bd"),
    "not-a-permutation/extract": (["regularity"], "0c6d2eb3a66866b8"),
    "rewire_pi/axioms": (["coherence", "q-compatibility"], "2305713182f3068a"),
    "rewired-pi-node/tower": (["rho-commutes-with-pi"], "ae67617f86a3d153"),
    "rho-domain/tower": (["rho-fiber-surjections"], "63963c67ec5beb8e"),
    "rho-not-fiber-preserving/tower": (["rho-fiber-surjections"], "11e8580b15600ceb"),
    "rho-not-surjective/tower": (["rho-fiber-surjections"], "ffb85322fad6802b"),
    "s3/extract": (["abelian"], "64a480dc12183e48"),
    "shift_q/associativity": (["associativity@0,1,2,3"], "51aa461c53cb5265"),
    "shift_q/verdict": (["boundary-vanishing"], "678d4e1ffddc716a"),
    "tamper_action/verify_action": (["action-validity", "q-action-law"], "0c81e62d27dc6a31"),
    "tamper_rho/tower": (["rho-functoriality", "q-coherence"], "0fbab3e41c5c863e"),
    "two-to-one/extract": (["regularity"], "56b0f6789f7adafa"),
    "unreachable/extract": (["propagation"], "89b5475a7b5c2ee9"),
}

@pytest.mark.parametrize("name", sorted(_cases()))
def test_report_bytes(name):
    report = _cases()[name]()
    if not isinstance(report, dict):
        report = report.to_json_dict()
    assert (_failing(report), _digest(report)) == PINNED[name]


def _reached(h):
    """The top configurations joined to the base one through the vertex
    sets of Q-tuples."""
    reached = {h.top_configs[0]}
    grew = True
    while grew:
        grew = False
        for union in h.q_by_union:
            faces = {union[:i] + union[i + 1 :] for i in range(len(union))}
            if faces & reached and not faces <= reached:
                reached |= faces
                grew = True
    return reached


def _flip(h, u, u2, x):
    """Where flipping u to u2 in the Q-tuple through u and x takes x,
    read from h.fillers."""
    t = next(t for t in sorted(h.q) if u in t and x in t)
    ell, j = t.index(x), t.index(u)
    flipped = t[:j] + (u2,) + t[j + 1 :]
    (filler,) = h.fillers[(ell, flipped[:ell] + flipped[ell + 1 :])]
    return filler


def _extraction_refails(h, stage, witness):
    """Re-check a witness of library extract from the instance alone."""
    if stage == "base-fiber":
        return h.fiber(witness["config"]) == ()
    if stage == "horn-uniqueness":
        return len(h.fillers.get((witness["slot"] - 1, tuple(witness["horn"])), ())) >= 2
    if stage == "regularity" and "flip" in witness:
        # a flip that is not a permutation of the base fiber
        (u, u2), pairs = witness["flip"], witness["pairs"]
        xs, ys = sorted(x for x, _ in pairs), sorted(y for _, y in pairs)
        fiber = list(h.fiber(h.config_of[xs[0]]))
        return all(_flip(h, u, u2, x) == y for x, y in pairs) and not xs == ys == fiber
    if stage == "regularity":
        # the flips do not take the element to each element of its fiber once
        u, x, images = witness["from"], witness["element"], witness["images"]
        return (
            sorted(images) == list(h.fiber(h.config_of[u]))
            and all(_flip(h, u, u2, x) == y for u2, y in images.items())
            and sorted(images.values()) != list(h.fiber(h.config_of[x]))
        )
    if stage == "abelian":
        (u, a), (_, b) = witness["flips"]
        x = witness["element"]
        images = [_flip(h, u, b, _flip(h, u, a, x)), _flip(h, u, a, _flip(h, u, b, x))]
        return witness["images"] == images and images[0] != images[1]
    if stage == "group-structure":
        # flips a, b, c in turn and flips b, c, a in turn disagree, so
        # the flips do not compose associatively
        (u, a), (_, b), (_, c) = witness["flips"]
        x = witness["element"]
        images = [
            _flip(h, u, c, _flip(h, u, b, _flip(h, u, a, x))),
            _flip(h, u, a, _flip(h, u, c, _flip(h, u, b, x))),
        ]
        return witness["images"] == images and images[0] != images[1]
    assert stage == "propagation"
    if "unreachable" in witness:
        return witness["unreachable"] == [list(c) for c in h.top_configs if c not in _reached(h)]
    config = tuple(witness["config"])
    if "horn" in witness:
        # no filler: the open slot is the one over config
        horn = tuple(witness["horn"])
        union = sorted(set(config).union(*(h.config_of[w] for w in horn)))
        slot = next(i for i, v in enumerate(union) if v not in config)
        return (slot, horn) not in h.fillers
    # incomplete orbit: some vertex set over config carries Q-tuples,
    # and none of them goes through the element
    w = witness["element"]
    return w in h.fiber(config) and any(
        set(config) <= set(union) and all(w not in t for t in tuples) for union, tuples in h.q_by_union.items()
    )


@pytest.mark.parametrize("name", EXTRACT_FAILURES + CLI_ACTION_LAW)
def test_extraction_witness_refails(name):
    h = _extraction_inputs()[name]
    if name in EXTRACT_FAILURES:
        failure = _extraction_failure(h)
        assert _extraction_refails(h, failure["stage"], failure["witness"])
    else:
        payload = _cli_extract(h)
        assert payload["stage"] == "action-law"
        _, act = extract(h, h.top_configs[0])
        assert action_law_refails(h, act, payload["witness"])


def test_no_hand_rolled_witness_flags():
    """Checks yield their witnesses and `first_failure` builds the
    AxiomCheck; no `witness = None` flag variable comes back."""
    found = []
    for path in sorted(pathlib.Path(polyhom.hurewicz.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and node.value.value is None:
                names = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
                if any(n == "witness" or n.endswith("_witness") for n in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
