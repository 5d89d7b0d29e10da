"""Cross-module pipelines at sizes the per-module tests skip."""

import json

import pytest

from polyhom.algebra import IntMatrix, abelian_group, homology, iso_check
from polyhom.binding import extract, verify_action
from polyhom.cli import main
from polyhom.faults import drop_q_tuple
from polyhom.hurewicz import verdict
from polyhom.polygroupoid import scramble, standard
from polyhom.tower import (
    check_thread_action,
    check_tower,
    cyclic_chain_tower,
    group_tower_from_poly,
    inverse_limit,
)


@pytest.mark.parametrize(
    "orders",
    [(2, 2), (2, 4), (3, 3)],
    ids=["klein", "z2xz4", "z3xz3"],
)
def test_noncyclic_groups_through_the_full_pipeline(orders):
    group = abelian_group(*orders)
    h = scramble(standard(group, range(4), 2), 31)
    extracted, act = extract(h, h.top_configs[0])
    assert iso_check(extracted, group)
    assert verify_action(h, act).passed
    report = verdict(h)
    assert report.passed
    assert iso_check(report.pocket_group, group)


def test_arity3_tower_pipeline():
    pt, _, _ = cyclic_chain_tower([4, 2], range(4), 3)
    assert check_tower(pt).passed
    acts = {u: extract(pt.nodes[u], pt.nodes[u].top_configs[0])[1] for u in pt.poset.nodes}
    gt = group_tower_from_poly(pt, acts)
    limit, _ = inverse_limit(gt)
    assert iso_check(limit, abelian_group(4))
    assert check_thread_action(pt, acts, (0, 1, 2)).passed


def test_homology_empty_chain_group():
    # no generators in the middle dimension at all
    h = homology(IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0))
    assert h.is_trivial()


def test_cli_extract_failure_exit_one(tmp_path, capsys):
    h = drop_q_tuple(standard(abelian_group(2), range(4), 2))
    path = tmp_path / "torn.json"
    path.write_text(h.to_json())
    code = main(["extract", "--in", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["stage"]
    assert payload["witness"]


def test_cli_verdict_rejects_axiom_failure(tmp_path, capsys):
    from polyhom.faults import duplicate_horn

    h = duplicate_horn(standard(abelian_group(2), range(3), 2))
    path = tmp_path / "dup.json"
    path.write_text(h.to_json())
    code = main(["verdict", "--in", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["precondition"]["passed"] is False


def test_scrambled_verdict_many_seeds():
    group = abelian_group(3)
    base = standard(group, range(4), 2)
    for seed in range(6):
        report = verdict(scramble(base, seed))
        assert report.passed
        assert iso_check(report.pocket_group, group)
