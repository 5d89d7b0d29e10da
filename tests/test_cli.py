import json
import os
import subprocess
import sys

import pytest

from polyhom import binding, cli
from polyhom.binding import extract
from polyhom.cli import main
from polyhom.faults import drop_q_tuple, duplicate_horn, shift_q
from polyhom.hurewicz import verdict
from polyhom.polygroupoid import check_all_associativity, from_json, polygroupoid, scramble, standard
from polyhom.algebra import abelian_group
from polyhom.tower import PolyTower, TowerError, check_tower, cyclic_chain_tower, poly_tower_to_json_dict
from test_binding import law_witness_refails


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenVerdictPipeline:
    def test_gen_then_verdict(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        code, _, _ = run(
            capsys, "gen", "--arity", "2", "--group", "4", "--vertices", "4",
            "--seed", "7", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verdict", "--in", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["isomorphic"] is True
        assert report["pocket_group"]["invariant_factors"] == [4]

    def test_gen_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--group", "2,4", "--vertices", "4", "--out", str(p1))
        run(capsys, "gen", "--group", "2,4", "--vertices", "4", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_scramble_deterministic(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        run(capsys, "gen", "--group", "4", "--vertices", "4", "--out", str(src))
        code, out1, _ = run(capsys, "scramble", "--in", str(src), "--seed", "5")
        code, out2, _ = run(capsys, "scramble", "--in", str(src), "--seed", "5")
        assert code == 0 and out1 == out2
        _, out3, _ = run(capsys, "scramble", "--in", str(src), "--seed", "6")
        assert out1 != out3


class TestCheck:
    def test_healthy_instance(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        run(capsys, "gen", "--group", "2", "--vertices", "3", "--out", str(path))
        code, out, _ = run(capsys, "check", "--in", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_tampered_exit_one_with_counterexample(self, tmp_path, capsys):
        h = duplicate_horn(standard(abelian_group(2), range(3), 2))
        path = tmp_path / "bad.json"
        path.write_text(h.to_json())
        code, out, _ = run(capsys, "check", "--in", str(path))
        assert code == 1
        report = json.loads(out)
        fail = next(c for c in report["checks"] if not c["passed"])
        assert fail["axiom"] == "horn-uniqueness"
        # the counterexample re-fails: both tuples are present in Q
        again = from_json(path.read_text())
        assert tuple(fail["witness"]["first"]) in again.q
        assert tuple(fail["witness"]["second"]) in again.q

    def test_report_bytes_independent_of_hash_seed(self, tmp_path):
        dup = tmp_path / "dup.json"
        dup.write_text(scramble(duplicate_horn(standard(abelian_group(16), range(5), 2)), 5).to_json())
        healthy = tmp_path / "healthy.json"
        healthy.write_text(scramble(standard(abelian_group(2, 4), range(4), 2), 5).to_json())
        for command, path, code in [("check", dup, 1), ("verdict", healthy, 0)]:
            outs = set()
            for seed in ("1", "2", "3", "4"):
                env = dict(os.environ, PYTHONHASHSEED=seed,
                           PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
                proc = subprocess.run(
                    [sys.executable, "-m", "polyhom", command, "--in", str(path)],
                    capture_output=True, env=env, check=False,
                )
                assert proc.returncode == code, proc.stderr
                outs.add(proc.stdout)
            assert len(outs) == 1, command

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"arity": 2,')
        code, _, err = run(capsys, "check", "--in", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "--in", "/nonexistent/x.json")
        assert code == 2


class TestAssociativityCommand:
    def test_planted_shift(self, tmp_path, capsys):
        h = shift_q(standard(abelian_group(4), range(4), 2), unions=[(0, 1, 2)])
        path = tmp_path / "shifted.json"
        path.write_text(h.to_json())
        code, out, _ = run(capsys, "associativity", "--in", str(path))
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        code, _, _ = run(capsys, "check", "--in", str(path))
        assert code == 0  # still a quasigroupoid


    def test_empty_fiber_exit_one_with_witness(self, tmp_path, capsys):
        h = standard(abelian_group(2), range(5), 2)
        fibers = dict(h.fibers)
        fibers[(1, 3)] = ()
        pi = {w: t for w, t in h.pi.items() if h.config_of[w] != (1, 3)}
        q = [t for t in h.q if all(h.config_of[w] != (1, 3) for w in t)]
        path = tmp_path / "emptied.json"
        path.write_text(polygroupoid(2, h.vertices, fibers, pi, q).to_json())
        code, out, _ = run(capsys, "associativity", "--in", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["checks"] == [
            {"axiom": "associativity@0,1,2,3", "passed": False, "witness": {"empty_fiber": [1, 3]}}
        ]
        # the witness fails again: that fiber of the input is empty
        assert from_json(path.read_text()).fiber((1, 3)) == ()


class TestExtractCommand:
    def test_extract_json(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        run(capsys, "gen", "--group", "4", "--vertices", "4", "--out", str(src))
        scr = tmp_path / "s.json"
        run(capsys, "scramble", "--in", str(src), "--seed", "3", "--out", str(scr))
        code, out, _ = run(capsys, "extract", "--in", str(scr))
        assert code == 0
        payload = json.loads(out)
        assert payload["group"]["invariant_factors"] == [4]
        assert "action" in payload

    def test_no_top_fiber_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"arity":2,"vertices":[0,1,2],"fibers":{},"pi":{},"Q":[]}')
        code, out, _ = run(capsys, "extract", "--in", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["stage"] == "base-fiber"

    def test_action_law_failure_exit_one(self, tmp_path, capsys):
        # One Q-tuple dropped over {1, 2, 3}: check passes and extraction
        # finds Z/4, but the action it finds breaks the Q-law.
        h = scramble(drop_q_tuple(standard(abelian_group(4), range(4), 2), union=(1, 2, 3)), 7)
        path = tmp_path / "h.json"
        path.write_text(h.to_json())
        code, out, _ = run(capsys, "extract", "--in", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["stage"] == "action-law"
        assert payload["witness"]["axiom"] == "q-action-law"
        # the witness fails again under the action extraction produces
        witness = payload["witness"]["witness"]
        _, act = extract(h, h.top_configs[0])
        group = act.group
        gammas = [group.element(g) for g in witness["gammas"]]
        image = tuple(act.apply(h.config_of[w], g, w) for w, g in zip(witness["tuple"], gammas))
        assert tuple(witness["tuple"]) in h.q
        assert (group.alternating_sum(gammas) == group.zero()) is witness["alternating_sum_zero"] is True
        assert image not in h.q


    def test_each_caller_certifies_once(self, tmp_path, capsys, monkeypatch):
        h = scramble(standard(abelian_group(8), range(5), 2), 3)
        path = tmp_path / "h.json"
        path.write_text(h.to_json())
        calls = []
        certify = binding.verify_action

        def counting(h, act):
            calls.append(None)
            return certify(h, act)

        monkeypatch.setattr(binding, "verify_action", counting)
        for caller in (
            lambda: run(capsys, "extract", "--in", str(path))[0] == 0,
            lambda: verdict(h).passed,
            lambda: check_all_associativity(h).passed,
        ):
            calls.clear()
            assert caller()
            assert len(calls) == 1


class TestHomologyCommand:
    def test_hollow_triangle(self, tmp_path, capsys):
        path = tmp_path / "maps.json"
        path.write_text(
            json.dumps({"d_n": [[-1, -1, 0], [1, 0, -1], [0, 1, 1]], "d_np1": []})
        )
        code, out, _ = run(capsys, "homology", "--in", str(path))
        assert code == 0
        assert json.loads(out)["group"] == {"invariant_factors": [], "free_rank": 1}

    def test_composition_failure(self, tmp_path, capsys):
        path = tmp_path / "maps.json"
        path.write_text(json.dumps({"d_n": [[1, 0], [0, 1]], "d_np1": [[1], [0]]}))
        code, out, _ = run(capsys, "homology", "--in", str(path))
        assert code == 1
        assert json.loads(out)["violating_column"] == 0


class TestTowerCommands:
    def test_chain_check_and_limit(self, capsys):
        code, out, _ = run(
            capsys, "tower-check", "--group", "8,4,2", "--vertices", "4", "--arity", "2"
        )
        assert code == 0
        code, out, _ = run(
            capsys, "tower-limit", "--group", "8,4,2", "--vertices", "4", "--arity", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["group"]["invariant_factors"] == [8]

    def test_limit_checks_each_node_action(self, tmp_path, capsys):
        pt, _, _ = cyclic_chain_tower([4, 2], range(4), 2)
        top = drop_q_tuple(pt.nodes["t0"], union=(1, 2, 3))
        tower = PolyTower(pt.poset, {**pt.nodes, "t0": top}, pt.rho)
        assert check_tower(tower).passed
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(poly_tower_to_json_dict(tower)))
        code, out, _ = run(capsys, "tower-limit", "--in", str(path))
        assert code == 1
        payload = json.loads(out)
        assert {k: payload[k] for k in ("passed", "stage", "node")} == {
            "passed": False, "stage": "action-law", "node": "t0"
        }
        assert payload["witness"]["axiom"] == "q-action-law"
        _, act = extract(top, top.top_configs[0])
        assert law_witness_refails(top, act, payload["witness"]["witness"])

    def test_limit_reports_node_extraction_failure(self, tmp_path, capsys):
        # check_tower passes a node with a doubled horn; extraction on it
        # fails, and the payload names the stage, the node and a witness
        # that re-checks from the node alone
        pt, _, _ = cyclic_chain_tower([4, 2], range(4), 2)
        node = duplicate_horn(pt.nodes["t1"])
        tower = PolyTower(pt.poset, {**pt.nodes, "t1": node}, pt.rho)
        assert check_tower(tower).passed
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(poly_tower_to_json_dict(tower)))
        code, out, _ = run(capsys, "tower-limit", "--in", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload == {
            "command": "tower-limit",
            "passed": False,
            "stage": "horn-uniqueness",
            "node": "t1",
            "witness": {"horn": ["w:1,2:0", "w:0,2:0"], "slot": 3},
        }
        horn = tuple(payload["witness"]["horn"])
        assert len(node.fillers[(payload["witness"]["slot"] - 1, horn)]) >= 2

    def test_limit_reports_tower_error(self, monkeypatch, capsys):
        def refuse(t):
            raise TowerError("projection-surjectivity", {"node": "t1"})

        monkeypatch.setattr(cli, "inverse_limit", refuse)
        code, out, _ = run(capsys, "tower-limit", "--group", "4,2", "--vertices", "4", "--arity", "2")
        assert code == 1
        assert json.loads(out) == {
            "command": "tower-limit", "passed": False, "stage": "projection-surjectivity", "witness": {"node": "t1"}
        }

    def test_bad_chain_exit_two(self, capsys):
        code, _, err = run(capsys, "tower-limit", "--group", "8,3", "--vertices", "4")
        assert code == 2


class TestSelftest:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--quick")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["criteria"]) == 9

    def test_quick_text_format(self, capsys):
        code, out, _ = run(capsys, "selftest", "--quick", "--format", "text")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS criterion")]
        assert len(lines) == 9

    @pytest.mark.parametrize("fault", ["horn-dup", "non-assoc", "rho", "action"])
    def test_fault_injection_fails_deterministically(self, capsys, fault):
        code1, out1, _ = run(capsys, "selftest", "--quick", "--inject-fault", fault)
        code2, out2, _ = run(capsys, "selftest", "--quick", "--inject-fault", fault)
        assert code1 == code2 == 1
        payload = json.loads(out1)
        failed = [c["criterion"] for c in payload["criteria"] if not c["passed"]]
        assert failed
        stripped = [
            [dict(c, detail="") for c in json.loads(o)["criteria"]] for o in (out1, out2)
        ]
        assert stripped[0] == stripped[1]


class TestTextFormat:
    def test_check_text(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        run(capsys, "gen", "--group", "2", "--vertices", "3", "--out", str(path))
        code, out, _ = run(capsys, "check", "--in", str(path), "--format", "text")
        assert code == 0
        assert out.strip().endswith("PASS")
