"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line (visible under pytest -s) summarizing
the measured result before asserting it, so a log of this module doubles as
the acceptance report.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from gridlang.ast import control_depth, expr_depth
from gridlang.cli import main as cli_main
from gridlang.codec import ParseError, parse
from gridlang.grammar import LexiconMode, Style, grammar_from_text
from gridlang.harness import EndpointConfig, PromptConfig, run_evaluation
from gridlang.metrics import EvalRecord, aggregate
from gridlang.sampler import GenParams, generate_instance
from gridlang.tasks import TaskKind, make_dataset
from gridlang.world import (
    START_STATE,
    Facing,
    Final,
    RobotState,
    exec_program,
)
from gridlang.ast import ActionStmt, If, Literal, Loop, Program, Turn, TurnDir

from conftest import iter_expressions, iter_statements, oracle_sample_block


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {verdict}: {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_1_round_trip_at_scale(self):
        depths = (2, 5, 10, 15, 20)
        combos = [(style, mode, depth)
                  for style in Style for mode in LexiconMode
                  for depth in depths]
        per_combo = 334  # 30 combos -> 10,020 instances
        total = failures = 0
        start = time.perf_counter()
        for style, mode, depth in combos:
            for i in range(per_combo):
                params = GenParams(max_depth=depth,
                                   seed=depth * 100_000 + i)
                g, code, tree = generate_instance(style, mode, params)
                total += 1
                if parse(code, g) != tree:
                    failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and total >= 10_000 and elapsed < 60.0
        _report(1, ok,
                f"{total - failures}/{total} round-trips held across "
                f"3 styles x 2 lexicons x D in {depths}, {elapsed:.1f}s")

    def test_criterion_2_parameter_fidelity(self):
        checked = bad_else = bad_expr = bad_depth = 0
        styles = list(Style)
        for p, want_else in ((0.0, False), (1.0, True)):
            for i in range(1000):
                depth = (2, 5, 10)[i % 3]
                e = (1, 2, 3)[i % 3]
                params = GenParams(max_depth=depth, else_prob=p,
                                   expr_depth=e, seed=i)
                _, _, tree = generate_instance(
                    styles[i % 3], LexiconMode.NATURAL, params)
                checked += 1
                for stmt in iter_statements(tree):
                    if isinstance(stmt, If):
                        has_else = stmt.orelse is not None
                        if has_else != want_else:
                            bad_else += 1
                for expr in iter_expressions(tree):
                    if expr_depth(expr) != e:
                        bad_expr += 1
                if control_depth(tree) != depth:
                    bad_depth += 1
        ok = bad_else == bad_expr == bad_depth == 0
        _report(2, ok,
                f"{checked} instances: else-branch counts exact at p=0 and "
                f"p=1 ({bad_else} bad), exprDepth exact ({bad_expr} bad), "
                f"controlDepth exact ({bad_depth} bad)")

    def test_criterion_3_perturbation_soundness(self):
        params = GenParams(max_depth=6, seed=2024)
        instances = make_dataset(TaskKind.JUDGMENT, 200, Style.BLOCK,
                                 LexiconMode.NATURAL, params)
        n_valid = sum(1 for i in instances if i.gold_label == "VALID")
        wrong = 0
        for inst in instances:
            g = grammar_from_text(inst.style, inst.lexicon_mode,
                                  inst.grammar_text)
            try:
                parse(inst.candidate, g)
                accepted = True
            except ParseError:
                accepted = False
            if accepted != (inst.gold_label == "VALID"):
                wrong += 1
        ok = wrong == 0 and n_valid == 100 and len(instances) == 200
        _report(3, ok,
                f"200-instance judgment set ({n_valid}/100 valid): "
                f"{200 - wrong}/200 labels confirmed by the parser")

    def test_criterion_4_interpreter_oracles(self):
        unroll_bad = 0
        for i in range(1000):
            rng = random.Random(i)
            params = GenParams(max_depth=3, max_block=3, seed=i)
            body = oracle_sample_block(1, params, rng)
            n = rng.randint(0, 5)
            looped = Program((Loop(Literal(n), body),))
            unrolled = Program(body * n)
            r1 = exec_program(looped, START_STATE)
            r2 = exec_program(unrolled, START_STATE)
            if not (isinstance(r1, Final) and isinstance(r2, Final)
                    and r1.state == r2.state):
                unroll_bad += 1

        shift_bad = 0
        params = GenParams(max_depth=4, seed=77)
        _, _, prog = generate_instance(Style.BLOCK, LexiconMode.NATURAL,
                                       params)
        base = exec_program(prog, START_STATE)
        for i in range(100):
            rng = random.Random(9000 + i)
            dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
            moved = RobotState(x=START_STATE.x + dx, y=START_STATE.y + dy,
                               facing=START_STATE.facing,
                               inventory=START_STATE.inventory)
            shifted = exec_program(prog, moved)
            if not (isinstance(shifted, Final) and isinstance(base, Final)
                    and shifted.state.x == base.state.x + dx
                    and shifted.state.y == base.state.y + dy
                    and shifted.state.facing == base.state.facing):
                shift_bad += 1

        cycle_bad = 0
        for facing in Facing:
            state = RobotState(x=0, y=0, facing=facing, inventory=())
            for direction in (TurnDir.LEFT, TurnDir.RIGHT):
                current = state
                for _ in range(4):
                    current = exec_program(
                        Program((ActionStmt(Turn(direction)),)), current
                    ).state
                if current != state:
                    cycle_bad += 1
        ok = unroll_bad == shift_bad == cycle_bad == 0
        _report(4, ok,
                f"loop unrolling {1000 - unroll_bad}/1000, translation "
                f"equivariance {100 - shift_bad}/100, turn cycles "
                f"{8 - cycle_bad}/8")

    def test_criterion_5_metric_containment_and_conditionals(self):
        # per-record containment violations abort at construction
        violations = 0
        try:
            EvalRecord("x", False, True, None, "")
        except ValueError:
            violations += 1
        try:
            EvalRecord("x", True, False, True, "")
        except ValueError:
            violations += 1

        records = []
        for i in range(200):
            parsed = i < 137
            behavioral = i < 120
            semantic = i < 79
            records.append(EvalRecord(f"r{i}", parsed, behavioral,
                                      semantic, ""))
        m = aggregate(records)
        contained = m.scr <= m.ber <= m.svr
        spot = (m.svr == 68.5 and m.ber == 60.0 and m.scr == 39.5
                and abs(m.cber - 87.6) <= 0.05
                and abs(m.cscr - 57.7) <= 0.05)
        ok = violations == 2 and contained and spot
        _report(5, ok,
                f"containment enforced ({violations}/2 bad records "
                f"rejected); BER=60.0/SVR=68.5 -> CBER={m.cber}; "
                f"SCR=39.5/SVR=68.5 -> CSCR={m.cscr}")

    def test_criterion_6_mock_model_end_to_end(self, tmp_path, monkeypatch):
        import urllib.request

        class _NoNetwork:
            def post(self, *args, **kwargs):
                raise AssertionError("network touched during mock run")

            def __call__(self, *args, **kwargs):
                raise AssertionError("network touched during mock run")

            def __getattr__(self, name):
                raise AssertionError("network touched during mock run")

        monkeypatch.setattr(urllib.request, "urlopen", _NoNetwork())
        start = time.perf_counter()
        perfect = EndpointConfig(base_url="mock://perfect",
                                 model_id="mock-perfect")
        rates = {}
        for offset, kind in enumerate(TaskKind):
            params = GenParams(max_depth=5, seed=6000 + offset)
            dataset = make_dataset(kind, 200, Style.BLOCK,
                                   LexiconMode.NATURAL, params)
            result = run_evaluation(dataset, perfect, PromptConfig(),
                                    cache_dir=tmp_path / "cache")
            m = result.metrics
            rates[kind.value] = (m.svr, m.ber, m.scr)
        perfect_ok = all(
            all(rate == 100.0 for rate in triple if rate is not None)
            for triple in rates.values()
        )

        params = GenParams(max_depth=5, seed=31337, expr_depth=2)
        dataset = make_dataset(TaskKind.INSTRUCTION, 50, Style.BLOCK,
                               LexiconMode.NATURAL, params)
        flatten = EndpointConfig(base_url="mock://flatten",
                                 model_id="mock-flatten")
        result = run_evaluation(dataset, flatten, PromptConfig(),
                                cache_dir=tmp_path / "cache")
        fm = result.metrics
        flatten_ok = (fm.svr == 100.0 and fm.ber == 100.0
                      and fm.scr < fm.ber)
        elapsed = time.perf_counter() - start
        ok = perfect_ok and flatten_ok and elapsed < 120.0
        _report(6, ok,
                f"perfect mock {rates}; flatten mock svr={fm.svr} "
                f"ber={fm.ber} scr={fm.scr}; {elapsed:.1f}s, no network")

    def test_criterion_7_replay_determinism(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        rc = cli_main(["gen", "--task", "instruction", "--n", "20",
                       "--depth", "5", "--seed", "41",
                       "--out", str(dataset)])
        assert rc == 0
        run_dir = tmp_path / "run"
        eval_args = ["eval", "--dataset", str(dataset),
                     "--base-url", "mock://perfect",
                     "--model", "mock-model",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out-dir", str(run_dir)]
        assert cli_main(eval_args) == 0
        capsys.readouterr()

        score_bytes = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = cli_main(["score", "--dataset", str(dataset),
                           "--responses", str(run_dir / "responses.jsonl"),
                           "--out-dir", str(out)])
            assert rc == 0
            score_bytes.append((out / "results.jsonl").read_bytes())
        replay_identical = score_bytes[0] == score_bytes[1]

        capsys.readouterr()
        assert cli_main(eval_args[:-1] + [str(tmp_path / "warm")]) == 0
        warm_calls_line = [line for line
                           in capsys.readouterr().out.splitlines()
                           if "model calls" in line]
        zero_calls = warm_calls_line == ["model calls: 0"]
        ok = replay_identical and zero_calls
        _report(7, ok,
                f"two score runs byte-identical={replay_identical}; "
                f"warm-cache eval reported {warm_calls_line}")

    def test_criterion_8_generation_determinism(self, tmp_path):
        digests = []
        for run, hashseed in enumerate(("0", "12345")):
            out = tmp_path / f"gen-{run}.jsonl"
            env = dict(os.environ,
                       PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run(
                [sys.executable, "-m", "gridlang.cli", "gen",
                 "--task", "judgment", "--n", "20", "--depth", "6",
                 "--seed", "13", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(out.read_bytes())
        ok = digests[0] == digests[1]
        _report(8, ok,
                "gen output byte-identical across processes with "
                "different hash seeds" if ok else
                "gen output differed across processes")
