"""The benchmark's own tests, at a tiny size.

    python3 -m unittest discover -s perfbench -t perfbench

Run from the root of a gridlang checkout; they import gridlang from src/.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
from gridlang.grammar import LexiconMode, Style  # noqa: E402
from gridlang.harness import score_instance  # noqa: E402
from gridlang.sampler import GenParams  # noqa: E402
from gridlang.tasks import TaskKind, make_dataset  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

J, I, G = "judgment-d10", "instruction-d10-5shot", "goal-d20"
# traced function -> workloads on which it must record calls; this follows
# the layer table in README.md (the workload that does the layer's work)
DOES_WORK = {
    "grammar.build_grammar": (J, I, G),
    "grammar.render_ebnf": (J, I, G),
    "grammar.grammar_from_text": (J, I, G),
    "sampler.generate_instance": (J, I, G),
    "world.exec_program": (I, G),
    "world.step_bound": (J, I, G),
    "codec.tokenize": (J, I, G),
    "codec.parse": (J, I, G),
    "codec.linearize": (J, I, G),
    "ast.canon_serialize": (I, G),
    "ast.canon_parse": (I,),
    "tasks.make_dataset": (J, I, G),
    "tasks.perturb": (J,),
    "tasks.write_dataset": (J, I, G),
    "tasks.read_dataset": (J, I, G),
    "tasks.render_state": (G,),
    "tasks.render_instruction": (I,),
    "harness.run_evaluation": (J, I, G),
    "harness.build_prompt": (J, I, G),
    "harness.extract_code": (I, G),
    "harness.score_instance": (J, I, G),
    "metrics.score_generation": (I, G),
    "metrics.score_judgment": (J,),
    "metrics.aggregate": (J, I, G),
    "cli.main": (J, I, G),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], shard_n=4)


def traced_layers(name: str) -> tuple[dict, run.Ledger]:
    """Per-layer metrics of one tiny shard, run plain and then traced."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
    runner = run.Runner(ROOT, work, tiny(name), seed=7)
    try:
        plain = [runner.shard(0, traced=False)]
        plain[0]["prompt_chars"] = runner.prompt_chars(0)
        traced = [runner.shard(0, traced=True)]
        runner.traced_identical(0)
        metrics, _ = run.per_layer(plain, traced, {}, runner.ledger)
        return metrics, runner.ledger
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for group in ("end_to_end", "per_layer", "workloads"):
            names = [m["name"] for m in spec[group]]
            self.assertEqual(len(names), len(set(names)), group)
            for name in names:
                self.assertRegex(name, NAME_RE)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT_RE, metric["name"])
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))

    def test_per_layer_names_match_benchmark_json(self):
        metrics, _ = traced_layers(J)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(metrics))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], metrics[m["name"]][1], m["name"])


class Wrappers(unittest.TestCase):
    def test_install_then_uninstall_restores_originals(self):
        import gridlang.cli  # noqa: F401 - loads every traced module
        modules = {n: m for n, m in sys.modules.items()
                   if n == "gridlang" or n.startswith("gridlang.")}
        before = {(n, a): v for n, m in modules.items()
                  for a, v in vars(m).items() if callable(v)}
        tracer = spans.Tracer()
        tracer.install()
        try:
            codec = sys.modules["gridlang.codec"]
            cli = sys.modules["gridlang.cli"]
            self.assertIsNot(codec.parse, before[("gridlang.codec", "parse")])
            self.assertIs(cli.parse, codec.parse)  # from-import rebound too
        finally:
            tracer.uninstall()
        after = {(n, a): v for n, m in modules.items()
                 for a, v in vars(m).items() if callable(v)}
        self.assertEqual(before, after)

    def test_self_time_subtracts_union_of_children(self):
        parent = spans.Span("p", 0.0)
        parent.end = 10.0
        for start, end in ((1.0, 4.0), (2.0, 5.0), (7.0, 8.0)):
            child = spans.Span("c", start)
            child.end = end
            parent.children.append(child)
        self.assertAlmostEqual(parent.self_time(), 10.0 - 4.0 - 1.0)


class ShardMean(unittest.TestCase):
    def test_over_budget_shards_weigh_one_block_share(self):
        # heavy shards (k % BLOCK == 0) at e**10, the rest at 1: the mean's
        # log is 10 / BLOCK whether a run ends on a block boundary or not
        for count in (run.BLOCK, 2 * run.BLOCK, 2 * run.BLOCK + 5):
            shards = [{"k": k, "v": math.exp(10) if k % run.BLOCK == 0
                       else 1.0} for k in range(count)]
            self.assertAlmostEqual(
                math.log(run.shard_mean(shards, lambda s: s["v"])),
                10 / run.BLOCK, msg=count)


class LayerCoverage(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.layers = {name: traced_layers(name) for name in run.WORKLOADS}

    def test_every_traced_function_is_in_the_table(self):
        self.assertEqual(set(DOES_WORK), set(spans.traced_names()))

    def test_each_function_is_called_where_it_does_work(self):
        for fn, workloads in DOES_WORK.items():
            for name in workloads:
                metrics, _ = self.layers[name]
                self.assertGreater(metrics[f"{fn}.calls"][0], 0,
                                   f"{fn} on {name}")

    def test_judgment_never_executes_programs(self):
        metrics, _ = self.layers[J]
        self.assertEqual(metrics["world.exec_program.calls"][0], 0)

    def test_over_budget_answer_ends_in_budget_exceeded(self):
        for name in (I, G):
            metrics, _ = self.layers[name]
            self.assertEqual(
                metrics["world.exec_program.budget_exceeded"][0], 1, name)

    def test_every_check_passes_and_traced_artifacts_match(self):
        for name, (_, ledger) in self.layers.items():
            self.assertEqual(ledger.failures, [], name)
            self.assertGreater(ledger.attempted, 0, name)


class Synthesiser(unittest.TestCase):
    def test_intended_stages_equal_score_instance_verdicts(self):
        cases = ((TaskKind.JUDGMENT, Style.BLOCK, LexiconMode.NATURAL),
                 (TaskKind.INSTRUCTION, Style.C, LexiconMode.NATURAL),
                 (TaskKind.GOAL, Style.SEXPR, LexiconMode.ALIEN))
        for kind, style, mode in cases:
            instances = make_dataset(kind, 20, style, mode,
                                     GenParams(max_depth=4, seed=3))
            records = [json.loads(inst.to_json()) for inst in instances]
            rows = synth.synthesise(records, seed=5, over_budget=1)
            shapes = {row["shape"] for row in rows}
            weights = (synth.JUDGMENT_SHAPES if kind is TaskKind.JUDGMENT
                       else synth.CODE_SHAPES[kind.value])
            self.assertTrue(set(weights) <= shapes, kind)
            for inst, row in zip(instances, rows):
                record = score_instance(inst, row["response"])
                self.assertEqual(record.failure_stage, row["stage"],
                                 f"{kind.value} {row['shape']}")

    def test_same_seed_same_answers(self):
        instances = make_dataset(TaskKind.GOAL, 6, Style.C,
                                 LexiconMode.NATURAL,
                                 GenParams(max_depth=3, seed=1))
        records = [json.loads(i.to_json()) for i in instances]
        self.assertEqual(synth.synthesise(records, 9),
                         synth.synthesise(records, 9))


if __name__ == "__main__":
    unittest.main()
