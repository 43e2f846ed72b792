"""Scoring layers, aggregation arithmetic, and report rendering."""

import dataclasses
import functools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    ITEM_VOCAB,
    MAX_NESTING,
    ActionStmt,
    Literal,
    Loop,
    Program,
    Turn,
    TurnDir,
    canon_parse,
)
from gridlang.codec import linearize, parse
from gridlang.grammar import (
    LexiconMode,
    Style,
    TerminalRole as R,
    grammar_from_text,
)
from gridlang.metrics import (
    EvalRecord,
    aggregate,
    format_rate,
    render_csv,
    render_long_csv,
    render_report,
    score_generation,
    score_judgment,
)
from gridlang.sampler import GenParams
from gridlang.tasks import TaskKind, make_dataset, make_instance
from gridlang.world import BudgetExceeded, exec_program

from conftest import ALL_COMBOS, deep_surface


def _goal_instance(seed=31, depth=6):
    params = GenParams(max_depth=depth, seed=seed)
    return make_instance(TaskKind.GOAL, Style.BLOCK, LexiconMode.NATURAL,
                         params)


def _instruction_instance(seed=11, depth=5):
    params = GenParams(max_depth=depth, seed=seed)
    return make_dataset(TaskKind.INSTRUCTION, 1, Style.BLOCK,
                        LexiconMode.NATURAL, params)[0]


def _grammar(inst):
    return grammar_from_text(inst.style, inst.lexicon_mode,
                             inst.grammar_text)


@functools.lru_cache(maxsize=None)
def _small_goal(style, mode):
    return make_instance(TaskKind.GOAL, style, mode,
                         GenParams(max_depth=3, seed=5))


class TestEvalRecordContainment:
    def test_valid_shapes_construct(self):
        EvalRecord("a", False, None, None, "x")
        EvalRecord("b", True, False, None, "x")
        EvalRecord("c", True, True, False, "x")
        EvalRecord("d", True, True, True, "x")
        EvalRecord("e", True, None, None, "x")  # judgment shape

    def test_semantic_requires_behavioral(self):
        with pytest.raises(ValueError):
            EvalRecord("a", True, False, True, "x")
        with pytest.raises(ValueError):
            EvalRecord("a", True, None, True, "x")

    def test_behavioral_requires_parsed(self):
        with pytest.raises(ValueError):
            EvalRecord("a", False, True, None, "x")


# every verdict triple a scorer can give, by task, and its failure stage
REACHABLE_VERDICTS = [
    ("judgment", (False, None, None), "syntax"),
    ("judgment", (True, None, None), "pass"),
    ("goal", (False, False, None), "syntax"),
    ("goal", (True, False, None), "behavior"),
    ("goal", (True, True, None), "pass"),
    ("instruction", (False, False, False), "syntax"),
    ("instruction", (True, False, False), "behavior"),
    ("instruction", (True, True, False), "semantics"),
    ("instruction", (True, True, True), "pass"),
]


class TestFailureStage:
    @pytest.mark.parametrize("task,verdicts,stage", REACHABLE_VERDICTS)
    def test_stage_is_the_first_failing_layer(self, task, verdicts, stage):
        assert EvalRecord(task, *verdicts, "x").failure_stage == stage

    def test_stage_cannot_be_given_or_set(self):
        with pytest.raises(TypeError):
            EvalRecord("a", False, None, None, "pass", "x")
        with pytest.raises(TypeError):
            EvalRecord("a", True, True, True, "x", failure_stage="syntax")
        rec = EvalRecord("a", True, True, True, "x")
        with pytest.raises(AttributeError):
            rec.failure_stage = "syntax"
        assert rec.failure_stage == "pass"


class TestJudgmentScoring:
    def test_exact_answer(self):
        assert score_judgment("VALID", "VALID").parsed_ok
        assert not score_judgment("VALID", "INVALID").parsed_ok

    def test_final_occurrence_wins(self):
        answer = "At first glance invalid, but on reflection: VALID"
        assert score_judgment(answer, "VALID").parsed_ok
        assert not score_judgment(answer, "INVALID").parsed_ok

    def test_case_insensitive(self):
        assert score_judgment("the code is Invalid.", "INVALID").parsed_ok

    def test_word_boundary_required(self):
        # "invalidate" must not count as a verdict
        assert not score_judgment("this could invalidate things",
                                  "INVALID").parsed_ok

    def test_invalid_not_mistaken_for_valid(self):
        # the alternation must bind the whole word
        assert score_judgment("invalid", "INVALID").parsed_ok
        assert not score_judgment("invalid", "VALID").parsed_ok

    def test_no_verdict_fails(self):
        rec = score_judgment("I am not sure.", "VALID")
        assert not rec.parsed_ok
        assert rec.failure_stage == "syntax"
        assert not score_judgment("", "VALID").parsed_ok

    def test_bad_gold_label_rejected(self):
        with pytest.raises(ValueError):
            score_judgment("VALID", "valid")

    def test_judgment_record_shape(self):
        rec = score_judgment("VALID", "VALID", instance_id="judgment-00003")
        assert rec.instance_id == "judgment-00003"
        assert rec.parsed_ok
        assert rec.behavioral_ok is None and rec.semantic_ok is None
        assert rec.failure_stage == "pass"


class TestGenerationScoring:
    def test_gold_code_full_pass(self):
        inst = _goal_instance()
        rec = score_generation(inst.gold_code, inst, _grammar(inst))
        assert rec.parsed_ok and rec.behavioral_ok
        assert rec.semantic_ok is None  # no semantic layer for goal
        assert rec.failure_stage == "pass"

    def test_instruction_gold_passes_all_layers(self):
        inst = _instruction_instance()
        rec = score_generation(inst.gold_code, inst, _grammar(inst))
        assert rec.parsed_ok and rec.behavioral_ok and rec.semantic_ok
        assert rec.failure_stage == "pass"

    def test_unparseable_fails_at_syntax(self):
        inst = _instruction_instance()
        rec = score_generation("gibberish", inst, _grammar(inst))
        assert not rec.parsed_ok
        assert rec.behavioral_ok is False
        assert rec.semantic_ok is False
        assert rec.failure_stage == "syntax"

    def test_goal_syntax_failure_has_no_semantic_layer(self):
        inst = _goal_instance()
        rec = score_generation("gibberish", inst, _grammar(inst))
        assert not rec.parsed_ok and rec.behavioral_ok is False
        assert rec.semantic_ok is None

    def test_flattened_program_is_behavioral_pass_semantic_fail(self):
        inst = _instruction_instance(seed=11)
        g = _grammar(inst)
        tree = canon_parse(inst.gold_ast)
        from gridlang.harness import _flatten_program
        flat = _flatten_program(tree)
        assert flat != tree, "pick a seed with arithmetic"
        rec = score_generation(linearize(flat, g), inst, g)
        assert rec.parsed_ok and rec.behavioral_ok
        assert rec.semantic_ok is False
        assert rec.failure_stage == "semantics"

    def test_respaced_gold_ast_still_passes_semantics(self):
        inst = _instruction_instance()
        respaced = ("  " + inst.gold_ast.replace(" ", " \n\t ")
                    .replace("(", "( ") + "\n")
        assert respaced != inst.gold_ast
        assert canon_parse(respaced) == canon_parse(inst.gold_ast)
        rec = score_generation(inst.gold_code,
                               dataclasses.replace(inst, gold_ast=respaced),
                               _grammar(inst))
        assert rec.semantic_ok and rec.failure_stage == "pass"

    def test_behavioral_divergence_detected(self):
        inst = _goal_instance(seed=2, depth=3)
        g = _grammar(inst)
        code = (f"{g.token(R.DO)} {g.token(R.TURN)} "
                f"{g.token(R.DIR_LEFT)} {g.token(R.END)}")
        rec = score_generation(code, inst, g)
        assert rec.parsed_ok
        assert rec.behavioral_ok is False
        assert rec.failure_stage == "behavior"

    def test_budget_exhaustion_scores_behavioral_false(self):
        inst = _goal_instance(seed=0, depth=3)
        g = _grammar(inst)
        # 5**9 turns: past the step budget, so the answer never finishes
        nest = ActionStmt(Turn(TurnDir.LEFT))
        for _ in range(9):
            nest = Loop(Literal(5), (nest,))
        tree = canon_parse(inst.gold_ast)
        answer = linearize(Program(tree.body + (nest,)), g)
        assert isinstance(exec_program(parse(answer, g), inst.start_state),
                          BudgetExceeded)
        rec = score_generation(answer, inst, g)
        assert rec.parsed_ok
        assert rec.behavioral_ok is False
        assert rec.failure_stage == "behavior"

    def test_judgment_instances_rejected(self):
        params = GenParams(max_depth=4, seed=9)
        inst = make_dataset(TaskKind.JUDGMENT, 2, Style.BLOCK,
                            LexiconMode.NATURAL, params)[0]
        with pytest.raises(ValueError):
            score_generation("anything", inst, None)


class TestScoringIsTotal:
    """Untrusted answers always score; none raises or hangs."""

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663", "9" * 5000])
    def test_unconvertible_literals_fail_at_syntax(self, count):
        inst = _small_goal(Style.C, LexiconMode.NATURAL)
        g = _grammar(inst)
        t = g.token
        answer = (f"{t(R.LOOP)} ({count}) {t(R.LBR)} {t(R.TURN)} "
                  f"{t(R.DIR_LEFT)}; {t(R.RBR)}")
        assert score_generation(answer, inst, g).failure_stage == "syntax"

    @pytest.mark.parametrize("style", list(Style))
    def test_nesting_limit_scores(self, style):
        inst = _small_goal(style, LexiconMode.NATURAL)
        g = _grammar(inst)
        at_limit = score_generation(deep_surface(g, MAX_NESTING), inst, g)
        assert at_limit.parsed_ok
        past = score_generation(deep_surface(g, MAX_NESTING + 1), inst, g)
        assert past.failure_stage == "syntax"

    def test_3000_deep_c_answer_is_a_syntax_failure(self):
        inst = _small_goal(Style.C, LexiconMode.NATURAL)
        g = _grammar(inst)
        nested = "(" * 3000 + "1" + " + 1)" * 3000
        answer = f"{g.token(R.MOVE)} {g.token(R.DIR_FWD)} {nested};"
        assert score_generation(answer, inst, g).failure_stage == "syntax"

    def test_memory_does_not_grow_with_the_grab_count(self):
        inst = _small_goal(Style.C, LexiconMode.NATURAL)
        g = _grammar(inst)
        t = g.token

        def peak(count):
            answer = (f"{t(R.LOOP)} ({count}) {t(R.LBR)} {t(R.GRAB)} key; "
                      f"{t(R.RBR)}")
            tracemalloc.reset_peak()
            record = score_generation(answer, inst, g)
            assert record.failure_stage == "behavior"
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            peak(99)  # warm caches
            few, many = peak(9_999), peak(999_999)
        finally:
            tracemalloc.stop()
        assert many - few < 64 * 1024

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_COMBOS), st.data())
    def test_token_soup_scores_within_a_second(self, combo, data):
        inst = _small_goal(*combo)
        g = _grammar(inst)
        vocabulary = sorted(g.terminals.values()) + sorted(ITEM_VOCAB) + [
            "0", "7", "12", "\u0663", "\u00b2", "\uff15", "9" * 5000,
            "(" * 150, "zz", "@", "[", "]", "{", "}", "(", ")", ";"]
        words = data.draw(st.lists(st.sampled_from(vocabulary), max_size=60))
        start = time.perf_counter()
        rec = score_generation(" ".join(words), inst, g)
        assert isinstance(rec, EvalRecord)
        assert time.perf_counter() - start < 1.0


def _instruction_population():
    """137 parsed / 120 behavioral / 79 semantic out of 200."""
    records = []
    for i in range(200):
        if i < 79:
            rec = EvalRecord(f"r{i}", True, True, True, "")
        elif i < 120:
            rec = EvalRecord(f"r{i}", True, True, False, "")
        elif i < 137:
            rec = EvalRecord(f"r{i}", True, False, False, "")
        else:
            rec = EvalRecord(f"r{i}", False, False, False, "")
        records.append(rec)
    return records


class TestAggregation:
    def test_reference_population(self):
        m = aggregate(_instruction_population())
        assert m.n == 200
        assert m.svr == 68.5
        assert m.ber == 60.0
        assert m.scr == 39.5
        assert m.cber == 87.6
        assert m.cscr == 57.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mixed_layer_applicability_rejected(self):
        goal = EvalRecord("g", True, True, None, "code")
        instruction = EvalRecord("i", True, True, True, "code")
        with pytest.raises(ValueError):
            aggregate([goal, instruction])

    def test_zero_parse_rate_leaves_conditionals_undefined(self):
        records = [EvalRecord(f"r{i}", False, False, False, "")
                   for i in range(5)]
        m = aggregate(records)
        assert m.svr == 0.0
        assert m.cber is None and m.cscr is None

    def test_judgment_only_population(self):
        records = [
            EvalRecord("a", True, None, None, "VALID"),
            EvalRecord("b", False, None, None, "nope"),
        ]
        m = aggregate(records)
        assert m.svr == 50.0
        assert m.ber is None and m.scr is None
        assert m.cber is None and m.cscr is None

    def test_rounding_one_decimal(self):
        records = [
            EvalRecord("a", True, True, None, ""),
            EvalRecord("b", False, False, None, ""),
            EvalRecord("c", False, False, None, ""),
        ]
        m = aggregate(records)
        assert m.svr == 33.3
        assert m.cber == 100.0


class TestRendering:
    def _rows(self):
        judgment = aggregate([
            EvalRecord("a", True, None, None, "VALID"),
            EvalRecord("b", False, None, None, "nope"),
        ])
        goal = aggregate([
            EvalRecord("c", True, True, None, "x"),
            EvalRecord("d", False, False, None, "y"),
        ])
        instruction = aggregate([
            EvalRecord("e", True, True, True, "x"),
            EvalRecord("f", True, True, False, "y"),
        ])
        return [("model-x", TaskKind.JUDGMENT, judgment),
                ("model-x", TaskKind.GOAL, goal),
                ("model-x", TaskKind.INSTRUCTION, instruction)]

    def test_format_rate(self):
        assert format_rate(None) == "--"
        assert format_rate(0.0) == "0.0"
        assert format_rate(87.6) == "87.6"

    def test_report_sections_and_cells(self):
        report = render_report(self._rows())
        assert "## Task 1" in report
        assert "## Task 2" in report
        assert "## Task 3" in report
        assert "| model-x |" in report
        # the goal section carries SVR/BER/CBER but no semantic columns
        goal_section = report.split("## Task 2")[1].split("##")[0]
        assert "SCR" not in goal_section
        assert "CBER" in goal_section

    def test_sections_in_task_order_rows_in_given_order(self):
        rows = self._rows()[::-1] + [("model-y", TaskKind.GOAL,
                                      self._rows()[1][2])]
        report = render_report(rows)
        assert (report.index("## Task 1") < report.index("## Task 2")
                < report.index("## Task 3"))
        goal_section = report.split("## Task 2")[1].split("##")[0]
        assert goal_section.index("| model-x |") < \
            goal_section.index("| model-y |")

    def test_report_skips_absent_tasks(self):
        report = render_report([("m", TaskKind.GOAL, aggregate([
            EvalRecord("a", True, True, None, "x")]))])
        assert "## Task 2" in report
        assert "## Task 1" not in report and "## Task 3" not in report

    def test_csv_one_row_per_model_task(self):
        csv_text = render_csv(self._rows())
        lines = csv_text.strip().splitlines()
        assert lines[0] == "model,task,n,svr,ber,scr,cber,cscr"
        assert len(lines) == 4
        assert lines[1] == "model-x,judgment,2,50.0,--,--,--,--"
        assert lines[2] == "model-x,goal,2,50.0,50.0,--,100.0,--"
        assert lines[3] == \
            "model-x,instruction,2,100.0,100.0,50.0,100.0,50.0"

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            render_report([])
        with pytest.raises(ValueError):
            render_csv([])

    def test_long_csv(self):
        m = aggregate([EvalRecord("a", True, True, None, "x")])
        text = render_long_csv("depth", [(5, "m", "goal", m),
                                         (10, "m", "goal", m)])
        lines = text.strip().splitlines()
        assert lines[0] == "axis,value,model,task,metric,percentage"
        assert "depth,5,m,goal,svr,100.0" in lines
        assert "depth,10,m,goal,cber,100.0" in lines
        # no semantic rows for a task without that layer
        assert not any(",scr," in line for line in lines[1:])


class TestRecordToDict:
    def test_record_to_dict(self):
        rec = EvalRecord("id-1", True, True, None, "answer text")
        d = rec.to_dict()
        assert list(d) == ["instance_id", "parsed_ok", "behavioral_ok",
                           "semantic_ok", "failure_stage", "raw_answer"]
        assert d["instance_id"] == "id-1"
        assert d["failure_stage"] == "pass"
        assert d["raw_answer"] == "answer text"
