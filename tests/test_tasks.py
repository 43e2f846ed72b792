"""Dataset construction: perturbations, labels, instruction templating."""

import difflib
import functools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    ITEM_VOCAB,
    ActionStmt,
    ArithOp,
    BinaryArith,
    BinaryBool,
    BoolOp,
    Grab,
    Holding,
    If,
    Literal,
    Loop,
    Move,
    MoveDir,
    Not,
    Program,
    Turn,
    TurnDir,
    canon_parse,
)
from gridlang.codec import ParseError, parse, tokenize
from gridlang.grammar import (
    LexiconMode,
    Style,
    build_grammar,
    grammar_from_text,
)
from gridlang import tasks
from gridlang.sampler import GenParams, generate_instance
from gridlang.seeding import derive_seed
from gridlang.harness import PromptConfig, build_prompt, read_responses
from gridlang.tasks import (
    DATASET_FORMAT,
    START_STATE,
    MalformedRecordError,
    PerturbCategory,
    PerturbationError,
    TaskInstance,
    TaskKind,
    make_dataset,
    make_instance,
    perturb,
    read_dataset,
    read_jsonl,
    render_instruction,
    render_state,
    write_dataset,
)
from gridlang.world import Facing, Final, RobotState, exec_program

from conftest import ALL_COMBOS, fixed_grammar, oracle_perturb


def _token_edit_size(before: str, after: str, g) -> int:
    """Token-level edit distance contribution of a single splice."""
    a = tokenize(before, g)[0]
    b = tokenize(after, g)[0]
    matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    changed = 0
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op != "equal":
            changed += max(i2 - i1, j2 - j1)
    return changed


class TestPerturbations:
    def _base(self, seed, style=Style.BLOCK):
        params = GenParams(max_depth=6, seed=seed)
        g, code, _ = generate_instance(style, LexiconMode.NATURAL, params)
        return g, code

    @pytest.mark.parametrize("category", list(PerturbCategory))
    def test_each_category_produces_rejected_small_edit(self, category):
        produced = 0
        for seed in range(12):
            g, code = self._base(seed)
            try:
                text, cat = perturb(code, g, random.Random(seed),
                                    category)
            except Exception:
                continue
            produced += 1
            assert cat is category
            assert text != code
            with pytest.raises(ParseError):
                parse(text, g)
            assert _token_edit_size(code, text, g) <= 3
        assert produced >= 8

    def test_unpinned_category_is_reported(self):
        g, code = self._base(3)
        seen = set()
        for k in range(40):
            _, cat = perturb(code, g, random.Random(k))
            seen.add(cat)
        assert len(seen) >= 3

    def test_deterministic_under_fixed_rng(self):
        g, code = self._base(7)
        t1, c1 = perturb(code, g, random.Random(99))
        t2, c2 = perturb(code, g, random.Random(99))
        assert (t1, c1) == (t2, c2)

    def test_keyword_corruption_leaves_structure(self):
        g, code = self._base(5)
        text, _ = perturb(code, g, random.Random(0),
                          PerturbCategory.KEYWORD_CORRUPT)
        # same token count, exactly one token replaced
        a = tokenize(code, g)[0]
        b = tokenize(text, g)[0]
        assert len(a) == len(b)
        assert sum(x != y for x, y in zip(a, b)) == 1

    def test_swap_flips_one_bracket(self):
        g, code = self._base(9)
        text, _ = perturb(code, g, random.Random(1),
                          PerturbCategory.DELIMITER_SWAP)
        diff = [(x, y) for x, y in zip(code, text) if x != y]
        assert len(diff) == 1
        pairs = {("{", "}"), ("}", "{"), ("(", ")"), (")", "("),
                 ("[", "]"), ("]", "[")}
        assert diff[0] in pairs

    def test_works_under_alien_lexicon(self):
        params = GenParams(max_depth=5, seed=21)
        g, code, _ = generate_instance(Style.C, LexiconMode.ALIEN, params)
        for category in PerturbCategory:
            text, _ = perturb(code, g, random.Random(4), category)
            with pytest.raises(ParseError):
                parse(text, g)


class TestPerturbMatchesReference:
    """``perturb`` finds its sites on ``codec.tokenize``'s symbol list;
    the reference in conftest finds them on its own splitter's words.  From
    the same rng both make the same text and category, or both give up."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(ALL_COMBOS),
           st.sampled_from([*PerturbCategory, None]),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_perturb_matches_reference(self, combo, category, seed, data):
        style, mode = combo
        if data.draw(st.booleans(), label="word soup"):
            g = build_grammar(style, mode, data.draw(st.integers(0, 10 ** 6)))
            vocabulary = sorted(g.terminals.values()) + sorted(ITEM_VOCAB) + [
                "0", "7", "12", "9" * 5000, "\u0663", "zz", "@"]
            spaces = st.sampled_from(["", " ", "\n", "\t", "\r\n", "\x1c",
                                      "\u00a0", "\u2003", "\u2028",
                                      "\u3000"])
            text = "".join(data.draw(spaces) + word for word in data.draw(
                st.lists(st.sampled_from(vocabulary), max_size=40)))
        else:
            g, text, _tree = generate_instance(style, mode, GenParams(
                max_depth=data.draw(st.sampled_from([2, 5, 10, 20])),
                seed=data.draw(st.integers(0, 10 ** 6))))
        text += data.draw(st.sampled_from(["", "\t", "\n", " \t\n\t"]))
        outcomes = []
        for perturber in (perturb, oracle_perturb):
            try:
                outcomes.append(perturber(text, g, random.Random(seed),
                                          category))
            except PerturbationError:
                outcomes.append(PerturbationError)
        assert outcomes[0] == outcomes[1]


class TestJudgmentSets:
    def test_alternation_balance_and_categories(self):
        params = GenParams(max_depth=6, seed=17)
        instances = make_dataset(TaskKind.JUDGMENT, 40, Style.BLOCK,
                                 LexiconMode.NATURAL, params)
        assert len(instances) == 40
        labels = [inst.gold_label for inst in instances]
        assert labels == ["VALID", "INVALID"] * 20
        categories = [inst.perturb_category for inst in instances
                      if inst.gold_label == "INVALID"]
        assert len(categories) == 20
        # four categories cycle uniformly over the invalid half
        assert [c.value for c in categories[:4]] == [
            c.value for c in list(PerturbCategory)]
        for cat in PerturbCategory:
            assert categories.count(cat) == 5

    def test_labels_verified_by_parser(self):
        params = GenParams(max_depth=5, seed=2)
        for inst in make_dataset(TaskKind.JUDGMENT, 20, Style.SEXPR,
                                 LexiconMode.ALIEN, params):
            g = grammar_from_text(inst.style, inst.lexicon_mode,
                                  inst.grammar_text)
            if inst.gold_label == "VALID":
                parse(inst.candidate, g)
            else:
                with pytest.raises(ParseError):
                    parse(inst.candidate, g)

    def test_odd_or_empty_sizes_rejected(self):
        params = GenParams(max_depth=4, seed=0)
        for bad in (0, -2, 7):
            with pytest.raises(ValueError):
                make_dataset(TaskKind.JUDGMENT, bad, Style.BLOCK,
                             LexiconMode.NATURAL, params)

    @pytest.mark.parametrize("failures", [3, 10])
    def test_degenerate_base_program_is_resampled(self, monkeypatch,
                                                  failures):
        """Each base program ``perturb`` gives up on is drawn again from a
        derived seed, ten times at most."""
        bases, real = [], tasks.perturb

        def flaky(code, g, rng, category):
            bases.append(code)
            if len(bases) <= failures:
                raise PerturbationError("no viable site")
            return real(code, g, rng, category)

        monkeypatch.setattr(tasks, "perturb", flaky)
        params = GenParams(max_depth=4, seed=9)
        build = functools.partial(
            tasks._perturbed_candidate, Style.BLOCK, LexiconMode.NATURAL,
            params, PerturbCategory.DELIMITER_DELETE)
        if failures == 10:
            with pytest.raises(PerturbationError, match="^could not build a "
                               "delimiter_delete perturbation near seed 9$"):
                build()
            assert len(bases) == 10
        else:
            g, text = build()
            assert len(bases) == failures + 1
            retry = replace(params, seed=derive_seed(9, "retry", failures))
            assert bases[-1] == generate_instance(
                Style.BLOCK, LexiconMode.NATURAL, retry)[1]
            with pytest.raises(ParseError):
                parse(text, g)
        assert len(set(bases)) == len(bases)

    def test_valid_candidates_keep_gold_fields_empty(self):
        params = GenParams(max_depth=4, seed=6)
        for inst in make_dataset(TaskKind.JUDGMENT, 8, Style.C,
                                 LexiconMode.NATURAL, params):
            assert inst.kind is TaskKind.JUDGMENT
            assert inst.start_state is None
            assert inst.gold_code is None
            if inst.gold_label == "VALID":
                assert inst.perturb_category is None


class TestGoalInstances:
    def test_self_consistency(self):
        params = GenParams(max_depth=8, seed=31)
        inst = make_instance(TaskKind.GOAL, Style.C, LexiconMode.NATURAL,
                             params)
        g = grammar_from_text(inst.style, inst.lexicon_mode,
                              inst.grammar_text)
        tree = parse(inst.gold_code, g)
        assert tree == canon_parse(inst.gold_ast)
        result = exec_program(tree, inst.start_state)
        assert isinstance(result, Final)
        assert result.state == inst.target_state

    def test_deep_goal_states_and_prompts_stay_small(self):
        # deep programs grab thousands of copies; states and prompts must
        # grow with the kinds held, not the copies
        params = GenParams(max_depth=10, seed=5)
        dataset = make_dataset(TaskKind.GOAL, 200, Style.C,
                               LexiconMode.NATURAL, params)
        assert max(sum(n for _, n in inst.target_state.inventory)
                   for inst in dataset) > 1000
        for inst in dataset:
            assert len(inst.target_state.inventory) <= 30
            assert len(build_prompt(inst, PromptConfig())) <= 32_000


# the condition scheme: leaves bare, every operator child parenthesized,
# top level bare
A2_PROGRAM = Program((
    ActionStmt(Move(MoveDir.BACKWARD,
                    BinaryArith(ArithOp.MUL,
                                BinaryArith(ArithOp.MUL, Literal(4),
                                            Literal(4)),
                                BinaryArith(ArithOp.ADD, Literal(4),
                                            Literal(3))))),
    ActionStmt(Move(MoveDir.FORWARD,
                    BinaryArith(ArithOp.ADD, Literal(5), Literal(1)))),
    Loop(BinaryArith(ArithOp.ADD,
                     BinaryArith(ArithOp.MUL, Literal(4), Literal(0)),
                     Literal(4)),
         (If(BinaryBool(BoolOp.AND,
                        Not(Holding("key")),
                        BinaryBool(BoolOp.AND,
                                   Holding("box_0"),
                                   Holding("cube"))),
             (ActionStmt(Turn(TurnDir.LEFT)),),
             (ActionStmt(Move(MoveDir.BACKWARD, Literal(3))),)),)),
    If(Not(BinaryBool(BoolOp.AND,
                      Holding("box_2"),
                      Holding("ball_0"))),
       (If(Not(BinaryBool(BoolOp.AND,
                          Holding("box"),
                          Holding("key"))),
           (ActionStmt(Grab("key_2")),),
           None),),
       (ActionStmt(Turn(TurnDir.RIGHT)),)),
))

A2_TEXT = (
    "Step 1: Move backward ((4 times 4) times (4 plus 3)) steps. "
    "Step 2: Move forward (5 plus 1) steps. "
    "Step 3: Repeat ((4 times 0) plus 4) times: "
    "[ If (not (holding key)) and ((holding box_0) and (holding cube)), "
    "then: [ Turn left. ] Otherwise: [ Move backward 3 steps. ] ] "
    "Step 4: If not ((holding box_2) and (holding ball_0)), "
    "then: [ If not ((holding box) and (holding key)), "
    "then: [ Grab the key_2. ] ] Otherwise: [ Turn right. ]"
)


class TestInstructionRendering:
    def test_frozen_reference_text(self):
        assert render_instruction(A2_PROGRAM) == A2_TEXT

    def test_move_without_count_renders_one(self):
        prog = Program((
            ActionStmt(Move(MoveDir.FORWARD, Literal(1))),
        ))
        assert render_instruction(prog) == "Step 1: Move forward 1 steps."

    def test_injective_over_samples(self):
        seen = {}
        for seed in range(150):
            params = GenParams(max_depth=4, seed=seed)
            _, _, tree = generate_instance(Style.BLOCK,
                                           LexiconMode.NATURAL, params)
            text = render_instruction(tree)
            if text in seen:
                assert seen[text] == tree
            seen[text] = tree

    def test_instruction_english_survives_alien_lexicon(self):
        params = GenParams(max_depth=5, seed=8)
        dataset = make_dataset(TaskKind.INSTRUCTION, 4, Style.SEXPR,
                               LexiconMode.ALIEN, params)
        for inst in dataset:
            assert "v_" not in inst.instruction
            assert inst.instruction.startswith("Step 1:")
            assert "v_" in inst.gold_code

    def test_state_rendering(self):
        empty = RobotState(x=0, y=0, facing=Facing.N, inventory=())
        assert render_state(empty) == "pos (0, 0), facing N, inventory empty"
        loaded = RobotState(x=-2, y=7, facing=Facing.W,
                            inventory=(("ball_1", 1), ("key", 1)))
        assert render_state(loaded) == \
            "pos (-2, 7), facing W, inventory [ball_1, key]"

    def test_repeats_are_spelled_once_with_a_count(self):
        state = RobotState(x=2, y=-1, facing=Facing.W,
                           inventory=(("key_2", 3), ("box", 1)))
        assert render_state(state) == \
            "pos (2, -1), facing W, inventory [box, key_2 x3]"


class TestDatasets:
    def _dataset(self, kind, n=6):
        params = GenParams(max_depth=5, seed=101)
        return make_dataset(kind, n, Style.C, LexiconMode.NATURAL, params)

    def test_ids_are_sequential(self):
        data = self._dataset(TaskKind.GOAL)
        assert [inst.id for inst in data] == [
            f"goal-{i:05d}" for i in range(6)]

    def test_instances_differ(self):
        data = self._dataset(TaskKind.INSTRUCTION)
        assert len({inst.gold_code for inst in data}) == 6

    def test_deterministic(self):
        assert self._dataset(TaskKind.GOAL) == self._dataset(TaskKind.GOAL)

    def test_file_round_trip(self, tmp_path):
        data = self._dataset(TaskKind.INSTRUCTION)
        path = tmp_path / "data.jsonl"
        config = {"task": "instruction", "n": 6}
        write_dataset(data, path, config)
        assert read_dataset(path) == data
        assert next(read_jsonl(path, "id"), None) == config

    @pytest.mark.parametrize("depth", [2, 10])
    @pytest.mark.parametrize("combo", ALL_COMBOS)
    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_every_instance_regenerates_from_its_record(self, tmp_path,
                                                        kind, combo, depth):
        # eight judgment instances cycle through every perturb category
        style, mode = combo
        path = tmp_path / "data.jsonl"
        write_dataset(make_dataset(kind, 8, style, mode,
                                   GenParams(max_depth=depth, seed=depth)),
                      path)
        records = read_dataset(path)
        assert len(records) == 8
        for i, rec in enumerate(records):
            assert make_instance(kind, style, mode, rec.params, i) == rec

    def test_round_trip_without_config(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=2)
        path = tmp_path / "plain.jsonl"
        write_dataset(data, path)
        assert read_dataset(path) == data
        assert next(read_jsonl(path, "id"), None) is None

    def test_malformed_line_number_reported(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=3)
        path = tmp_path / "broken.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError) as info:
            read_dataset(path)
        assert info.value.line_no == 2

    def test_repeated_id_rejected_naming_its_first_line(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=3)
        path = tmp_path / "twice.jsonl"
        write_dataset([data[0], data[1], replace(data[2], id=data[0].id)],
                      path, {"task": "goal"})
        with pytest.raises(MalformedRecordError,
                           match="duplicate id 'goal-00000', first used on "
                                 "line 2") as info:
            read_dataset(path)
        assert info.value.line_no == 4

    def test_unknown_field_rejected_with_line(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=2)
        path = tmp_path / "extra.jsonl"
        write_dataset(data, path, {"task": "goal"})
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        row["surprise"] = 1
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError) as info:
            read_dataset(path)
        assert info.value.line_no == 3

    def _rewrite(self, path, edit):
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        edit(rows)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

    def test_list_form_file_reads_to_equal_states(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=12)
        assert any(n > 1 for inst in data
                   for _, n in inst.target_state.inventory)
        path = tmp_path / "listed.jsonl"
        write_dataset(data, path)

        def to_lists(rows):
            for row in rows:
                for name in ("start_state", "target_state"):
                    held = row[name]["inventory"]
                    # one entry per copy, as older files hold them
                    row[name]["inventory"] = [
                        item for item, n in reversed(held.items())
                        for _ in range(n)]

        self._rewrite(path, to_lists)
        assert read_dataset(path) == data

    @pytest.mark.parametrize("held", [
        {"key": 0}, {"key": -1}, {"key": 1.5}, {"key": True}, {"key": "3"},
        {"rock": 1}, {"key_\u0663": 1}, ["key_\u0663"],
    ])
    def test_bad_inventory_reported_with_its_line(self, tmp_path, held):
        data = self._dataset(TaskKind.GOAL, n=3)
        path = tmp_path / "bad.jsonl"
        write_dataset(data, path, {"dataset_format": DATASET_FORMAT})

        def spoil(rows):
            rows[2]["target_state"]["inventory"] = held

        self._rewrite(path, spoil)
        with pytest.raises(MalformedRecordError) as info:
            read_dataset(path)
        assert info.value.line_no == 3

    @pytest.mark.parametrize("name", ["id", "kind", "style", "lexicon_mode",
                                      "params", "grammar_text"])
    def test_missing_field_reported_with_its_line(self, tmp_path, name):
        path = tmp_path / "missing.jsonl"
        write_dataset(self._dataset(TaskKind.GOAL, n=3), path)

        def spoil(rows):
            del rows[1][name]

        self._rewrite(path, spoil)
        with pytest.raises(MalformedRecordError,
                           match=f"missing field '{name}'") as info:
            read_dataset(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("value", [1.9, True, " 7 ", None])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_bad_coordinate_reported_with_its_line(self, tmp_path, name,
                                                   value):
        path = tmp_path / "coord.jsonl"
        write_dataset(self._dataset(TaskKind.GOAL, n=3), path)

        def spoil(rows):
            rows[1]["start_state"][name] = value

        self._rewrite(path, spoil)
        with pytest.raises(MalformedRecordError,
                           match="coordinates must be ints") as info:
            read_dataset(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("params", [
        [], 5, None, {"D": "x"}, {"p": None}, {"D": True}, {"seed": 1.5},
    ])
    def test_bad_params_reported_with_its_line(self, tmp_path, params):
        path = tmp_path / "params.jsonl"
        write_dataset(self._dataset(TaskKind.GOAL, n=3), path)

        def spoil(rows):
            if isinstance(params, dict):
                rows[1]["params"].update(params)
            else:
                rows[1]["params"] = params

        self._rewrite(path, spoil)
        with pytest.raises(MalformedRecordError, match="^line 2: ") as info:
            read_dataset(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("kind, name", [
        (TaskKind.GOAL, "id"), (TaskKind.GOAL, "grammar_text"),
        (TaskKind.JUDGMENT, "candidate"), (TaskKind.INSTRUCTION, "instruction"),
        (TaskKind.GOAL, "gold_code"), (TaskKind.GOAL, "gold_ast"),
    ])
    @pytest.mark.parametrize("value", [5, ["text"], {"a": "b"}])
    def test_text_field_of_another_type_reported_with_its_line(
            self, tmp_path, kind, name, value):
        path = tmp_path / "text.jsonl"
        write_dataset(self._dataset(kind, n=2), path,
                      {"dataset_format": DATASET_FORMAT})

        def spoil(rows):
            rows[2][name] = value

        self._rewrite(path, spoil)
        with pytest.raises(MalformedRecordError,
                           match=f"{name} must be a string") as info:
            read_dataset(path)
        assert info.value.line_no == 3

    @pytest.mark.parametrize("kind", list(TaskKind))
    @pytest.mark.parametrize("name", ["id", "kind", "style", "lexicon_mode",
                                      "params", "grammar_text"])
    def test_always_present_field_set_to_null_reported_with_its_line(
            self, tmp_path, kind, name):
        path = tmp_path / "null.jsonl"
        write_dataset(self._dataset(kind, n=2), path,
                      {"dataset_format": DATASET_FORMAT})

        def spoil(rows):
            rows[2][name] = None

        self._rewrite(path, spoil)
        with pytest.raises(MalformedRecordError, match="^line 3: ") as info:
            read_dataset(path)
        assert info.value.line_no == 3

    def test_newer_format_refused_naming_both_versions(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=2)
        path = tmp_path / "future.jsonl"
        newer = DATASET_FORMAT + 1
        write_dataset(data, path, {"dataset_format": newer})
        config = next(read_jsonl(path, "id"), None)
        assert config["dataset_format"] == newer
        with pytest.raises(MalformedRecordError,
                           match=f"format {newer} .*format {DATASET_FORMAT}"
                           ) as info:
            read_dataset(path)
        assert info.value.line_no == 1

    @pytest.mark.parametrize("version", ["2", True, 0, 1.0])
    def test_malformed_format_refused(self, tmp_path, version):
        path = tmp_path / "odd.jsonl"
        write_dataset(self._dataset(TaskKind.GOAL, n=2), path,
                      {"dataset_format": version})
        with pytest.raises(MalformedRecordError):
            read_dataset(path)

    @pytest.mark.parametrize("config", [{"dataset_format": 1},
                                        {"task": "goal"}])
    def test_older_and_unversioned_files_read(self, tmp_path, config):
        data = self._dataset(TaskKind.GOAL, n=2)
        path = tmp_path / "old.jsonl"
        write_dataset(data, path, config)
        assert read_dataset(path) == data

    def test_config_line_only_honored_at_top(self, tmp_path):
        data = self._dataset(TaskKind.GOAL, n=2)
        path = tmp_path / "midconfig.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        lines.insert(2, json.dumps({"_config": {"task": "goal"}}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError):
            read_dataset(path)


class TestOneReader:
    """Datasets and responses files are read by one line reader, so a
    fault they can both hold is reported in the same words."""

    GOAL = GenParams(max_depth=3, seed=7)

    @pytest.mark.parametrize("fault, message", [
        ("{oops", "invalid JSON: Expecting property name enclosed in double "
                  "quotes at column 2"),
        ("5", "not a JSON object"),
        ('{"_config": {}}', "a _config line must be the first line"),
        # written as the byte 0xff, which is not UTF-8
        ('{"\udcff": 1}', "not UTF-8 text: byte 0xff at column 3"),
        (None, "duplicate {id_field} 'goal-00000', first used on line 2"),
    ])
    @pytest.mark.parametrize("reader", ["dataset", "responses"])
    def test_same_fault_same_message(self, tmp_path, reader, fault,
                                     message):
        if reader == "dataset":
            row = make_instance(TaskKind.GOAL, Style.C, LexiconMode.NATURAL,
                                self.GOAL).to_json()
            read, id_field = read_dataset, "id"
        else:
            row = json.dumps({"instance_id": "goal-00000", "response": "x"})
            read, id_field = read_responses, "instance_id"
        path = tmp_path / f"{reader}.jsonl"
        path.write_text('{"_config": {}}\n' + row + "\n"
                        + (row if fault is None else fault) + "\n",
                        encoding="utf-8", errors="surrogateescape")
        with pytest.raises(MalformedRecordError) as info:
            read(path)
        assert str(info.value) == "line 3: " + message.format(
            id_field=id_field)
        assert info.value.line_no == 3

    def test_reads_utf8_text_with_any_newline(self, tmp_path):
        rows = [json.dumps({"instance_id": f"i{k}", "response": text},
                           ensure_ascii=False)
                for k, text in enumerate(["caf\u00e9", "\u2192 \U0001f600",
                                          "x"])]
        path = tmp_path / "responses.jsonl"
        path.write_bytes("\r\n".join(rows[:2]).encode() + b"\r"
                         + rows[2].encode() + b"\n")
        assert {key: row["response"] for key, row
                in read_responses(path).items()} == {
            "i0": "caf\u00e9", "i1": "\u2192 \U0001f600", "i2": "x"}

    def test_blank_first_line_reads_with_no_provenance(self, tmp_path):
        row = make_instance(TaskKind.GOAL, Style.C, LexiconMode.NATURAL,
                            self.GOAL).to_json()
        path = tmp_path / "data.jsonl"
        path.write_text("\n" + row + "\n")
        rows = read_jsonl(path, "id")
        assert next(rows) is None
        assert [line_no for line_no, _row in rows] == [2]
        assert [inst.id for inst in read_dataset(path)] == ["goal-00000"]

    def test_state_that_is_no_object_refused_with_its_line(self, tmp_path):
        row = json.loads(make_instance(TaskKind.GOAL, Style.C,
                                       LexiconMode.NATURAL,
                                       self.GOAL).to_json())
        row["start_state"] = 5
        path = tmp_path / "data.jsonl"
        path.write_text('{"_config": {}}\n' + json.dumps(row) + "\n")
        with pytest.raises(MalformedRecordError,
                           match="^line 2: state is not an object: 5$"):
            read_dataset(path)

    @pytest.mark.parametrize("first", ["{oops", "[1]"])
    def test_config_reader_refuses_a_first_line_that_is_no_object(
            self, tmp_path, first):
        path = tmp_path / "data.jsonl"
        path.write_text(first + "\n")
        with pytest.raises(MalformedRecordError, match="^line 1: "):
            next(read_jsonl(path, "id"), None)


class TestInstanceValidation:
    def _goal_kwargs(self):
        params = GenParams(max_depth=4, seed=1)
        inst = make_instance(TaskKind.GOAL, Style.BLOCK,
                             LexiconMode.NATURAL, params)
        return {
            "id": inst.id, "kind": inst.kind, "style": inst.style,
            "lexicon_mode": inst.lexicon_mode, "params": inst.params,
            "grammar_text": inst.grammar_text,
            "start_state": inst.start_state,
            "target_state": inst.target_state,
            "gold_code": inst.gold_code, "gold_ast": inst.gold_ast,
        }

    @pytest.mark.parametrize("name", ["id", "grammar_text"])
    def test_always_present_text_field_may_not_be_none(self, name):
        kwargs = self._goal_kwargs()
        kwargs[name] = None
        with pytest.raises(ValueError, match=f"^{name} must be a string"):
            TaskInstance(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("kind", None), ("kind", "goal"), ("style", None), ("style", "block"),
        ("lexicon_mode", None), ("lexicon_mode", "block"), ("params", None),
        ("params", {"max_depth": 4, "seed": 1}), ("start_state", {"x": 0}),
        ("target_state", "(0, 0)"), ("gold_ast", 5),
        ("perturb_category", "delimiter_delete"),
    ])
    def test_field_of_another_type_is_refused_by_name(self, name, value):
        inst = TaskInstance(**self._goal_kwargs())
        with pytest.raises(ValueError, match=f"^{name} must be a "):
            replace(inst, **{name: value})

    def test_goal_missing_required_field(self):
        kwargs = self._goal_kwargs()
        kwargs["target_state"] = None
        with pytest.raises(ValueError):
            TaskInstance(**kwargs)

    def test_goal_forbids_judgment_fields(self):
        kwargs = self._goal_kwargs()
        kwargs["candidate"] = "do turn left end"
        with pytest.raises(ValueError):
            TaskInstance(**kwargs)

    def test_bad_label_rejected(self):
        kwargs = self._goal_kwargs()
        params = GenParams(max_depth=4, seed=3)
        j = make_dataset(TaskKind.JUDGMENT, 2, Style.BLOCK,
                         LexiconMode.NATURAL, params)[0]
        with pytest.raises(ValueError):
            TaskInstance(
                id=j.id, kind=j.kind, style=j.style,
                lexicon_mode=j.lexicon_mode, params=j.params,
                grammar_text=j.grammar_text, candidate=j.candidate,
                gold_label="MAYBE",
            )

    def test_category_only_on_invalid(self):
        params = GenParams(max_depth=4, seed=3)
        j = make_dataset(TaskKind.JUDGMENT, 2, Style.BLOCK,
                         LexiconMode.NATURAL, params)[0]
        assert j.gold_label == "VALID"
        with pytest.raises(ValueError):
            TaskInstance(
                id=j.id, kind=j.kind, style=j.style,
                lexicon_mode=j.lexicon_mode, params=j.params,
                grammar_text=j.grammar_text, candidate=j.candidate,
                gold_label="VALID",
                perturb_category=PerturbCategory.DELIMITER_DELETE,
            )

    def test_json_round_trip(self):
        params = GenParams(max_depth=5, seed=44)
        for kind in TaskKind:
            for inst in make_dataset(kind, 2, Style.SEXPR,
                                     LexiconMode.ALIEN, params):
                assert TaskInstance.from_dict(json.loads(inst.to_json())) \
                    == inst
