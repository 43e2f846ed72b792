"""Prompt assembly, answer extraction, HTTP behavior, and caching."""

import concurrent.futures
import contextlib
import dataclasses
import gc
import hashlib
import http.server
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlang.ast import (
    ITEM_VOCAB,
    ActionStmt,
    BinaryArith,
    Grab,
    Holding,
    Literal,
    Loop,
    Program,
    Turn,
    TurnDir,
    canon_parse,
    canon_serialize,
)
from gridlang import cli, codec, harness
from gridlang.codec import linearize, parse, tokenize
from gridlang.grammar import (
    LexiconMode,
    Style,
    build_grammar,
    grammar_from_text,
)
from gridlang.harness import (
    _last_fenced_block,
    _flatten_answer,
    _flatten_program,
    EndpointConfig,
    HarnessError,
    PromptConfig,
    build_prompt,
    call_model,
    extract_code,
    read_responses,
    run_evaluation,
    score_answers,
    score_instance,
)
from gridlang.metrics import _LABEL_RE
from gridlang.prompts import (
    CANDIDATE_HEADER,
    DEMO_ANSWER_HEADER,
    EBNF_HEADER,
    GENERATION_OPENER,
    INSTRUCTION_HEADER,
    JUDGMENT_OPENER,
    JUDGMENT_TASK_LINE,
    MAIN_HEADER,
)
from gridlang.sampler import GenParams, generate_instance
from gridlang.tasks import (
    DATASET_FORMAT,
    TaskKind,
    make_dataset,
    perturb,
    render_instruction,
    render_state,
    write_dataset,
)
from gridlang.world import START_STATE, Final, exec_program

from conftest import (
    ALL_COMBOS,
    FENCE_RE,
    cache_entries,
    fixed_grammar,
    oracle_extract_code,
)

TOKEN_VAR = "GRIDLANG_TEST_TOKEN"


def _dataset(kind, n=2, seed=5, style=Style.BLOCK):
    params = GenParams(max_depth=4, seed=seed)
    return make_dataset(kind, n, style, LexiconMode.NATURAL, params)


def _walk(node):
    """Every dataclass node of a tree, depth first."""
    if isinstance(node, tuple):
        for item in node:
            yield from _walk(item)
    elif dataclasses.is_dataclass(node):
        yield node
        for f in dataclasses.fields(node):
            yield from _walk(getattr(node, f.name))


def _mock_cfg(scheme="perfect"):
    return EndpointConfig(base_url=f"mock://{scheme}", model_id="mock-model")


class TestPromptAssembly:
    def test_judgment_prompt_content(self):
        inst = _dataset(TaskKind.JUDGMENT)[0]
        prompt = build_prompt(inst, PromptConfig(shots=0, cot=True))
        assert prompt.startswith(JUDGMENT_OPENER)
        assert JUDGMENT_TASK_LINE in prompt
        assert "EBNF:" in prompt
        assert inst.grammar_text in prompt
        assert "Code to Check:" in prompt
        assert inst.candidate in prompt
        assert "Example" not in prompt  # zero-shot has no demo blocks
        assert MAIN_HEADER not in prompt

    def test_generation_prompt_content(self):
        inst = _dataset(TaskKind.GOAL)[0]
        prompt = build_prompt(inst, PromptConfig(shots=0, cot=True))
        assert prompt.startswith(GENERATION_OPENER)
        assert "Start state:" in prompt
        assert "Target final state:" in prompt

    def test_instruction_prompt_content(self):
        inst = _dataset(TaskKind.INSTRUCTION)[0]
        prompt = build_prompt(inst, PromptConfig(shots=0, cot=True))
        assert "Instructions:" in prompt
        assert inst.instruction in prompt

    def test_cot_toggle_changes_directive(self):
        inst = _dataset(TaskKind.GOAL)[0]
        with_cot = build_prompt(inst, PromptConfig(shots=0, cot=True))
        direct = build_prompt(inst, PromptConfig(shots=0, cot=False))
        assert with_cot != direct
        assert with_cot.count(inst.grammar_text) == 1
        assert direct.count(inst.grammar_text) == 1

    @pytest.mark.parametrize("shots", [1, 2, 5])
    def test_few_shot_blocks(self, shots):
        inst = _dataset(TaskKind.JUDGMENT)[0]
        prompt = build_prompt(inst, PromptConfig(shots=shots, cot=True))
        for j in range(1, shots + 1):
            assert f"Example {j}:" in prompt
        assert f"Example {shots + 1}:" not in prompt
        assert prompt.count("Answer:") == shots
        assert MAIN_HEADER in prompt
        # demos must not leak the instance under test
        assert prompt.count(inst.candidate) == 1

    def test_few_shot_judgment_demos_alternate_labels(self):
        inst = _dataset(TaskKind.JUDGMENT)[0]
        prompt = build_prompt(inst, PromptConfig(shots=2, cot=True))
        demo_region = prompt.split(MAIN_HEADER)[0]
        assert "VALID" in demo_region and "INVALID" in demo_region

    def test_generation_demo_answers_are_fenced(self):
        inst = _dataset(TaskKind.GOAL)[0]
        prompt = build_prompt(inst, PromptConfig(shots=1, cot=True))
        demo_region = prompt.split(MAIN_HEADER)[0]
        assert "```" in demo_region

    def test_prompt_is_pure(self):
        inst = _dataset(TaskKind.INSTRUCTION)[0]
        pc = PromptConfig(shots=2, cot=False)
        assert build_prompt(inst, pc) == build_prompt(inst, pc)

    def test_invalid_shots_rejected(self):
        with pytest.raises(ValueError):
            PromptConfig(shots=3)


class TestExtractCode:
    G = fixed_grammar(Style.BLOCK)

    def test_single_fence(self):
        raw = "Here is the code:\n```\ndo turn left end\n```\nDone."
        assert extract_code(raw, self.G) == "do turn left end"

    def test_last_fence_wins(self):
        raw = ("```\ndo turn right end\n```\nwait, fixing:\n"
               "```\ndo turn left end\n```")
        assert extract_code(raw, self.G) == "do turn left end"

    def test_language_tag_ignored(self):
        raw = "```text\ndo turn left end\n```"
        assert extract_code(raw, self.G) == "do turn left end"

    def test_bare_code_passes_through(self):
        assert extract_code("do turn left end", self.G) == \
            "do turn left end"

    def test_prose_prefix_trimmed_to_known_token_suffix(self):
        raw = "The answer is: do turn left end"
        out = extract_code(raw, self.G)
        assert out == "do turn left end"

    def test_all_prose_returned_whole(self):
        raw = "I cannot solve this problem."
        assert extract_code(raw, self.G) == raw

    def test_empty_answer(self):
        assert extract_code("", self.G) == ""

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(["`", "``", "```", "````", "\n", "a",
                                     "b"]), max_size=16).map("".join))
    def test_fence_scan_matches_the_regex(self, raw):
        assert _last_fenced_block(raw) == (FENCE_RE.findall(raw) or [None])[-1]

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(ALL_COMBOS), st.integers(0, 50), st.data())
    def test_matches_the_whole_text_definition(self, combo, seed, data):
        g = build_grammar(*combo, seed)
        vocabulary = sorted(g.terminals.values()) + [
            "key_2", "7", "x", "+", "*", "@", "\u00e9", "\u0663", "`",
            "```", "(", ")", ";", "{", "}", " ", "\n", "\u00a0"]
        words = data.draw(st.lists(st.sampled_from(vocabulary), max_size=12))
        raw = "".join(word + data.draw(st.sampled_from(("", " ", "\n")))
                      for word in words)
        assert extract_code(raw, g) == oracle_extract_code(raw, g)


class TestHugeAnswers:
    """Extraction and scoring stay linear on megabytes of fence debris."""

    UNITS = pytest.mark.parametrize("unit", ["`", "```x"],
                                    ids=["backticks", "open-fences"])

    @UNITS
    @pytest.mark.parametrize("kind", [TaskKind.GOAL, TaskKind.JUDGMENT])
    def test_score_instance_within_a_second(self, unit, kind):
        inst = _dataset(kind, n=2, style=Style.C)[0]
        raw = unit * (2 ** 20 // len(unit))
        start = time.perf_counter()
        record = score_instance(inst, raw)
        assert time.perf_counter() - start < 1.0
        assert not record.parsed_ok

    MB = 2 ** 20

    @classmethod
    def _answer(cls, shape: str, inst) -> tuple[str, str]:
        """A megabyte-sized answer of ``shape`` and the stage it fails at."""
        g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
        if shape in ("{", "(", "x "):
            return shape * (cls.MB // len(shape)), "syntax"
        if shape == "word soup":  # the grammar's own words among alien ones
            rng = random.Random(0)
            vocabulary = sorted(g.terminals.values()) + sorted(build_grammar(
                inst.style, LexiconMode.ALIEN, 1).terminals.values())
            words, size = [], 0
            while size < cls.MB:
                words.append(rng.choice(vocabulary))
                size += len(words[-1]) + 1
            return " ".join(words), "syntax"
        if shape == "trailing space":
            return inst.gold_code + " " * cls.MB, "pass"
        # the gold program repeated, then a 5**9-turn loop nest: it parses
        # and runs past the step budget
        body = parse(inst.gold_code, g).body
        nest = ActionStmt(Turn(TurnDir.LEFT))
        for _ in range(9):
            nest = Loop(Literal(5), (nest,))
        copies = cls.MB // (len(inst.gold_code) + 1)
        return linearize(Program(body * copies + (nest,)), g), "behavior"

    @pytest.mark.parametrize("shape", ["{", "(", "x ", "word soup",
                                       "over budget", "trailing space"])
    @pytest.mark.parametrize("kind", [TaskKind.GOAL, TaskKind.INSTRUCTION])
    def test_score_instance_bounded_in_time_and_memory(self, shape, kind):
        inst = _dataset(kind, n=2, style=Style.C)[0]
        raw, stage = self._answer(shape, inst)
        assert len(raw) >= self.MB
        start = time.perf_counter()
        assert score_instance(inst, raw).failure_stage == stage
        assert time.perf_counter() - start < 1.5
        gc.collect()
        tracemalloc.start()
        try:
            score_instance(inst, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    @UNITS
    def test_label_search_within_a_second(self, unit):
        raw = unit * (2 ** 20 // len(unit))
        start = time.perf_counter()
        assert _LABEL_RE.findall(raw) == []
        assert time.perf_counter() - start < 1.0

    @UNITS
    def test_tokenize_grows_linearly(self, unit):
        # one token per character, so a megabyte takes most of a second;
        # the check is on growth (quadratic work would scale by 64), timed
        # with the collector paused as ``timeit`` does
        g = fixed_grammar(Style.C)

        def seconds(size):
            text = unit * (size // len(unit))
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                assert len(tokenize(text, g)[0]) == len(text)
                best = min(best, time.perf_counter() - start)
            return best

        enabled = gc.isenabled()
        gc.disable()
        try:
            small, large = seconds(2 ** 17), seconds(2 ** 20)
        finally:
            if enabled:
                gc.enable()
        assert large < 20 * small


def _refuse_tokens(monkeypatch) -> None:
    """Make ``tokenize`` raise, wherever a gridlang module binds it."""
    def refuse(*args):
        raise AssertionError("called tokenize")

    tokenize = codec.tokenize
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gridlang" and \
                getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", refuse)


class TestScoringMakesNoTokens:
    """Scoring splits answers itself, with no offsets; ``tokenize``, which
    also gives every word's offset, serves only ``perturb``."""

    @pytest.mark.parametrize("style", list(Style))
    @pytest.mark.parametrize("kind", [TaskKind.GOAL, TaskKind.INSTRUCTION])
    def test_score_instance_never_tokenizes(self, style, kind, monkeypatch):
        inst = _dataset(kind, n=2, style=style)[0]
        g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
        code = inst.gold_code
        answers = {
            "fenced": (f"Here you go.\n```\n{code}\n```", "pass"),
            "prose then code": (f"The program is:\n{code}", "pass"),
            "prose words then code": (f"Answer below\n{code}", "pass"),
            "bare": (code, "pass"),
            "perturbed": (perturb(code, g, random.Random(3))[0], "syntax"),
            "all prose": ("I cannot write this program, sorry!", "syntax"),
        }
        _refuse_tokens(monkeypatch)
        for name, (raw, stage) in answers.items():
            assert score_instance(inst, raw).failure_stage == stage, name


class TestJudgmentGeneration:
    """Judgment labels alternate in every style and lexicon, and the
    second few-shot demo is a perturbed candidate."""

    @pytest.mark.parametrize("style", list(Style))
    @pytest.mark.parametrize("mode", list(LexiconMode))
    def test_labels_alternate_and_second_demo_is_invalid(self, style, mode):
        instances = make_dataset(TaskKind.JUDGMENT, 8, style, mode,
                                 GenParams(max_depth=5, seed=11))
        assert [inst.gold_label for inst in instances] == \
            ["VALID", "INVALID"] * 4
        prompt = build_prompt(instances[0], PromptConfig(shots=2))
        # the second demo is perturbed
        assert f"{DEMO_ANSWER_HEADER}\nINVALID" in prompt


def _demos(prompt: str) -> list[tuple[str, str, str]]:
    """(grammar text, input, answer) of each demo a prompt shows."""
    region = prompt.split(f"\n\n{MAIN_HEADER}\n")[0]
    demos = []
    for block in re.split(r"\n\nExample \d+:\n", region)[1:]:
        assert block.startswith(EBNF_HEADER + "\n")
        # the demo's grammar text keeps its final newline
        ebnf, shown = block[len(EBNF_HEADER) + 1:].split("\n\n\n", 1)
        shown, answer = shown.split(f"\n{DEMO_ANSWER_HEADER}\n")
        demos.append((ebnf + "\n", shown, answer))
    return demos


def _fenced(answer: str) -> str:
    assert answer.startswith("```\n") and answer.endswith("\n```")
    return answer[4:-4]


class TestDemoAnswers:
    """Every few-shot demo's answer is right under the grammar its own
    section shows."""

    @pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("style", list(Style))
    @pytest.mark.parametrize("mode", list(LexiconMode))
    def test_demo_answers_hold_under_their_own_grammar(self, kind, style,
                                                       mode):
        inst = make_dataset(kind, 2, style, mode,
                            GenParams(max_depth=4, seed=7))[0]
        demos = _demos(build_prompt(inst, PromptConfig(shots=5)))
        assert len(demos) == 5
        labels = []
        for ebnf, shown, answer in demos:
            g = grammar_from_text(style, mode, ebnf)
            if kind is TaskKind.JUDGMENT:
                header, candidate = shown.split("\n", 1)
                assert header == CANDIDATE_HEADER
                try:
                    parse(candidate, g)
                    verdict = "VALID"
                except ValueError:
                    verdict = "INVALID"
                assert answer == verdict
                labels.append(answer)
            elif kind is TaskKind.GOAL:
                start, target = re.fullmatch(
                    r"Start state: (.*)\. Target final state: (.*)\.",
                    shown).groups()
                assert start == render_state(START_STATE)
                result = exec_program(parse(_fenced(answer), g), START_STATE)
                assert isinstance(result, Final)
                assert render_state(result.state) == target
            else:
                header, instruction = shown.split("\n", 1)
                assert header == INSTRUCTION_HEADER
                assert render_instruction(
                    parse(_fenced(answer), g)) == instruction
        if kind is TaskKind.JUDGMENT:
            assert labels == ["VALID", "INVALID"] * 2 + ["VALID"]


@pytest.fixture
def demo_draws(monkeypatch):
    """The demos ``build_prompt`` draws, as (kind, j), on a fresh demo
    cache."""
    drawn = []
    real_make_instance = harness.make_instance

    def counting_make_instance(kind, style, mode, params, i=0):
        drawn.append((kind, i))
        return real_make_instance(kind, style, mode, params, i)

    harness._demo.cache_clear()
    monkeypatch.setattr(harness, "make_instance", counting_make_instance)
    yield drawn
    harness._demo.cache_clear()


class TestOneDemoSetPerCell:
    """Every instance of a cell (kind, style, lexicon and dials, any seed)
    shows the same demos, drawn once per process."""

    @pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
    def test_a_cell_shares_its_demos_and_other_dials_do_not(self, kind):
        pc = PromptConfig(shots=5)
        first, second = (_demos(build_prompt(inst, pc)) for inst in
                         make_dataset(kind, 2, Style.C, LexiconMode.NATURAL,
                                      GenParams(max_depth=4, seed=3)))
        assert first == second
        other = make_dataset(kind, 2, Style.C, LexiconMode.NATURAL,
                             GenParams(max_depth=5, seed=3))[0]
        assert _demos(build_prompt(other, pc))[0] != first[0]

    def test_a_cold_eval_draws_each_demo_once(self, tmp_path, demo_draws):
        dataset = make_dataset(TaskKind.INSTRUCTION, 3, Style.C,
                               LexiconMode.NATURAL,
                               GenParams(max_depth=4, seed=9))
        pc = PromptConfig(shots=5)
        cold = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                              cache_dir=tmp_path / "cache")
        assert demo_draws == [(TaskKind.INSTRUCTION, j) for j in range(5)]
        warm = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                              cache_dir=tmp_path / "cache")
        assert len(demo_draws) == 5  # the memo finds every prompt
        assert (cold.model_calls, warm.model_calls) == (3, 0)

    @pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
    def test_fewer_shots_show_the_first_demos(self, kind):
        inst = _dataset(kind)[0]
        five = _demos(build_prompt(inst, PromptConfig(shots=5)))
        for shots in (1, 2):
            assert _demos(build_prompt(inst, PromptConfig(shots=shots))) \
                == five[:shots]

    @pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
    def test_p_spelled_1_or_1_0_shows_the_same_demos(self, order,
                                                      demo_draws):
        # equal params: a record of "p": 1 and one of "p": 1.0
        demos = [
            _demos(build_prompt(
                make_dataset(TaskKind.GOAL, 1, Style.BLOCK,
                             LexiconMode.NATURAL,
                             GenParams(max_depth=4, else_prob=p,
                                       seed=2))[0],
                PromptConfig(shots=2)))
            for p in order]
        assert demos[0] == demos[1]
        assert len(demo_draws) == 2
        harness._demo.cache_clear()
        alone = make_dataset(TaskKind.GOAL, 1, Style.BLOCK,
                             LexiconMode.NATURAL,
                             GenParams(max_depth=4, else_prob=order[1],
                                       seed=2))[0]
        assert _demos(build_prompt(alone, PromptConfig(shots=2))) == demos[0]


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Serves scripted status codes, then 200s with a canned completion:
    ``content``, or ``content(body)`` of the request's body when callable.
    With ``drip`` set, a 200's body is sent one byte per ``drip`` seconds
    after its headers."""

    script: list[int] = []
    content: object = "VALID"
    drip: float | None = None
    requests_seen: list[dict] = []
    auth_headers: list[str | None] = []
    headers_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        type(self).auth_headers.append(self.headers.get("Authorization"))
        type(self).headers_seen.append(self.headers)
        status = type(self).script.pop(0) if type(self).script else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            self.wfile.write(b"{}")
            return
        content = type(self).content
        if callable(content):
            content = content(body)
        payload = {"choices": [{"message": {"content": content}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if type(self).drip is None:
            self.wfile.write(data)
            return
        with contextlib.suppress(ConnectionError):  # a client that hung up
            for k in range(len(data)):
                time.sleep(type(self).drip)
                self.wfile.write(data[k:k + 1])

    def log_message(self, *args):
        pass


class _RawReplyHandler(http.server.BaseHTTPRequestHandler):
    """Reads the request, then writes ``reply`` verbatim and hangs up."""

    reply = b""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with contextlib.suppress(ConnectionError):  # a client that hung up
            self.wfile.write(type(self).reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    servers = []

    def start(script, content="VALID", handler=_ScriptedHandler, drip=None):
        _ScriptedHandler.script = list(script)
        _ScriptedHandler.content = content
        _ScriptedHandler.drip = drip
        _ScriptedHandler.requests_seen = []
        _ScriptedHandler.auth_headers = []
        _ScriptedHandler.headers_seen = []
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _http_cfg(base_url, **kwargs):
    kwargs.setdefault("max_retries", 3)
    kwargs.setdefault("retry_backoff", 0.01)
    kwargs.setdefault("timeout", 5.0)
    return EndpointConfig(base_url=base_url, model_id="test-model",
                          auth_token_env_var=TOKEN_VAR, **kwargs)


@pytest.fixture
def api_token(monkeypatch):
    monkeypatch.setenv(TOKEN_VAR, "test-secret")


class TestCallModel:
    def test_rate_limit_then_success(self, scripted_server, api_token):
        base = scripted_server([429, 429, 200])
        answer = call_model(_http_cfg(base), "say VALID")
        assert answer == "VALID"
        assert len(_ScriptedHandler.requests_seen) == 3

    def test_request_shape(self, scripted_server, api_token):
        base = scripted_server([200])
        call_model(_http_cfg(base, temperature=0.0, max_tokens=128),
                   "prompt text")
        body = _ScriptedHandler.requests_seen[0]
        assert body["model"] == "test-model"
        assert body["messages"] == [{"role": "user",
                                     "content": "prompt text"}]
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 128
        assert _ScriptedHandler.auth_headers[0] == "Bearer test-secret"

    def test_missing_token_fails_before_any_request(self, scripted_server,
                                                    monkeypatch):
        monkeypatch.delenv(TOKEN_VAR, raising=False)
        base = scripted_server([200])
        with pytest.raises(HarnessError, match=(
                f"^auth token environment variable '{TOKEN_VAR}' is unset "
                f"or empty$")):
            call_model(_http_cfg(base), "x")
        assert _ScriptedHandler.requests_seen == []

    def test_auth_rejection_never_retries(self, scripted_server, api_token):
        base = scripted_server([401, 200])
        with pytest.raises(HarnessError, match=(
                "^endpoint rejected credentials with HTTP 401$")):
            call_model(_http_cfg(base), "x")
        assert len(_ScriptedHandler.requests_seen) == 1

    def test_persistent_server_error_exhausts_retries(self, scripted_server,
                                                      api_token):
        base = scripted_server([500] * 10)
        cfg = _http_cfg(base, max_retries=3)
        with pytest.raises(HarnessError, match=(
                r"/chat/completions failed after 4 attempts "
                r"\(HTTP 500\)$")):
            call_model(cfg, "x")
        assert len(_ScriptedHandler.requests_seen) == 4  # initial + retries

    def test_closed_port_unreachable(self, api_token):
        cfg = _http_cfg("http://127.0.0.1:9", max_retries=1)
        with pytest.raises(HarnessError, match=(
                r"^http://127\.0\.0\.1:9/chat/completions failed after "
                r"2 attempts \(transport fault: ")):
            call_model(cfg, "x")

    @pytest.mark.parametrize("reply", [
        b"garbage\r\n\r\n",  # no status line
        b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{}",  # cut short
        b"HTTP/1.0 404 Not Found\r\nContent-Length: 100\r\n\r\n{}",
    ])
    def test_broken_reply_is_a_transport_fault(self, scripted_server,
                                               api_token, reply,
                                               monkeypatch):
        monkeypatch.setattr(_RawReplyHandler, "reply", reply)
        base = scripted_server([], handler=_RawReplyHandler)
        with pytest.raises(HarnessError, match=(
                r"failed after 2 attempts \(transport fault: ")):
            call_model(_http_cfg(base, max_retries=1), "x")

    def test_unexpected_status_is_plain_error(self, scripted_server,
                                              api_token):
        base = scripted_server([418])
        with pytest.raises(HarnessError, match="^unexpected HTTP 418: {}$"):
            call_model(_http_cfg(base), "x")
        assert len(_ScriptedHandler.requests_seen) == 1

    @pytest.mark.parametrize("content", [
        None, [{"type": "text", "text": "VALID"}]])
    def test_non_text_content_is_malformed(self, scripted_server, api_token,
                                           content):
        base = scripted_server([200], content=content)
        with pytest.raises(HarnessError,
                           match="^malformed completion payload"):
            call_model(_http_cfg(base), "x")
        assert len(_ScriptedHandler.requests_seen) == 1
        headers = _ScriptedHandler.headers_seen[0]
        assert headers["Content-Type"] == "application/json"
        assert headers["User-Agent"] == "gridlang"

    def test_unencodable_content_is_malformed(self, scripted_server,
                                              api_token):
        base = scripted_server([200], content="move \ud800")
        with pytest.raises(HarnessError, match="^malformed completion "
                                               "payload: .*surrogates"):
            call_model(_http_cfg(base), "x")
        assert len(_ScriptedHandler.requests_seen) == 1


class TestBodyCap:
    """A reply body is read to at most 1 MiB plus 64 bytes per requested
    token; a longer one is refused at once."""

    def test_an_oversize_completion_is_refused_after_one_request(
            self, scripted_server, api_token):
        cap = (1 << 20) + 64 * 16
        base = scripted_server([], content="x" * cap)
        with pytest.raises(HarnessError, match=(
                f"^reply body exceeds the {cap}-byte cap$")):
            call_model(_http_cfg(base, max_tokens=16), "x")
        assert len(_ScriptedHandler.requests_seen) == 1

    def test_an_oversize_error_body_is_refused_unread_past_the_cap(
            self, scripted_server, api_token, monkeypatch):
        cap = (1 << 20) + 64
        size = 16 * cap
        monkeypatch.setattr(_RawReplyHandler, "reply", (
            f"HTTP/1.0 500 Oops\r\nContent-Length: {size}\r\n\r\n"
            .encode() + b"x" * size))
        base = scripted_server([], handler=_RawReplyHandler)
        tracemalloc.start()
        try:
            with pytest.raises(HarnessError,
                               match=f"exceeds the {cap}-byte cap$"):
                call_model(_http_cfg(base, max_tokens=1), "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cap  # the body is 16 caps long

    def test_a_body_of_exactly_the_cap_is_read(self, scripted_server,
                                               api_token):
        cap = (1 << 20) + 64
        envelope = len(json.dumps(
            {"choices": [{"message": {"content": ""}}]}))
        base = scripted_server([], content="x" * (cap - envelope))
        assert call_model(_http_cfg(base, max_tokens=1), "x") == \
            "x" * (cap - envelope)


class TestDeadline:
    """An attempt ends ``timeout`` seconds after it starts, however slowly
    its reply body arrives; at most ``SLACK`` seconds late here."""

    SLACK = 0.4

    # a byte per 0.1 s never lets one read wait out the timeout; a byte per
    # 0.9 s has the second read start 0.1 s before the deadline
    @pytest.mark.parametrize("drip, timeout", [(0.1, 0.5), (0.9, 1.0)])
    def test_a_dripped_body_ends_at_the_deadline(self, scripted_server,
                                                 api_token, drip, timeout):
        base = scripted_server([], drip=drip)
        start = time.monotonic()
        with pytest.raises(HarnessError, match=(
                r"failed after 1 attempts \(transport fault: ")):
            call_model(_http_cfg(base, timeout=timeout, max_retries=0), "x")
        assert time.monotonic() - start < timeout + self.SLACK
        assert len(_ScriptedHandler.requests_seen) == 1

    def test_a_missed_deadline_is_retried(self, scripted_server, api_token):
        base = scripted_server([], drip=0.1)
        start = time.monotonic()
        with pytest.raises(HarnessError, match=(
                r"failed after 2 attempts \(transport fault: ")):
            call_model(_http_cfg(base, timeout=0.5, max_retries=1), "x")
        # two attempts and a 0.01 s backoff
        assert time.monotonic() - start < 2 * (0.5 + self.SLACK) + 0.01
        assert len(_ScriptedHandler.requests_seen) == 2

    def test_a_body_dripped_within_the_deadline_is_read(self, scripted_server,
                                                        api_token):
        base = scripted_server([], drip=0.002)
        assert call_model(_http_cfg(base, timeout=5.0), "x") == "VALID"


_COLD_START = """
import json, sys
from gridlang import harness
from gridlang.tasks import read_dataset
deferred = ("http.client", "urllib.request", "concurrent.futures", "logging")
before = [name for name in deferred if name in sys.modules]
cfg = harness.EndpointConfig(sys.argv[1], "test-model", parallelism=1,
                             auth_token_env_var=sys.argv[2])
answer = harness.call_model(cfg, "say VALID")
run = harness.run_evaluation(read_dataset("data.jsonl"), cfg,
                             harness.PromptConfig(), cache_dir="cache",
                             permissive=True)
print(json.dumps({"before": before, "answer": answer,
                  "calls": run.model_calls,
                  "after": [name for name in deferred
                            if name in sys.modules]}))
"""


def test_a_fresh_interpreter_loads_the_transport_on_first_request(
        tmp_path, scripted_server, api_token):
    """``call_model``, the pool and the error log from a cold start; this
    module cannot show it in process, since ``http.server`` loads
    ``http.client`` itself."""
    base = scripted_server([200, 401])
    dataset = _dataset(TaskKind.JUDGMENT, n=2)
    write_dataset(dataset, tmp_path / "data.jsonl",
                  {"dataset_format": DATASET_FORMAT})
    env = dict(os.environ,
               PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    # -S: no site hook (a .pth file) may load a module before gridlang does
    done = subprocess.run([sys.executable, "-S", "-c", _COLD_START, base,
                           TOKEN_VAR], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "before": [], "answer": "VALID", "calls": 1,
        "after": ["http.client", "urllib.request", "concurrent.futures",
                  "logging"]}
    # the refused fetch is the first instance's, logged as it is kept
    assert done.stderr == (f"instance {dataset[0].id}: endpoint rejected "
                           f"credentials with HTTP 401\n")


class TestMockSchemes:
    def test_flatten_folds_arithmetic_and_keeps_shared_items(self):
        for seed in range(8):
            _g, _code, tree = generate_instance(
                Style.BLOCK, LexiconMode.NATURAL,
                GenParams(max_depth=10, expr_depth=3, seed=seed))
            nodes = list(_walk(_flatten_program(tree)))
            assert not any(isinstance(n, BinaryArith) for n in nodes)
            shared = {id(item) for item in ITEM_VOCAB}
            items = [n.item for n in nodes if isinstance(n, (Grab, Holding))]
            assert items and all(id(item) in shared for item in items)

    def test_perfect_mock_full_marks(self, tmp_path):
        for kind in TaskKind:
            dataset = _dataset(kind, n=4)
            result = run_evaluation(dataset, _mock_cfg("perfect"),
                                    PromptConfig(),
                                    cache_dir=tmp_path / "cache")
            assert result.metrics.svr == 100.0
            assert result.model_calls == 4

    def test_flatten_mock_separates_layers(self, tmp_path):
        params = GenParams(max_depth=6, seed=3, expr_depth=2)
        dataset = make_dataset(TaskKind.INSTRUCTION, 6, Style.BLOCK,
                               LexiconMode.NATURAL, params)
        result = run_evaluation(dataset, _mock_cfg("flatten"),
                                PromptConfig(),
                                cache_dir=tmp_path / "cache")
        assert result.metrics.svr == 100.0
        assert result.metrics.ber == 100.0
        assert result.metrics.scr < result.metrics.ber

    def test_unknown_mock_scheme_rejected(self, tmp_path):
        dataset = _dataset(TaskKind.JUDGMENT)
        with pytest.raises(ValueError):
            run_evaluation(dataset, _mock_cfg("nonsense"), PromptConfig(),
                           cache_dir=tmp_path / "cache")


class TestCaching:
    def test_warm_replay_makes_no_calls(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=3)
        cache = tmp_path / "cache"
        first = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                               cache_dir=cache)
        second = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                                cache_dir=cache)
        assert first.model_calls == 3
        assert second.model_calls == 0
        assert second.metrics == first.metrics

    def test_one_entry_per_model_prompt_pair(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=3)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                       cache_dir=cache)
        run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                       cache_dir=cache)
        entries = cache_entries(cache)
        assert len(entries) == len(dict(entries)) == 3

    def test_distinct_prompts_get_distinct_entries(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=2)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg(), PromptConfig(shots=0),
                       cache_dir=cache)
        run_evaluation(dataset, _mock_cfg(), PromptConfig(shots=1),
                       cache_dir=cache)
        answers = _answers(cache_entries(cache))
        assert len(answers) == len(set(answers)) == 4
        # and a verdict per 1-shot code answer
        assert len(_verdicts(cache_entries(cache))) == 2

    def test_other_endpoint_with_the_same_model_is_a_miss(self, tmp_path):
        params = GenParams(max_depth=6, seed=3, expr_depth=2)
        dataset = make_dataset(TaskKind.INSTRUCTION, 6, Style.BLOCK,
                               LexiconMode.NATURAL, params)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg("perfect"), PromptConfig(),
                       cache_dir=cache)
        after_perfect = run_evaluation(dataset, _mock_cfg("flatten"),
                                       PromptConfig(), cache_dir=cache)
        fresh = run_evaluation(dataset, _mock_cfg("flatten"), PromptConfig(),
                               cache_dir=tmp_path / "fresh")
        assert after_perfect.model_calls == 6
        assert after_perfect.metrics == fresh.metrics
        assert fresh.metrics.scr < 100.0

    @pytest.mark.parametrize("change", [{"temperature": 0.7},
                                        {"max_tokens": 256}])
    def test_other_sampling_settings_are_a_miss(self, tmp_path, change):
        dataset = _dataset(TaskKind.GOAL, n=2)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg(), PromptConfig(), cache_dir=cache)
        cfg = EndpointConfig(base_url="mock://perfect", model_id="mock-model",
                             **change)
        again = run_evaluation(dataset, cfg, PromptConfig(), cache_dir=cache)
        assert again.model_calls == 2

    def test_entries_are_private_and_leave_no_temp_file(self, tmp_path):
        cache = tmp_path / "cache"
        run_evaluation(_dataset(TaskKind.GOAL, n=3), _mock_cfg(),
                       PromptConfig(), cache_dir=cache)
        assert len(cache_entries(cache)) == 3
        assert [p.name for p in cache.rglob("*")] == ["mock-model",
                                                      "cache.jsonl"]
        log = cache / "mock-model" / "cache.jsonl"
        assert log.stat().st_mode & 0o777 == 0o600

    def test_entry_removed_after_it_was_indexed_is_a_miss(self, tmp_path,
                                                           monkeypatch):
        dataset = _dataset(TaskKind.GOAL, n=3)
        cache = tmp_path / "cache"
        first = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                               cache_dir=cache)
        index_log = harness._index_log

        def racing_index(log):
            index = index_log(log)
            assert len(index) == 3
            os.truncate(log, 0)  # another run clears the log
            return index

        monkeypatch.setattr(harness, "_index_log", racing_index)
        again = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                               cache_dir=cache)
        assert again.model_calls == 3
        assert again.metrics == first.metrics
        assert len(cache_entries(cache)) == 3

    def test_a_short_append_fails_the_run(self, tmp_path, monkeypatch):
        dataset = _dataset(TaskKind.GOAL, n=3)
        cache = tmp_path / "cache"
        write = os.write

        def short_write(fd, data):  # the disk fills up mid-line
            return write(fd, data[:10])

        monkeypatch.setattr(harness.os, "write", short_write)
        with pytest.raises(OSError, match=r"cache\.jsonl: wrote 10 of \d+"):
            run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                           cache_dir=cache)
        monkeypatch.undo()
        log = cache / "mock-model" / "cache.jsonl"
        assert len(log.read_bytes()) == 10
        cold = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                              cache_dir=cache)
        warm = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                              cache_dir=cache)
        # the first entry after the torn line is glued onto it
        assert (cold.model_calls, warm.model_calls) == (3, 1)
        assert warm.rows == cold.rows

    @pytest.mark.parametrize("shots", [0, 2])
    def test_crlf_answer_replays_as_sent(self, tmp_path, scripted_server,
                                         api_token, shots):
        base = scripted_server([], content="a\r\nb")
        dataset = _dataset(TaskKind.GOAL, n=2)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _http_cfg(base), PromptConfig(shots),
                              cache_dir=cache)
        warm = run_evaluation(dataset, _http_cfg(base), PromptConfig(shots),
                              cache_dir=cache)
        assert (cold.model_calls, warm.model_calls) == (2, 0)
        assert len(_ScriptedHandler.requests_seen) == 2
        assert [row["raw_answer"] for row in warm.rows] == ["a\r\nb"] * 2
        assert warm.rows == cold.rows

    def test_any_answer_text_replays_as_sent(self, tmp_path, scripted_server,
                                             api_token):
        base = scripted_server([])
        dataset = _dataset(TaskKind.GOAL, n=1)
        runs = itertools.count()

        @settings(max_examples=40, deadline=None)
        @given(st.text(st.characters(exclude_categories=())
                       | st.sampled_from("\r\n\u2028\x00\ud800")))
        def replays(text):
            _ScriptedHandler.content = text
            run = tmp_path / str(next(runs))
            cold, warm = (run_evaluation(dataset, _http_cfg(base),
                                         PromptConfig(),
                                         cache_dir=run / "cache",
                                         permissive=True)
                          for _ in range(2))
            assert warm.rows == cold.rows
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:  # an endpoint error, never cached
                assert (cold.model_calls, warm.model_calls) == (0, 0)
                assert cold.rows[0]["raw_answer"].startswith(
                    "[endpoint error] malformed completion payload")
                assert cache_entries(run / "cache") == []
            else:
                assert (cold.model_calls, warm.model_calls) == (1, 0)
                assert warm.rows[0]["raw_answer"] == text

        replays()

    @pytest.mark.parametrize("model_id", ["org/model:v1", ".", "..",
                                          "../x", ".hidden"])
    def test_model_id_sanitized_for_path(self, tmp_path, model_id):
        dataset = _dataset(TaskKind.JUDGMENT, n=2)
        cfg = EndpointConfig(base_url="mock://perfect", model_id=model_id)
        cache = tmp_path / "work" / "cache"
        for calls in (2, 0):  # cold, then warm
            result = run_evaluation(dataset, cfg, PromptConfig(),
                                    cache_dir=cache)
            assert result.model_calls == calls
        children = [p.name for p in cache.iterdir()]
        assert len(children) == 1
        assert "/" not in children[0] and ":" not in children[0]
        assert not children[0].startswith(".")
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")
                if not p.is_dir()] == [Path("work", "cache", children[0],
                                            "cache.jsonl")]
        assert len(cache_entries(cache)) == 2


def _artifacts(out_dir):
    return ((out_dir / "results.jsonl").read_bytes(),
            (out_dir / "responses.jsonl").read_bytes())


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_is_memo = re.compile(r"[0-9a-f]{64}").fullmatch  # no test answer is one
_STAGES = ("syntax", "behavior", "semantics", "pass")  # nor one of these


def _answers(entries):
    return [entry for entry in entries
            if not _is_memo(entry[1]) and entry[1] not in _STAGES]


def _memos(entries):
    return [entry for entry in entries if _is_memo(entry[1])]


def _verdicts(entries):
    return [entry for entry in entries if entry[1] in _STAGES]


def _write_log(cache, model, entries):
    (cache / model / "cache.jsonl").write_text(
        "".join(json.dumps(entry) + "\n" for entry in entries))


@pytest.fixture
def prompt_builds(monkeypatch):
    """The ids of the instances whose prompts ``run_evaluation`` builds."""
    built = []
    real_build_prompt = harness.build_prompt

    def counting_build_prompt(inst, pc):
        built.append(inst.id)
        return real_build_prompt(inst, pc)

    monkeypatch.setattr(harness, "build_prompt", counting_build_prompt)
    return built


@pytest.fixture
def scored(monkeypatch):
    """The ids of the instances whose answers ``score_instance`` scores."""
    ids = []
    real_score_instance = harness.score_instance

    def counting_score_instance(inst, raw):
        ids.append(inst.id)
        return real_score_instance(inst, raw)

    monkeypatch.setattr(harness, "score_instance", counting_score_instance)
    return ids


class TestPromptMemo:
    @pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
    def test_warm_few_shot_replay_builds_no_prompt(self, tmp_path, kind,
                                                   prompt_builds):
        dataset = _dataset(kind, n=4)
        pc = PromptConfig(shots=2)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                              cache_dir=cache)
        assert prompt_builds == [inst.id for inst in dataset]
        prompt_builds.clear()
        warm = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                              cache_dir=cache)
        assert prompt_builds == []
        assert (cold.model_calls, warm.model_calls) == (4, 0)
        assert warm.rows == cold.rows

    def test_memo_entry_is_the_private_prompt_sha256(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=2)
        pc = PromptConfig(shots=1, cot=False)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg(), pc, cache_dir=cache)
        entries = cache_entries(cache)
        assert sorted(text for _key, text in _memos(entries)) == sorted(
            _sha256(build_prompt(inst, pc)) for inst in dataset)
        assert len(_answers(entries)) == 2
        assert len(_verdicts(entries)) == 2
        assert len(entries) == 6
        log = cache / "mock-model" / "cache.jsonl"
        assert log.stat().st_mode & 0o777 == 0o600

    def test_memo_tells_shots_and_cot_apart(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=2)
        configs = [PromptConfig(shots, cot)
                   for shots in (1, 2) for cot in (True, False)]
        cache = tmp_path / "cache"
        for pc in configs * 2:  # cold, then warm
            result = run_evaluation(dataset, _mock_cfg(), pc,
                                    cache_dir=cache)
            assert [row["prompt_sha256"] for row in result.rows] == [
                _sha256(build_prompt(inst, pc)) for inst in dataset]
        memos = _memos(cache_entries(cache))
        assert len(memos) == len(dict(memos)) == 8

    def test_memo_hit_answers_a_mock_without_its_cache_entry(
            self, tmp_path, prompt_builds):
        dataset = _dataset(TaskKind.INSTRUCTION, n=3)
        pc = PromptConfig(shots=2)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                              cache_dir=cache)
        _write_log(cache, "mock-model", _memos(cache_entries(cache)))
        prompt_builds.clear()
        again = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                               cache_dir=cache)
        assert prompt_builds == []
        assert again.model_calls == 3
        assert again.rows == cold.rows
        assert len(_answers(cache_entries(cache))) == 3
        # the verdicts were dropped with the answers, so scored again
        assert len(_verdicts(cache_entries(cache))) == 3

    def test_memo_hit_builds_what_a_real_endpoint_is_sent(
            self, tmp_path, scripted_server, api_token, prompt_builds):
        base = scripted_server([])
        dataset = _dataset(TaskKind.JUDGMENT, n=4)
        pc = PromptConfig(shots=1)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _http_cfg(base), pc, cache_dir=cache)
        _write_log(cache, "test-model", _memos(cache_entries(cache)))
        _ScriptedHandler.requests_seen = []
        prompt_builds.clear()
        again = run_evaluation(dataset, _http_cfg(base), pc, cache_dir=cache)
        sent = [body["messages"][0]["content"]
                for body in _ScriptedHandler.requests_seen]
        assert sorted(sent) == sorted(build_prompt(inst, pc)
                                      for inst in dataset)
        assert prompt_builds == [inst.id for inst in dataset]
        assert again.model_calls == 4
        assert again.rows == cold.rows

    @pytest.mark.parametrize("data", [
        "", "ab" * 31, "ab" * 33, "AB" * 32, "ab" * 31 + "g0",
        "ab" * 32 + "\n", "\u0661" * 64, "\xff" * 64])
    def test_malformed_memo_entry_is_a_miss(self, tmp_path, data,
                                            prompt_builds):
        dataset = _dataset(TaskKind.GOAL, n=2)
        pc = PromptConfig(shots=1)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _mock_cfg(), pc, cache_dir=cache)
        entries = cache_entries(cache)
        memos = dict(_memos(entries))
        assert len(memos) == 2
        _write_log(cache, "mock-model", [
            (key, data if key in memos else text) for key, text in entries])
        prompt_builds.clear()
        warm = run_evaluation(dataset, _mock_cfg(), pc, cache_dir=cache)
        assert prompt_builds == [inst.id for inst in dataset]
        assert warm.model_calls == 0
        assert warm.rows == cold.rows
        replayed = dict(cache_entries(cache))
        assert {key: replayed[key] for key in memos} == memos

    def test_zero_shot_runs_write_no_memo(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 0-shot run looked up the memo")

        monkeypatch.setattr(harness, "_memo_key", refuse)
        cache = tmp_path / "cache"
        for kind in TaskKind:
            for _ in range(2):  # cold, then warm
                run_evaluation(_dataset(kind), _mock_cfg(), PromptConfig(),
                               cache_dir=cache)
        entries = cache_entries(cache)
        assert len(entries) == len(_answers(entries)) == 6


def _perturbed_gold(inst) -> str:
    """The gold code with one word deleted or replaced: it fails to
    parse."""
    g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
    return perturb(inst.gold_code, g, random.Random(inst.id))[0]


def _gold_over_budget(inst) -> str:
    """The gold code, then a 5**9-turn loop nest: it parses and runs past
    the step budget."""
    g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
    nest = ActionStmt(Turn(TurnDir.LEFT))
    for _ in range(9):
        nest = Loop(Literal(5), (nest,))
    return linearize(Program(parse(inst.gold_code, g).body + (nest,)), g)


class TestVerdictMemo:
    """A few-shot run keeps each code answer's verdict beside its prompt
    memo; a warm replay rebuilds the record from it and scores nothing."""

    @pytest.mark.parametrize("kind", [TaskKind.GOAL, TaskKind.INSTRUCTION],
                             ids=lambda k: k.value)
    def test_a_warm_replay_scores_nothing_and_matches_score(
            self, tmp_path, kind, scored, scripted_server, api_token,
            capsys):
        params = GenParams(max_depth=6, seed=3, expr_depth=2)
        dataset = make_dataset(kind, 4, Style.C, LexiconMode.NATURAL, params)
        data = tmp_path / "data.jsonl"
        write_dataset(dataset, data)
        pc = PromptConfig(shots=2)
        by_prompt = {build_prompt(inst, pc): inst for inst in dataset}
        wrong = {"perturbed": _perturbed_gold,
                 "over-budget": _gold_over_budget}

        def answer(body):  # the wrong code the requested model writes
            inst = by_prompt[body["messages"][0]["content"]]
            return f"```\n{wrong[body['model']](inst)}\n```"

        base = scripted_server([], content=answer)

        def run(command, out, *argv):
            assert cli.main([command, "--dataset", str(data), *argv,
                             "--out-dir", str(tmp_path / out)]) == 0
            return (tmp_path / out / "results.jsonl").read_bytes()

        stages = set()
        for url, model in (("mock://perfect", "perfect"),
                           ("mock://flatten", "flatten"),
                           (base, "perturbed"), (base, "over-budget")):
            flags = ("--base-url", url, "--model", model, "--auth-env",
                     TOKEN_VAR, "--shots", "2", "--cache-dir",
                     str(tmp_path / "cache"))
            scored.clear()
            cold = run("eval", f"{model}-cold", *flags)
            assert scored == [inst.id for inst in dataset]
            scored.clear()
            warm = run("eval", f"{model}-warm", *flags)
            assert scored == []
            assert "model calls: 0" in capsys.readouterr().out
            assert warm == cold
            rescored = run("score", f"{model}-score", "--responses",
                           str(tmp_path / f"{model}-cold/responses.jsonl"))
            assert warm.splitlines()[1:] == rescored.splitlines()[1:]
            stages |= {json.loads(line)["failure_stage"]
                       for line in warm.splitlines()[1:]}
        assert stages == {"syntax", "behavior", "pass"} | (
            {"semantics"} if kind is TaskKind.INSTRUCTION else set())
        verdicts = _verdicts(cache_entries(tmp_path / "cache"))
        assert len(verdicts) == len(dict(verdicts)) == 4 * len(dataset)

    @pytest.mark.parametrize("field", ["gold_ast", "target_state"])
    def test_the_key_covers_gold_fields_the_prompt_never_shows(
            self, tmp_path, field, scored):
        params = GenParams(max_depth=6, seed=3, expr_depth=2)
        dataset = make_dataset(TaskKind.INSTRUCTION, 6, Style.BLOCK,
                               LexiconMode.NATURAL, params)
        pc = PromptConfig(shots=2)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                              cache_dir=cache)
        k = [row["failure_stage"] for row in cold.rows].index("semantics")
        inst = dataset[k]
        g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
        folded = parse(extract_code(cold.rows[k]["raw_answer"], g), g)
        if field == "gold_ast":  # another valid tree: the folded answer's
            edited, stage = dataclasses.replace(
                inst, gold_ast=canon_serialize(folded)), "pass"
        else:  # a target the folded answer misses
            target = inst.target_state
            edited, stage = dataclasses.replace(inst, target_state=(
                dataclasses.replace(target, x=target.x + 1))), "behavior"
        assert build_prompt(edited, pc) == build_prompt(inst, pc)
        dataset[k] = edited
        answers = [(row["prompt_sha256"], row["raw_answer"])
                   for row in cold.rows]
        for scores in ([inst.id], []):  # a miss, then a hit
            scored.clear()
            warm = run_evaluation(dataset, _mock_cfg("flatten"), pc,
                                  cache_dir=cache)
            assert scored == scores
            assert warm.model_calls == 0
            assert warm.rows[k]["failure_stage"] == stage
            assert warm.rows == score_answers(dataset, answers).rows

    def test_judgment_and_zero_shot_answers_are_scored_afresh(
            self, tmp_path, scored):
        cache = tmp_path / "cache"
        for kind, shots in ((TaskKind.JUDGMENT, 2), (TaskKind.GOAL, 0),
                            (TaskKind.INSTRUCTION, 0)):
            dataset = _dataset(kind)
            for _ in range(2):  # cold, then warm
                scored.clear()
                run_evaluation(dataset, _mock_cfg(), PromptConfig(shots),
                               cache_dir=cache)
                assert scored == [inst.id for inst in dataset]
        assert _verdicts(cache_entries(cache)) == []


_CLI = "import sys; from gridlang.cli import main; sys.exit(main(sys.argv[1:]))"

_PROMPT_SHAS = """
import hashlib, json, sys
from gridlang.harness import PromptConfig, build_prompt
from gridlang.tasks import read_dataset
pc = PromptConfig(shots=int(sys.argv[2]))
print(json.dumps([hashlib.sha256(build_prompt(inst, pc).encode()).hexdigest()
                  for inst in read_dataset(sys.argv[1])]))
"""

_DIGEST_READS = """
import sys
from gridlang import harness
from gridlang.cli import main
reads = [harness._code_digest.cache_info().currsize]
for argv in (
        ["gen", "--task", "goal", "--n", "2", "--depth", "4",
         "--out", "data.jsonl"],
        ["eval", "--dataset", "data.jsonl", "--base-url", "mock://perfect",
         "--model", "m", "--cache-dir", "cache", "--out-dir", "run"],
        ["score", "--dataset", "data.jsonl", "--responses",
         "run/responses.jsonl", "--out-dir", "scored"],
        ["eval", "--dataset", "data.jsonl", "--base-url", "mock://perfect",
         "--model", "m", "--shots", "1", "--cache-dir", "cache",
         "--out-dir", "run1"]):
    assert main(argv) == 0
    reads.append(harness._code_digest.cache_info().currsize)
print(reads, file=sys.stderr)
"""


class TestMemoFollowsTheSource:
    """Evals run in fresh interpreters on a copy of the package, so that
    the copy can be edited between them."""

    def _copy(self, tmp_path):
        package = tmp_path / "src" / "gridlang"
        shutil.copytree(Path(harness.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return package

    def _python(self, tmp_path, code, *argv):
        env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
        done = subprocess.run([sys.executable, "-B", "-c", code, *argv],
                              env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done

    def _eval(self, tmp_path, out_dir):
        done = self._python(tmp_path, _CLI, "eval", "--dataset", "data.jsonl",
                            "--base-url", "mock://flatten", "--model", "m",
                            "--shots", "1", "--cache-dir", "cache",
                            "--out-dir", out_dir)
        calls = int(re.search(r"model calls: (\d+)", done.stdout).group(1))
        run = tmp_path / out_dir
        return (calls, (run / "results.jsonl").read_bytes(),
                (run / "responses.jsonl").read_bytes())

    def test_a_source_edit_misses_the_memo(self, tmp_path):
        package = self._copy(tmp_path)
        self._python(tmp_path, _CLI, "gen", "--task", "instruction",
                     "--n", "3", "--depth", "4", "--seed", "5",
                     "--out", "data.jsonl")

        def memos():
            return len(_memos(cache_entries(tmp_path / "cache")))

        cold = self._eval(tmp_path, "cold")
        assert (cold[0], memos()) == (3, 3)

        sampler = package / "sampler.py"
        sampler.write_text(sampler.read_text()
                           + "# a comment shapes no prompt\n")
        warm = self._eval(tmp_path, "warm")
        assert memos() == 6  # a new digest: every prompt built again
        assert warm == (0, *cold[1:])

        prompts = package / "prompts.py"
        source = prompts.read_text()
        assert source.count('"Example {index}:"') == 1
        prompts.write_text(source.replace('"Example {index}:"',
                                          '"Worked example {index}:"'))
        edited = self._eval(tmp_path, "edited")
        assert (edited[0], memos()) == (3, 9)
        rows = [json.loads(line) for line in edited[2].splitlines()]
        shas = [row["prompt_sha256"] for row in rows if "_config" not in row]
        rebuilt = self._python(tmp_path, _PROMPT_SHAS, "data.jsonl", "1")
        assert shas == json.loads(rebuilt.stdout)
        assert not set(shas) & set(json.loads(line).get("prompt_sha256")
                                   for line in cold[2].splitlines())

    def test_the_code_digest_moves_with_any_modules_bytes(self, tmp_path):
        # prompt and verdict memos are sound only if every module scoring
        # reads is in the digest, not only those that build prompts
        package = self._copy(tmp_path)

        def digest():
            return self._python(tmp_path, "from gridlang import harness; "
                                "print(harness._code_digest())").stdout

        first = digest()
        assert digest() == first  # nothing changed
        for name in ("world.py", "metrics.py"):
            module = package / name
            source = module.read_bytes()
            assert source.startswith(b'"""')  # a docstring letter flips
            module.write_bytes(source[:3] + source[3:4].swapcase()
                               + source[4:])
            assert digest() != first
            module.write_bytes(source)
            assert digest() == first

    def test_only_a_memo_lookup_reads_the_source(self, tmp_path):
        self._copy(tmp_path)
        done = self._python(tmp_path, _DIGEST_READS)
        # nothing at import, gen, 0-shot eval or score; once at 1 shot
        assert done.stderr.strip() == "[0, 0, 0, 0, 1]"


# lines that are no cache entry, each made from an entry's key
_FOREIGN_LINES = {
    "torn": lambda key: json.dumps([key, "WRONG"])[:-3],
    "not-json": lambda key: f"{key} WRONG",
    "object": lambda key: json.dumps({key: "WRONG"}),
    "three-members": lambda key: json.dumps([key, "WRONG", "WRONG"]),
    "list-text": lambda key: json.dumps([key, ["WRONG"]]),
    "null-text": lambda key: json.dumps([key, None]),
    "number-text": lambda key: json.dumps([key, 5]),
    "list-key": lambda key: json.dumps([[key], "WRONG"]),
}

# verdict texts that name no stage of a goal record; as an answer's or a
# memo's text each is an entry, so they stand in for verdict lines only
_FOREIGN_VERDICTS = {
    "upper-case": lambda key: json.dumps([key, "PASS"]),
    "empty": lambda key: json.dumps([key, ""]),
    "instruction-stage": lambda key: json.dumps([key, "semantics"]),
}


class TestCacheLog:
    def test_concurrent_runs_append_to_one_log(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(harness.__file__).parents[1]))

        def start(*argv):
            return subprocess.Popen([sys.executable, "-c", _CLI, *argv],
                                    env=env, cwd=tmp_path, text=True,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)

        def calls(proc):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            return [int(n) for n in re.findall(r"model calls: (\d+)", out)]

        for seed in (1, 2):
            assert calls(start("gen", "--task", "goal", "--n", "40",
                               "--depth", "4", "--seed", str(seed),
                               "--out", f"data{seed}.jsonl")) == []

        def evals(run):  # both datasets at once, one cache and model
            return [calls(proc) for proc in [
                start("eval", "--dataset", f"data{seed}.jsonl",
                      "--base-url", "mock://perfect", "--model", "m",
                      "--shots", "1", "--cache-dir", "cache",
                      "--out-dir", f"{run}{seed}") for seed in (1, 2)]]

        assert evals("cold") == [[40], [40]]
        entries = cache_entries(tmp_path / "cache")
        # an answer, a memo and a verdict per instance, none lost or torn
        assert len(entries) == len(dict(entries)) == 240
        assert evals("warm") == [[0], [0]]
        assert cache_entries(tmp_path / "cache") == entries
        for seed in (1, 2):
            assert (_artifacts(tmp_path / f"warm{seed}")
                    == _artifacts(tmp_path / f"cold{seed}"))

    def test_fetch_threads_append_whole_lines(self, tmp_path,
                                              scripted_server, api_token):
        base = scripted_server([], content="INVALID\n" * 512)
        dataset = _dataset(TaskKind.JUDGMENT, n=24)
        cfg = _http_cfg(base, parallelism=8)
        cache = tmp_path / "cache"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cold = run_evaluation(dataset, cfg, PromptConfig(),
                                  cache_dir=cache)
        finally:
            sys.setswitchinterval(interval)
        entries = cache_entries(cache)
        assert len(entries) == len(dict(entries)) == 24
        _ScriptedHandler.requests_seen = []
        warm = run_evaluation(dataset, cfg, PromptConfig(), cache_dir=cache)
        assert (cold.model_calls, warm.model_calls) == (24, 0)
        assert _ScriptedHandler.requests_seen == []
        assert warm.rows == cold.rows

    @pytest.mark.parametrize("foreign, verdicts_only", [
        *((line, False) for line in _FOREIGN_LINES.values()),
        *((line, True) for line in _FOREIGN_VERDICTS.values())],
        ids=[*_FOREIGN_LINES, *_FOREIGN_VERDICTS])
    def test_foreign_lines_are_misses(self, tmp_path, foreign, verdicts_only,
                                      scored):
        dataset = _dataset(TaskKind.GOAL, n=3)
        pc = PromptConfig(shots=1)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _mock_cfg(), pc, cache_dir=cache)
        entries = cache_entries(cache)
        # an answer, a memo and a verdict per instance
        assert len(entries) == 9
        verdicts = dict(_verdicts(entries))
        assert len(verdicts) == 3
        log = cache / "mock-model" / "cache.jsonl"
        log.write_text("".join(
            (foreign(key) if key in verdicts or not verdicts_only
             else json.dumps([key, text])) + "\n"
            for key, text in entries))
        # every foreign entry missed, each answer was scored again, then
        # everything replayed
        for calls, scores in ((0 if verdicts_only else 3, 3), (0, 0)):
            scored.clear()
            again = run_evaluation(dataset, _mock_cfg(), pc, cache_dir=cache)
            assert (cold.model_calls, again.model_calls) == (3, calls)
            assert len(scored) == scores
            assert again.rows == cold.rows
        # the fresh verdicts, appended last
        assert [tuple(json.loads(line))
                for line in log.read_text().splitlines()[-3:]] == \
            list(verdicts.items())

    @pytest.mark.parametrize("kept", [lambda n: n, lambda n: n // 2,
                                      lambda n: 1],
                             ids=["newline", "half", "first-byte"])
    def test_a_torn_last_line_loses_at_most_the_entry_glued_to_it(
            self, tmp_path, kept):
        first = _dataset(TaskKind.GOAL, n=3, seed=5)
        second = _dataset(TaskKind.GOAL, n=3, seed=6)
        cache = tmp_path / "cache"

        def run(dataset):
            return run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                                  cache_dir=cache)

        first_run = run(first)
        assert first_run.model_calls == 3
        log = cache / "mock-model" / "cache.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        last = lines[-1].rstrip(b"\n")
        log.write_bytes(b"".join(lines[:-1]) + last[:kept(len(last))])
        second_run = run(second)
        assert second_run.model_calls == 3
        for dataset, cold in ((second, second_run), (first, first_run)):
            again = run(dataset)
            assert again.model_calls <= 1
            assert again.rows == cold.rows


class TestRunArtifacts:
    def test_permissive_records_endpoint_failures(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv(TOKEN_VAR, raising=False)
        dataset = _dataset(TaskKind.GOAL, n=2)
        cfg = _http_cfg("http://127.0.0.1:9", max_retries=1)
        result = run_evaluation(dataset, cfg, PromptConfig(),
                                cache_dir=tmp_path / "cache",
                                permissive=True)
        assert result.metrics.svr == 0.0
        for row in result.rows:
            assert not row["parsed_ok"]
            assert row["raw_answer"].startswith("[endpoint error]")

    def test_strict_mode_propagates_failures(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TOKEN_VAR, raising=False)
        dataset = _dataset(TaskKind.GOAL, n=2)
        cfg = _http_cfg("http://127.0.0.1:9", max_retries=1)
        with pytest.raises(HarnessError):
            run_evaluation(dataset, cfg, PromptConfig(),
                           cache_dir=tmp_path / "cache")

    def test_permissive_records_non_text_content(self, tmp_path,
                                                 scripted_server, api_token):
        base = scripted_server([], content=None)
        dataset = _dataset(TaskKind.GOAL, n=2)
        result = run_evaluation(dataset, _http_cfg(base), PromptConfig(),
                                cache_dir=tmp_path / "cache",
                                permissive=True)
        for row in result.rows:
            assert not row["parsed_ok"]
            assert row["raw_answer"].startswith(
                "[endpoint error] malformed completion payload")
        assert cache_entries(tmp_path / "cache") == []

    def test_permissive_records_unencodable_content(self, tmp_path,
                                                    scripted_server,
                                                    api_token):
        base = scripted_server([], content="move \ud800")
        dataset = _dataset(TaskKind.GOAL, n=2)
        result = run_evaluation(dataset, _http_cfg(base), PromptConfig(),
                                cache_dir=tmp_path / "cache",
                                permissive=True)
        assert result.model_calls == 0
        for row in result.rows:
            assert row["raw_answer"].startswith(
                "[endpoint error] malformed completion payload")
            assert "response_sha256" not in row  # so no responses row
        assert cache_entries(tmp_path / "cache") == []

    def test_strict_mode_raises_unencodable_content(self, tmp_path,
                                                    scripted_server,
                                                    api_token):
        base = scripted_server([], content="move \ud800")
        dataset = _dataset(TaskKind.GOAL, n=2)
        with pytest.raises(HarnessError,
                           match="^malformed completion payload"):
            run_evaluation(dataset, _http_cfg(base), PromptConfig(),
                           cache_dir=tmp_path / "cache")
        assert cache_entries(tmp_path / "cache") == []

    def test_strict_mode_stops_at_the_first_failure(self, tmp_path,
                                                     scripted_server,
                                                     api_token):
        base = scripted_server([500] * 40)
        dataset = _dataset(TaskKind.GOAL, n=20)
        cfg = _http_cfg(base, max_retries=0, parallelism=1)
        with pytest.raises(HarnessError, match=(
                r"failed after 1 attempts \(HTTP 500\)$")):
            run_evaluation(dataset, cfg, PromptConfig(),
                           cache_dir=tmp_path / "cache")
        assert len(_ScriptedHandler.requests_seen) == 1

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_evaluation([], _mock_cfg(), PromptConfig(),
                           cache_dir=tmp_path / "cache")

    def test_mixed_kinds_rejected_before_any_model_call(self, tmp_path):
        dataset = _dataset(TaskKind.JUDGMENT) + _dataset(TaskKind.GOAL)
        with pytest.raises(ValueError, match="mixes task kinds"):
            run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                           cache_dir=tmp_path / "cache")
        assert cache_entries(tmp_path / "cache") == []
        answers = [(None, "VALID")] * len(dataset)
        with pytest.raises(ValueError, match="mixes task kinds"):
            score_answers(dataset, answers)


@contextlib.contextmanager
def _no_new_threads(monkeypatch):
    """Refuse any thread pool, and check that no thread is running beyond
    those alive at entry whenever a prompt is built."""
    counts = []
    real_build_prompt = harness.build_prompt

    def counting_build_prompt(inst, pc):
        counts.append(threading.active_count())
        return real_build_prompt(inst, pc)

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    before = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        patch.setattr(harness, "build_prompt", counting_build_prompt)
        yield
    assert counts and max(counts) <= before
    assert threading.active_count() <= before


class TestThreadsOnlyForTheNetwork:
    @pytest.mark.parametrize("scheme", ["perfect", "flatten"])
    def test_mock_runs_start_no_thread(self, tmp_path, monkeypatch, scheme):
        dataset = _dataset(TaskKind.INSTRUCTION, n=4)
        cache = tmp_path / "cache"
        with _no_new_threads(monkeypatch):
            cold = run_evaluation(dataset, _mock_cfg(scheme), PromptConfig(),
                                  cache_dir=cache)
            warm = run_evaluation(dataset, _mock_cfg(scheme), PromptConfig(),
                                  cache_dir=cache)
        assert (cold.model_calls, warm.model_calls) == (4, 0)
        assert warm.rows == cold.rows

    def test_warm_http_replay_starts_no_thread(self, tmp_path, monkeypatch,
                                               scripted_server, api_token):
        base = scripted_server([])
        dataset = _dataset(TaskKind.JUDGMENT, n=4)
        cache = tmp_path / "cache"
        cold = run_evaluation(dataset, _http_cfg(base), PromptConfig(),
                              cache_dir=cache)
        requests = len(_ScriptedHandler.requests_seen)
        with _no_new_threads(monkeypatch):
            warm = run_evaluation(dataset, _http_cfg(base), PromptConfig(),
                                  cache_dir=cache)
        assert (cold.model_calls, warm.model_calls) == (4, 0)
        assert len(_ScriptedHandler.requests_seen) == requests == 4
        assert warm.rows == cold.rows

    def test_only_misses_are_sent_and_rows_keep_dataset_order(
            self, tmp_path, scripted_server, api_token):
        base = scripted_server([], content="INVALID")
        dataset = _dataset(TaskKind.JUDGMENT, n=8)
        cfg = _http_cfg(base, parallelism=4)
        pc = PromptConfig()
        cache = tmp_path / "cache"
        run_evaluation(dataset[::2], cfg, pc, cache_dir=cache)
        _ScriptedHandler.content = "VALID"
        _ScriptedHandler.requests_seen = []
        result = run_evaluation(dataset, cfg, pc, cache_dir=cache)
        misses = dataset[1::2]
        assert result.model_calls == len(misses)
        sent = [body["messages"][0]["content"]
                for body in _ScriptedHandler.requests_seen]
        assert sorted(sent) == sorted(build_prompt(inst, pc)
                                      for inst in misses)
        assert [row["instance_id"] for row in result.rows] == [
            inst.id for inst in dataset]
        assert [row["raw_answer"] for row in result.rows] == [
            "INVALID", "VALID"] * 4

    @pytest.mark.parametrize("endpoint", ["mock", "http"])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_a_repeated_prompt_is_one_call_and_one_hit(
            self, tmp_path, scripted_server, api_token, parallelism,
            endpoint):
        # a miss whose fetch is pending joins it rather than sending again
        inst = _dataset(TaskKind.GOAL, n=1)[0]
        dataset = [inst] + [dataclasses.replace(inst, id=f"{inst.id}-{k}")
                            for k in range(4)]
        answer = f"```\n{inst.gold_code}\n```"
        if endpoint == "mock":
            cfg = EndpointConfig(base_url="mock://perfect",
                                 model_id="mock-model",
                                 parallelism=parallelism)
        else:
            cfg = _http_cfg(scripted_server([], content=answer),
                            parallelism=parallelism)
        result = run_evaluation(dataset, cfg, PromptConfig(),
                                cache_dir=tmp_path / "cache")
        assert result.model_calls == 1
        assert len(cache_entries(tmp_path / "cache")) == 1
        if endpoint == "http":
            assert len(_ScriptedHandler.requests_seen) == 1
        assert [(row["instance_id"], row["raw_answer"]) for row in result.rows
                ] == [(copy.id, answer) for copy in dataset]
        assert result.metrics.svr == 100.0


class TestEndpointConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="", model_id="m")
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_id="")
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_id="m",
                           max_retries=-1)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_id="m",
                           parallelism=0)
        for bad in ({"timeout": 0}, {"timeout": -1.0},
                    {"timeout": float("nan")}, {"timeout": float("inf")},
                    {"temperature": float("nan")},
                    {"temperature": float("inf")},
                    {"retry_backoff": float("nan")},
                    {"retry_backoff": float("inf")},
                    {"max_tokens": 0}, {"base_url": "ftp://x"},
                    {"base_url": "api.example.com/v1"},
                    {"base_url": "file:///etc"}, {"base_url": "mock://typo"}):
            with pytest.raises(ValueError):
                EndpointConfig(**{"base_url": "http://x", "model_id": "m",
                                  **bad})

    def test_mock_scheme_property(self):
        assert _mock_cfg("perfect").mock_scheme == "perfect"
        cfg = EndpointConfig(base_url="http://x", model_id="m")
        assert cfg.mock_scheme is None


class TestReadResponses:
    def test_prompt_hash_must_be_a_sha256_hex_digest(self, tmp_path):
        path = tmp_path / "responses.jsonl"
        good = {"instance_id": "a", "response": "x",
                "prompt_sha256": "0123456789abcdef" * 4}
        for digest in ({"not": ["a", "hash"]}, None, "ab" * 31, "ab" * 33,
                       "AB" * 32, "ab" * 31 + "g0", "ab" * 32 + "\n"):
            bad = {"instance_id": "b", "response": "y",
                   "prompt_sha256": digest}
            path.write_text(json.dumps(good) + "\n" + json.dumps(bad)
                            + "\n")
            with pytest.raises(ValueError,
                               match=r"^line 2: prompt_sha256 is not 64"):
                read_responses(path)
        path.write_text(json.dumps(good) + "\n")
        assert read_responses(path)["a"] == good

    def test_row_that_is_not_an_object_rejected_with_its_line(self,
                                                              tmp_path):
        path = tmp_path / "responses.jsonl"
        path.write_text('{"instance_id": "a", "response": "x"}\n5\n')
        with pytest.raises(ValueError, match=r"^line 2: .*not a JSON object"):
            read_responses(path)

    @pytest.mark.parametrize("row", [
        {"instance_id": "goal-00000", "response": 5},
        {"instance_id": 7, "response": "x"}])
    def test_non_string_field_rejected_with_its_line(self, tmp_path, row):
        path = tmp_path / "responses.jsonl"
        path.write_text('{"instance_id": "a", "response": "x"}\n'
                        + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=r"^line 2: .*needs string"):
            read_responses(path)

    def test_bad_json_reports_the_file_line(self, tmp_path):
        path = tmp_path / "responses.jsonl"
        path.write_text('{"instance_id": "a", "response": "x"}\n{oops\n')
        with pytest.raises(ValueError, match=r"^line 2: invalid JSON"):
            read_responses(path)

    def test_repeated_instance_id_rejected_with_its_line(self, tmp_path):
        # two rows for one instance would leave scoring to the last one
        path = tmp_path / "responses.jsonl"
        path.write_text('{"_config": {}}\n'
                        '{"instance_id": "a", "response": "x"}\n'
                        '{"instance_id": "b", "response": "y"}\n'
                        '{"instance_id": "a", "response": "z"}\n')
        with pytest.raises(ValueError,
                           match=r"^line 4: duplicate instance_id 'a'"):
            read_responses(path)

    def test_unencodable_response_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "responses.jsonl"
        path.write_text('{"_config": {}}\n'
                        '{"instance_id": "a", "response": "x"}\n'
                        + json.dumps({"instance_id": "b",
                                      "response": "move \ud800"}) + "\n")
        with pytest.raises(ValueError,
                           match=r"^line 3: response is not UTF-8 text"):
            read_responses(path)

    def test_config_line_only_honored_at_top(self, tmp_path):
        path = tmp_path / "responses.jsonl"
        rows = ['{"_config": {}}', '{"instance_id": "a", "response": "x"}']
        path.write_text("\n".join(rows) + "\n")
        assert list(read_responses(path)) == ["a"]
        path.write_text("\n".join(rows + ['{"_config": {}}']) + "\n")
        with pytest.raises(ValueError, match=r"^line 3: a _config line"):
            read_responses(path)


class TestNoCyclicGarbage:
    """What every command repeats per instance leaves no garbage for the
    cyclic collector.  In a forked command each collection copies the
    inherited pages it touches, so garbage costs more than its own work."""

    @pytest.mark.parametrize("style", list(Style))
    def test_repeated_paths_leave_no_cyclic_garbage(self, style):
        params = GenParams(max_depth=10, seed=21)
        data = {kind: make_dataset(kind, 2, style, LexiconMode.NATURAL,
                                   params)[1] for kind in TaskKind}
        goal = data[TaskKind.GOAL]
        g = grammar_from_text(style, goal.lexicon_mode, goal.grammar_text)
        tree = parse(goal.gold_code, g)
        runs = [lambda: generate_instance(style, LexiconMode.ALIEN, params)]
        for inst in data.values():
            runs += [lambda inst=inst, shots=shots: build_prompt(
                inst, PromptConfig(shots=shots)) for shots in (0, 5)]
            runs.append(lambda inst=inst: score_instance(
                inst, _flatten_answer(inst)))
        runs += [lambda: linearize(tree, g), lambda: parse(goal.gold_code, g),
                 lambda: canon_parse(canon_serialize(tree))]
        for run in runs:  # first calls may fill caches, e.g. of patterns
            run()
        gc.collect()
        gc.disable()
        try:
            for run in runs:
                run()
                assert gc.collect() == 0
        finally:
            gc.enable()
