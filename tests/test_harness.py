"""Prompt assembly, answer extraction, HTTP behavior, and caching."""

import contextlib
import dataclasses
import gc
import http.server
import json
import os
import random
import sys
import threading
import time
import tracemalloc

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
from gridlang import codec, harness
from gridlang.codec import linearize, parse, tokenize
from gridlang.grammar import (
    LexiconMode,
    Style,
    build_grammar,
    grammar_from_text,
)
from gridlang.harness import (
    _fenced_blocks,
    _flatten_program,
    _mock_answer,
    AuthFailedError,
    EndpointConfig,
    EndpointUnreachableError,
    HarnessError,
    PromptConfig,
    RetriesExhaustedError,
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
    GENERATION_OPENER,
    JUDGMENT_OPENER,
    JUDGMENT_TASK_LINE,
    MAIN_HEADER,
)
from gridlang.sampler import GenParams, generate_instance
from gridlang.tasks import TaskKind, make_dataset, perturb

from conftest import (
    ALL_COMBOS,
    FENCE_RE,
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
        assert _fenced_blocks(raw) == FENCE_RE.findall(raw)

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
                assert len(tokenize(text, g)) == len(text)
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


class TestScoringMakesNoTokens:
    """Scoring reads plain word lists; ``tokenize`` and its ``Token``
    objects serve only ``perturb`` and the public API."""

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

        def refuse(*args):
            raise AssertionError("scoring made Token objects")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "gridlang" and \
                    getattr(module, "tokenize", None) is codec.tokenize:
                monkeypatch.setattr(module, "tokenize", refuse)
        monkeypatch.setattr(codec, "_new_token", refuse)
        for name, (raw, stage) in answers.items():
            assert score_instance(inst, raw).failure_stage == stage, name


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Serves scripted status codes, then 200s with a canned completion."""

    script: list[int] = []
    content: object = "VALID"
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
        payload = {"choices": [{"message": {"content": type(self).content}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _RawReplyHandler(http.server.BaseHTTPRequestHandler):
    """Reads the request, then writes ``reply`` verbatim and hangs up."""

    reply = b""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.wfile.write(type(self).reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    servers = []

    def start(script, content="VALID", handler=_ScriptedHandler):
        _ScriptedHandler.script = list(script)
        _ScriptedHandler.content = content
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
        with pytest.raises(AuthFailedError):
            call_model(_http_cfg(base), "x")
        assert _ScriptedHandler.requests_seen == []

    def test_auth_rejection_never_retries(self, scripted_server, api_token):
        base = scripted_server([401, 200])
        with pytest.raises(AuthFailedError):
            call_model(_http_cfg(base), "x")
        assert len(_ScriptedHandler.requests_seen) == 1

    def test_persistent_server_error_exhausts_retries(self, scripted_server,
                                                      api_token):
        base = scripted_server([500] * 10)
        cfg = _http_cfg(base, max_retries=3)
        with pytest.raises(RetriesExhaustedError):
            call_model(cfg, "x")
        assert len(_ScriptedHandler.requests_seen) == 4  # initial + retries

    def test_closed_port_unreachable(self, api_token):
        cfg = _http_cfg("http://127.0.0.1:9", max_retries=1)
        with pytest.raises(EndpointUnreachableError):
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
        with pytest.raises(EndpointUnreachableError, match="transport fault"):
            call_model(_http_cfg(base, max_retries=1), "x")

    def test_unexpected_status_is_plain_error(self, scripted_server,
                                              api_token):
        base = scripted_server([418])
        with pytest.raises(HarnessError) as info:
            call_model(_http_cfg(base), "x")
        assert not isinstance(info.value, (AuthFailedError,
                                           RetriesExhaustedError,
                                           EndpointUnreachableError))

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

    def test_one_file_per_model_prompt_pair(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=3)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                       cache_dir=cache)
        run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                       cache_dir=cache)
        files = list((cache / "mock-model").glob("*.txt"))
        assert len(files) == 3

    def test_distinct_prompts_get_distinct_entries(self, tmp_path):
        dataset = _dataset(TaskKind.GOAL, n=2)
        cache = tmp_path / "cache"
        run_evaluation(dataset, _mock_cfg(), PromptConfig(shots=0),
                       cache_dir=cache)
        run_evaluation(dataset, _mock_cfg(), PromptConfig(shots=1),
                       cache_dir=cache)
        files = list((cache / "mock-model").glob("*.txt"))
        assert len(files) == 4

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
        entries = list((cache / "mock-model").iterdir())
        assert len(entries) == 3
        for entry in entries:
            assert entry.suffix == ".txt"
            assert entry.stat().st_mode & 0o777 == 0o600

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "entry.txt").mkdir()  # the rename onto it fails
        with pytest.raises(OSError):
            harness._atomic_write(tmp_path / "entry.txt", "answer")
        with pytest.raises(UnicodeEncodeError):
            harness._atomic_write(tmp_path / "other.txt", "\ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.txt"]

    def test_write_keeps_the_answer_bytes(self, tmp_path):
        text = "line\r\nnext\n\u00e9 tail"
        harness._atomic_write(tmp_path / "entry.txt", text)
        assert (tmp_path / "entry.txt").read_bytes() == text.encode()

    def test_entry_removed_before_it_is_read_is_a_miss(self, tmp_path,
                                                        monkeypatch):
        dataset = _dataset(TaskKind.GOAL, n=3)
        cache = tmp_path / "cache"
        first = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                               cache_dir=cache)

        def racing_open(path, *args, **kwargs):
            # another run removes the entry after it was found
            os.unlink(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(harness, "open", racing_open, raising=False)
        again = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                               cache_dir=cache)
        assert again.model_calls == 3
        assert again.metrics == first.metrics

    def test_model_id_sanitized_for_path(self, tmp_path):
        dataset = _dataset(TaskKind.JUDGMENT, n=2)
        cfg = EndpointConfig(base_url="mock://perfect",
                             model_id="org/model:v1")
        run_evaluation(dataset, cfg, PromptConfig(),
                       cache_dir=tmp_path / "cache")
        children = [p.name for p in (tmp_path / "cache").iterdir()]
        assert len(children) == 1
        assert "/" not in children[0] and ":" not in children[0]


class TestRunArtifacts:
    def test_results_and_responses_written(self, tmp_path):
        dataset = _dataset(TaskKind.INSTRUCTION, n=3)
        out = tmp_path / "out"
        result = run_evaluation(dataset, _mock_cfg(), PromptConfig(),
                                cache_dir=tmp_path / "cache", out_dir=out,
                                provenance={"command": "test"})
        assert result.results_path.exists()
        assert result.responses_path.exists()
        results_lines = result.results_path.read_text().splitlines()
        assert json.loads(results_lines[0]) == {
            "_config": {"command": "test"}}
        assert len(results_lines) == 4
        row = json.loads(results_lines[1])
        assert row["instance_id"] == dataset[0].id
        assert len(row["prompt_sha256"]) == 64
        assert len(row["response_sha256"]) == 64

    def test_permissive_records_endpoint_failures(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv(TOKEN_VAR, raising=False)
        dataset = _dataset(TaskKind.GOAL, n=2)
        cfg = _http_cfg("http://127.0.0.1:9", max_retries=1)
        result = run_evaluation(dataset, cfg, PromptConfig(),
                                cache_dir=tmp_path / "cache",
                                permissive=True)
        assert result.metrics.svr == 0.0
        for rec in result.records:
            assert not rec.parsed_ok
            assert rec.raw_answer.startswith("[endpoint error]")

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
        for rec in result.records:
            assert not rec.parsed_ok
            assert rec.raw_answer.startswith(
                "[endpoint error] malformed completion payload")
        assert not list((tmp_path / "cache").rglob("*.txt"))

    def test_strict_mode_stops_at_the_first_failure(self, tmp_path,
                                                     scripted_server,
                                                     api_token):
        base = scripted_server([500] * 40)
        dataset = _dataset(TaskKind.GOAL, n=20)
        cfg = _http_cfg(base, max_retries=0, parallelism=1)
        with pytest.raises(RetriesExhaustedError):
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
                           cache_dir=tmp_path / "cache",
                           out_dir=tmp_path / "out")
        assert not list(tmp_path.rglob("*.txt"))
        assert not (tmp_path / "out").exists()
        answers = [(None, "VALID")] * len(dataset)
        with pytest.raises(ValueError, match="mixes task kinds"):
            score_answers(dataset, answers, tmp_path / "out")
        assert not (tmp_path / "out").exists()


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
        patch.setattr(harness, "ThreadPoolExecutor", refuse)
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
        assert warm.records == cold.records

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
        assert warm.records == cold.records

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
        out = tmp_path / "out"
        result = run_evaluation(dataset, cfg, pc, cache_dir=cache,
                                out_dir=out)
        misses = dataset[1::2]
        assert result.model_calls == len(misses)
        sent = [body["messages"][0]["content"]
                for body in _ScriptedHandler.requests_seen]
        assert sorted(sent) == sorted(build_prompt(inst, pc)
                                      for inst in misses)
        ids = [inst.id for inst in dataset]
        responses = [json.loads(line) for line in
                     result.responses_path.read_text().splitlines()]
        assert [row["instance_id"] for row in responses] == ids
        assert [row["response"] for row in responses] == [
            "INVALID", "VALID"] * 4
        results = [json.loads(line) for line in
                   result.results_path.read_text().splitlines()]
        assert [row["instance_id"] for row in results] == ids
        assert [rec.instance_id for rec in result.records] == ids

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_a_repeated_prompt_is_one_call_and_one_hit(self, tmp_path,
                                                       parallelism):
        inst = _dataset(TaskKind.GOAL, n=1)[0]
        dataset = [inst, dataclasses.replace(inst, id=inst.id + "-again")]
        cfg = EndpointConfig(base_url="mock://perfect",
                             model_id="mock-model", parallelism=parallelism)
        result = run_evaluation(dataset, cfg, PromptConfig(),
                                cache_dir=tmp_path / "cache")
        assert result.model_calls == 1
        assert len(list((tmp_path / "cache").rglob("*.txt"))) == 1
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
                    {"base_url": "file:///etc"}):
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
                inst, _mock_answer("flatten", inst)))
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
