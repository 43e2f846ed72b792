"""Model endpoint driver: prompts, cached requests, answer extraction.

Real endpoints speak the standard chat-completions wire protocol through
``urllib.request`` (proxies from ``HTTP(S)_PROXY``/``NO_PROXY``, certificates
from the system store), with a bearer token read from an environment
variable.  Two built-in test doubles short-circuit the network:
``mock://perfect`` answers with the gold label or gold code,
``mock://flatten`` re-emits gold code with every arithmetic expression
collapsed to its evaluated literal (a known failure shape worth keeping as
a regression oracle).

Responses are cached content-addressed under ``cache/<model>/<key>.txt``,
where the key hashes the endpoint URL, the model, the sampling settings
(temperature, max_tokens), the prompt and a cache-format version, so
interrupted runs resume, replay runs touch the network zero times, and a
hit is never another endpoint's or setting's answer.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import os
import random
import re
import tempfile
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from gridlang.ast import (
    ActionStmt,
    ArithExpr,
    Block,
    If,
    Literal,
    Loop,
    Move,
    Program,
    Stmt,
)
from gridlang.codec import (
    _PUNCT_CHARS,
    TokenKind,
    linearize,
    parse,
    tokenize,
)
from gridlang.grammar import GrammarSpec, grammar_from_text, render_ebnf
from gridlang.metrics import (
    EvalRecord,
    Metrics,
    aggregate,
    score_generation,
    score_judgment,
)
from gridlang import prompts
from gridlang.sampler import generate_instance
from gridlang.seeding import derive_seed
from gridlang.tasks import (
    PerturbationError,
    TaskInstance,
    TaskKind,
    perturb,
    render_instruction,
    render_state,
)
from gridlang.world import DEFAULT_BUDGET, Final, eval_arith, exec_program

__all__ = [
    "HarnessError",
    "EndpointUnreachableError",
    "AuthFailedError",
    "RetriesExhaustedError",
    "EndpointConfig",
    "PromptConfig",
    "build_prompt",
    "call_model",
    "extract_code",
    "score_instance",
    "RunResult",
    "run_evaluation",
    "write_results",
    "read_responses",
]

log = logging.getLogger("gridlang.harness")

MOCK_PREFIX = "mock://"


class HarnessError(RuntimeError):
    pass


class EndpointUnreachableError(HarnessError):
    pass


class AuthFailedError(HarnessError):
    pass


class RetriesExhaustedError(HarnessError):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_id: str
    auth_token_env_var: str = "GRIDLANG_API_TOKEN"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout: float = 60.0
    max_retries: int = 3
    parallelism: int = 4
    retry_backoff: float = 0.5

    def __post_init__(self) -> None:
        if not self.base_url.startswith(("http://", "https://", MOCK_PREFIX)):
            raise ValueError("base_url needs an http, https or mock scheme")
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be finite and >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be finite and > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not (math.isfinite(self.retry_backoff) and self.retry_backoff >= 0):
            raise ValueError("retry_backoff must be finite and >= 0")

    @property
    def mock_scheme(self) -> str | None:
        if self.base_url.startswith(MOCK_PREFIX):
            return self.base_url[len(MOCK_PREFIX):]
        return None


@dataclass(frozen=True)
class PromptConfig:
    shots: int = 0
    cot: bool = True

    def __post_init__(self) -> None:
        if self.shots not in (0, 1, 2, 5):
            raise ValueError(f"shots must be one of 0, 1, 2, 5, "
                             f"got {self.shots}")


# --- prompt construction -----------------------------------------------------


def build_prompt(inst: TaskInstance, pc: PromptConfig) -> str:
    """Assemble the full prompt; a pure function of (instance, config).

    Few-shot demonstrations are sampled from a seed namespace disjoint
    from every dataset namespace, each with its own grammar, and show the
    same input sections followed by a worked answer.
    """
    parts = [_opener(inst.kind)]
    for j in range(pc.shots):
        demo_input, demo_answer = _demo(inst, j)
        parts.append("")
        parts.append(prompts.DEMO_HEADER.format(index=j + 1))
        parts.append(demo_input)
        parts.append(prompts.DEMO_ANSWER_HEADER)
        parts.append(demo_answer)
    if pc.shots:
        parts.append("")
        parts.append(prompts.MAIN_HEADER)
    parts.append(_input_section(inst))
    parts.append("")
    parts.append(_task_line(inst.kind))
    parts.append(_directive(inst.kind, pc.cot))
    return "\n".join(parts)


def _opener(kind: TaskKind) -> str:
    if kind is TaskKind.JUDGMENT:
        return prompts.JUDGMENT_OPENER
    return prompts.GENERATION_OPENER


def _task_line(kind: TaskKind) -> str:
    if kind is TaskKind.JUDGMENT:
        return prompts.JUDGMENT_TASK_LINE
    if kind is TaskKind.GOAL:
        return prompts.GOAL_TASK_LINE
    return prompts.INSTRUCTION_TASK_LINE


def _directive(kind: TaskKind, cot: bool) -> str:
    if kind is TaskKind.JUDGMENT:
        return (prompts.COT_JUDGMENT_DIRECTIVE if cot
                else prompts.DIRECT_JUDGMENT_DIRECTIVE)
    return prompts.COT_CODE_DIRECTIVE if cot else prompts.DIRECT_CODE_DIRECTIVE


def _input_section(inst: TaskInstance) -> str:
    lines = [prompts.EBNF_HEADER, inst.grammar_text.rstrip("\n"), ""]
    if inst.kind is TaskKind.JUDGMENT:
        lines += [prompts.CANDIDATE_HEADER, inst.candidate]
    elif inst.kind is TaskKind.GOAL:
        lines.append(prompts.STATE_LINE.format(
            start=render_state(inst.start_state),
            target=render_state(inst.target_state),
        ))
    else:
        lines += [prompts.INSTRUCTION_HEADER, inst.instruction]
    return "\n".join(lines)


def _demo(inst: TaskInstance, j: int) -> tuple[str, str]:
    params = replace(
        inst.params, seed=derive_seed(inst.params.seed, "demo", j)
    )
    g, code, tree = generate_instance(inst.style, inst.lexicon_mode, params)
    ebnf = render_ebnf(g)
    if inst.kind is TaskKind.JUDGMENT:
        candidate, answer = code, "VALID"
        if j % 2:
            rng = random.Random(derive_seed(params.seed, "demo-perturb"))
            try:
                candidate, _cat = perturb(code, g, rng)
                answer = "INVALID"
            except PerturbationError:
                pass  # keep the valid demo; labels stay correct
        body = "\n".join([prompts.EBNF_HEADER, ebnf, "",
                          prompts.CANDIDATE_HEADER, candidate])
        return body, answer
    if inst.kind is TaskKind.GOAL:
        result = exec_program(tree, inst.start_state)
        assert isinstance(result, Final)
        payload = prompts.STATE_LINE.format(
            start=render_state(inst.start_state),
            target=render_state(result.state),
        )
        body = "\n".join([prompts.EBNF_HEADER, ebnf, "", payload])
    else:
        body = "\n".join([prompts.EBNF_HEADER, ebnf, "",
                          prompts.INSTRUCTION_HEADER,
                          render_instruction(tree)])
    return body, f"```\n{code}\n```"


# --- transport ---------------------------------------------------------------


def call_model(cfg: EndpointConfig, prompt: str) -> str:
    """POST one chat-completion request, retrying 429/5xx/transport faults.

    Raises AuthFailedError (unset token or 401/403, never retried),
    EndpointUnreachableError (transport faults persisted through every
    retry), RetriesExhaustedError (retryable HTTP statuses persisted), or
    HarnessError (any other status, or a completion without text content).
    """
    token = os.environ.get(cfg.auth_token_env_var)
    if not token:
        raise AuthFailedError(
            f"auth token environment variable {cfg.auth_token_env_var!r} "
            f"is unset or empty"
        )
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    body = {
        "model": cfg.model_id,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        # some API gateways filter urllib's default Python-urllib agent
        headers={"Authorization": f"Bearer {token}",
                 "Content-Type": "application/json",
                 "User-Agent": "gridlang"},
    )
    failure = ""
    transport_fault = False
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            time.sleep(cfg.retry_backoff * 2 ** (attempt - 1))
        try:  # the outer handler also covers a fault reading an error body
            try:
                with urllib.request.urlopen(request,
                                            timeout=cfg.timeout) as resp:
                    status, data = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # a non-2xx reply
                with exc:
                    status, data = exc.code, exc.read()
        except (OSError, http.client.HTTPException) as exc:
            failure = f"transport fault: {exc}"
            transport_fault = True
            continue
        if status in (401, 403):
            raise AuthFailedError(f"endpoint rejected credentials with "
                                  f"HTTP {status}")
        if status == 429 or status >= 500:
            failure = f"HTTP {status}"
            transport_fault = False
            continue
        if status != 200:
            text = data.decode("utf-8", "replace")
            raise HarnessError(f"unexpected HTTP {status}: {text[:200]}")
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise HarnessError(f"malformed completion payload: {exc}")
        return content
    if transport_fault:
        raise EndpointUnreachableError(
            f"{url} unreachable after {cfg.max_retries + 1} attempts "
            f"({failure})"
        )
    raise RetriesExhaustedError(
        f"{url} still failing after {cfg.max_retries + 1} attempts "
        f"({failure})"
    )


# --- answer extraction -------------------------------------------------------

def _fenced_blocks(raw: str) -> list[str]:
    """Bodies of the fenced blocks in ``raw``, left to right.

    A block opens at ```` ``` ````, skips the rest of that line (an info
    string) and ends at the next ```` ``` ````; scanning resumes after it.
    This is what ``re.findall(r"```[^\n]*\n(.*?)```", raw, re.DOTALL)``
    returns, found in one pass: once an opening has no newline after it,
    or no closing after that newline, no later opening has either, so
    the scan stops instead of retrying at every backtick.
    """
    blocks = []
    pos = 0
    while True:
        start = raw.find("```", pos)
        if start < 0:
            return blocks
        newline = raw.find("\n", start + 3)
        if newline < 0:
            return blocks
        end = raw.find("```", newline + 1)
        if end < 0:
            return blocks
        blocks.append(raw[newline + 1:end])
        pos = end + 3


def extract_code(raw: str, g: GrammarSpec) -> str:
    """Pull candidate code out of a chatty answer.

    Preference order: last fenced code block, then the longest trailing
    run of tokens the grammar knows, then the whole text.  Extraction
    never fails; hopeless text simply fails to parse downstream.
    """
    fences = _fenced_blocks(raw)
    if fences:
        return fences[-1].strip("\n")
    # the trailing run starts after the last mark no known token contains,
    # so only the text after it is tokenized
    tail = len(raw) - _code_chars(g).match(raw[::-1]).end()
    tokens = tokenize(raw[tail:], g)
    cut = len(tokens)
    while cut and tokens[cut - 1].kind is not TokenKind.UNKNOWN:
        cut -= 1
    if cut == len(tokens) or (cut == 0 and tail == 0):
        return raw
    return raw[tail + tokens[cut].start:]


def _code_chars(g: GrammarSpec) -> re.Pattern:
    """A run of the characters known tokens and the space between them are
    made of: word characters, brackets and the grammar's one-character
    operators.  Any other character is an unknown token of its own.
    (``re`` keeps the compiled pattern of each grammar's marks.)"""
    marks = sorted(_PUNCT_CHARS.union(
        word for word in g.keyword_roles if len(word) == 1))
    return re.compile(r"[\sA-Za-z0-9_" + re.escape("".join(marks)) + "]*")


# --- mock models -------------------------------------------------------------


def _mock_answer(scheme: str, inst: TaskInstance) -> str:
    if scheme == "perfect":
        if inst.kind is TaskKind.JUDGMENT:
            return inst.gold_label
        return f"```\n{inst.gold_code}\n```"
    if scheme == "flatten":
        if inst.kind is TaskKind.JUDGMENT:
            return inst.gold_label
        g = grammar_from_text(inst.style, inst.lexicon_mode,
                              inst.grammar_text)
        flat = _flatten_program(parse(inst.gold_code, g))
        return f"```\n{linearize(flat, g)}\n```"
    raise ValueError(f"unknown mock scheme {scheme!r}")


def _flatten_program(program: Program) -> Program:
    return Program(body=_flatten_block(program.body))


def _flatten_block(block: Block) -> Block:
    return tuple(_flatten_stmt(s) for s in block)


def _flatten_stmt(stmt: Stmt) -> Stmt:
    if isinstance(stmt, ActionStmt):
        action = stmt.action
        if isinstance(action, Move):
            return ActionStmt(Move(action.dir, _flatten_expr(action.steps),
                                   action.steps_omitted))
        return stmt
    if isinstance(stmt, Loop):
        return Loop(_flatten_expr(stmt.count), _flatten_block(stmt.body))
    if isinstance(stmt, If):
        orelse = None if stmt.orelse is None else _flatten_block(stmt.orelse)
        return If(stmt.cond, _flatten_block(stmt.then), orelse)
    raise TypeError(f"not a statement: {stmt!r}")


def _flatten_expr(expr: ArithExpr) -> Literal:
    return Literal(eval_arith(expr))


# --- evaluation runs ---------------------------------------------------------


def score_instance(
    inst: TaskInstance, raw: str, budget: int = DEFAULT_BUDGET
) -> EvalRecord:
    """Route one raw answer through extraction and the task's scorer."""
    if inst.kind is TaskKind.JUDGMENT:
        return score_judgment(raw, inst.gold_label, inst.id)
    g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
    code = extract_code(raw, g)
    return score_generation(code, inst, g, raw_answer=raw, budget=budget)


@dataclass(frozen=True)
class RunResult:
    records: list[EvalRecord]
    metrics: Metrics
    model_calls: int
    results_path: Path | None
    responses_path: Path | None


# Versions what a cache key hashes: bumped whenever that changes, so entries
# written under an older key read as misses.
_CACHE_FORMAT = "gridlang-cache-2"


def _cache_key(cfg: EndpointConfig, prompt: str) -> str:
    parts = (_CACHE_FORMAT, cfg.base_url, cfg.model_id,
             repr(cfg.temperature), str(cfg.max_tokens), prompt)
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _atomic_write(path: Path, text: str) -> None:
    handle = tempfile.NamedTemporaryFile(
        mode="w", encoding="utf-8", dir=path.parent,
        prefix=path.name + ".", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def run_evaluation(
    dataset: list[TaskInstance],
    cfg: EndpointConfig,
    pc: PromptConfig,
    cache_dir: str | Path = "cache",
    out_dir: str | Path | None = None,
    permissive: bool = False,
    budget: int = DEFAULT_BUDGET,
    provenance: dict | None = None,
) -> RunResult:
    """Fetch (or replay) an answer per instance, score, and aggregate.

    model_calls counts cache misses that actually invoked the model, so a
    warm-cache replay reports zero.  Endpoint failures abort the run
    unless permissive, in which case the instance scores a syntax failure
    with the error text preserved as its raw answer.  A strict run stops
    at its first failure: fetches not yet started are cancelled or skip
    the endpoint, so no further retries or backoff delay the error.
    """
    if not dataset:
        raise ValueError("empty dataset")
    cache_root = Path(cache_dir) / _sanitize(cfg.model_id)
    cache_root.mkdir(parents=True, exist_ok=True)
    scheme = cfg.mock_scheme
    calls = 0
    failed = threading.Event()  # set by a strict run's first failure

    def fetch(inst: TaskInstance) -> tuple[str, str, bool] | None:
        if failed.is_set():  # the run is aborting; this result is unread
            return None
        prompt = build_prompt(inst, pc)
        key = _cache_key(cfg, prompt)
        path = cache_root / f"{key}.txt"
        if path.exists():
            return prompt, path.read_text(encoding="utf-8"), False
        if scheme is not None:
            raw = _mock_answer(scheme, inst)
        else:
            try:
                raw = call_model(cfg, prompt)
            except HarnessError:
                if not permissive:
                    failed.set()
                raise
        _atomic_write(path, raw)
        return prompt, raw, True

    fetched: list[tuple[str, str] | HarnessError] = []
    pool = ThreadPoolExecutor(max_workers=cfg.parallelism)
    try:
        futures = [pool.submit(fetch, inst) for inst in dataset]
        for inst, future in zip(dataset, futures):
            try:
                prompt, raw, missed = future.result()
            except HarnessError as exc:
                log.error("instance %s: %s", inst.id, exc)
                if not permissive:
                    raise
                fetched.append(exc)
                continue
            calls += missed
            fetched.append((prompt, raw))
    finally:
        pool.shutdown(cancel_futures=True)

    records = []
    response_rows = []
    for inst, item in zip(dataset, fetched):
        if isinstance(item, HarnessError):
            records.append(EvalRecord(
                instance_id=inst.id,
                parsed_ok=False,
                behavioral_ok=None if inst.kind is TaskKind.JUDGMENT
                else False,
                semantic_ok=False if inst.kind is TaskKind.INSTRUCTION
                else None,
                failure_stage="syntax",
                raw_answer=f"[endpoint error] {item}",
            ))
            continue
        prompt, raw = item
        records.append(score_instance(inst, raw, budget))
        response_rows.append({
            "instance_id": inst.id,
            "prompt_sha256": hashlib.sha256(
                prompt.encode("utf-8")).hexdigest(),
            "response_sha256": hashlib.sha256(
                raw.encode("utf-8")).hexdigest(),
            "response": raw,
        })

    metrics = aggregate(records)
    results_path = responses_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        results_path = out / "results.jsonl"
        responses_path = out / "responses.jsonl"
        write_results(records, response_rows, results_path, provenance)
        with open(responses_path, "w", encoding="utf-8") as handle:
            if provenance is not None:
                handle.write(json.dumps({"_config": provenance}) + "\n")
            for row in response_rows:
                handle.write(json.dumps(row) + "\n")
    return RunResult(records, metrics, calls, results_path, responses_path)


def write_results(
    records: list[EvalRecord],
    response_rows: list[dict],
    path: str | Path,
    provenance: dict | None = None,
) -> None:
    """Line-delimited records plus prompt/response hashes where known."""
    hashes = {row["instance_id"]: row for row in response_rows}
    with open(path, "w", encoding="utf-8") as handle:
        if provenance is not None:
            handle.write(json.dumps({"_config": provenance}) + "\n")
        for record in records:
            row = record.to_dict()
            extra = hashes.get(record.instance_id)
            if extra is not None:
                if "prompt_sha256" in extra:
                    row["prompt_sha256"] = extra["prompt_sha256"]
                row["response_sha256"] = extra["response_sha256"]
            handle.write(json.dumps(row) + "\n")


def read_responses(path: str | Path) -> dict[str, dict]:
    """Load a captured responses file as an instance_id -> row map.

    Each row keeps at least the response text plus any hashes recorded at
    capture time; a leading provenance line is skipped, and an instance_id
    that repeats is refused.
    """
    responses = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: invalid JSON: {exc.msg} "
                                 f"at column {exc.colno}") from None
            if not isinstance(row, dict):
                raise ValueError(f"line {line_no}: responses row is not a "
                                 f"JSON object")
            if set(row) == {"_config"}:
                continue
            if not (isinstance(row.get("instance_id"), str)
                    and isinstance(row.get("response"), str)):
                raise ValueError(
                    f"line {line_no}: responses row needs string "
                    f"instance_id and response"
                )
            if row["instance_id"] in responses:
                raise ValueError(f"line {line_no}: duplicate instance_id "
                                 f"{row['instance_id']!r}")
            responses[row["instance_id"]] = row
    return responses
