"""Model endpoint driver: prompts, cached requests, answer extraction.

Real endpoints speak the standard chat-completions wire protocol with a
bearer token read from an environment variable.  Two built-in test
doubles short-circuit the network: ``mock://perfect`` answers with the
gold label or gold code, ``mock://flatten`` re-emits gold code with every
arithmetic expression collapsed to its evaluated literal (a known failure
shape worth keeping as a regression oracle).

Responses are cached content-addressed under
``cache/<model>/<sha256(model, prompt)>.txt``, so interrupted runs resume
and replay runs touch the network zero times.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import requests

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
from gridlang.codec import TokenKind, linearize, parse, tokenize
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
        if not self.base_url:
            raise ValueError("base_url must be non-empty")
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")

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
    retry), or RetriesExhaustedError (retryable HTTP statuses persisted).
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
    headers = {"Authorization": f"Bearer {token}"}
    failure = ""
    transport_fault = False
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            time.sleep(cfg.retry_backoff * 2 ** (attempt - 1))
        try:
            resp = requests.post(url, json=body, headers=headers,
                                 timeout=cfg.timeout)
        except requests.RequestException as exc:
            failure = f"transport fault: {exc}"
            transport_fault = True
            continue
        if resp.status_code in (401, 403):
            raise AuthFailedError(f"endpoint rejected credentials with "
                                  f"HTTP {resp.status_code}")
        if resp.status_code == 429 or resp.status_code >= 500:
            failure = f"HTTP {resp.status_code}"
            transport_fault = False
            continue
        if resp.status_code != 200:
            raise HarnessError(
                f"unexpected HTTP {resp.status_code}: {resp.text[:200]}"
            )
        try:
            payload = resp.json()
            return payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise HarnessError(f"malformed completion payload: {exc}")
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

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code(raw: str, g: GrammarSpec) -> str:
    """Pull candidate code out of a chatty answer.

    Preference order: last fenced code block, then the longest trailing
    run of tokens the grammar knows, then the whole text.  Extraction
    never fails; hopeless text simply fails to parse downstream.
    """
    fences = _FENCE_RE.findall(raw)
    if fences:
        return fences[-1].strip("\n")
    tokens = tokenize(raw, g)
    if not tokens:
        return raw
    cut = len(tokens)
    for i in range(len(tokens) - 1, -1, -1):
        if tokens[i].kind is TokenKind.UNKNOWN:
            break
        cut = i
    if cut == 0 or cut == len(tokens):
        return raw
    return raw[tokens[cut].start:]


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


def _cache_key(model_id: str, prompt: str) -> str:
    digest = hashlib.sha256()
    digest.update(model_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


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
    with the error text preserved as its raw answer.
    """
    if not dataset:
        raise ValueError("empty dataset")
    cache_root = Path(cache_dir) / _sanitize(cfg.model_id)
    cache_root.mkdir(parents=True, exist_ok=True)
    scheme = cfg.mock_scheme
    calls = 0

    def fetch(inst: TaskInstance) -> tuple[str, str, bool]:
        prompt = build_prompt(inst, pc)
        key = _cache_key(cfg.model_id, prompt)
        path = cache_root / f"{key}.txt"
        if path.exists():
            return prompt, path.read_text(encoding="utf-8"), False
        if scheme is not None:
            raw = _mock_answer(scheme, inst)
        else:
            raw = call_model(cfg, prompt)
        _atomic_write(path, raw)
        return prompt, raw, True

    fetched: list[tuple[str, str] | HarnessError] = []
    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
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
    capture time; a leading provenance line is skipped.
    """
    responses = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            if isinstance(row, dict) and set(row) == {"_config"}:
                continue
            if "instance_id" not in row or "response" not in row:
                raise ValueError(
                    f"line {line_no}: responses row needs instance_id "
                    f"and response"
                )
            responses[row["instance_id"]] = row
    return responses
