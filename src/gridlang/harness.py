"""Model endpoint driver: prompts, cached requests, answer extraction.

Real endpoints speak the standard chat-completions wire protocol through
``urllib.request`` (proxies from ``HTTP(S)_PROXY``/``NO_PROXY``, certificates
from the system store), with a bearer token read from an environment
variable.  Two built-in test doubles short-circuit the network:
``mock://perfect`` answers with the gold label or gold code,
``mock://flatten`` re-emits gold code with every arithmetic expression
collapsed to its evaluated literal (a known failure shape worth keeping as
a regression oracle).

Answers are cached in one append-only log per model,
``cache/<model>/cache.jsonl``, each line a JSON array ``[key, text]``.  An
answer's key hashes the endpoint URL, the model, the sampling settings
(temperature, max_tokens), the prompt's sha256 and a cache-format version,
so interrupted runs resume, replay runs touch the network zero times, and
a hit is never another endpoint's or setting's answer.  A few-shot memo
entry holds the sha256 of a prompt with demos, its key hashing the
instance record, the shot count, the cot switch and a digest of this
package's source and the Python version.  A warm few-shot replay thus
finds its answers without building a prompt, and any edit to the package
reads as a memo miss, which builds the prompt again.  A run indexes the
log once, keeping each key's line offset rather than its text, so its
start-up time grows with the log's size and its memory with its lines.

An evaluation finds prompt hashes, reads cache hits and makes mock
answers in the calling thread, in dataset order; only cache misses to a real
endpoint are fetched on threads, at most ``parallelism`` at once.  The
transport (``urllib.request`` and ``http.client``, which load ``ssl`` and
``email``), the thread pool and ``logging`` are imported on the first
real-endpoint request, so ``gen``, ``score`` and a mock or fully cached
``eval`` never load them; that first request pays about 30 ms for it.

An answer's code is its last fenced block, else the longest trailing run
of words the grammar knows, else the whole text.  Extraction and parsing
work on plain word lists and make no token objects, so the time and
memory of scoring grow with an answer's size at a small constant.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from gridlang.ast import BinaryArith, Literal
from gridlang.codec import code_start, linearize, parse
from gridlang.grammar import GrammarSpec, grammar_from_text
from gridlang.metrics import (
    EvalRecord,
    Metrics,
    aggregate,
    score_generation,
    score_judgment,
    syntax_failure,
)
from gridlang import prompts
from gridlang.seeding import derive_seed
from gridlang.tasks import (
    MalformedRecordError,
    TaskInstance,
    TaskKind,
    check_text,
    make_instance,
    read_jsonl,
    render_state,
    write_jsonl,
)
from gridlang.world import eval_arith

__all__ = [
    "HarnessError",
    "EndpointConfig",
    "PromptConfig",
    "build_prompt",
    "call_model",
    "extract_code",
    "score_instance",
    "dataset_kind",
    "RunResult",
    "score_answers",
    "run_evaluation",
    "read_responses",
]

MOCK_PREFIX = "mock://"


class HarnessError(RuntimeError):
    """An endpoint failure; its message says which."""


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


# each task's fixed wording: (opener, task line, step-by-step directive,
# direct directive)
_WORDING = {
    TaskKind.JUDGMENT: (prompts.JUDGMENT_OPENER, prompts.JUDGMENT_TASK_LINE,
                        prompts.COT_JUDGMENT_DIRECTIVE,
                        prompts.DIRECT_JUDGMENT_DIRECTIVE),
    TaskKind.GOAL: (prompts.GENERATION_OPENER, prompts.GOAL_TASK_LINE,
                    prompts.COT_CODE_DIRECTIVE, prompts.DIRECT_CODE_DIRECTIVE),
    TaskKind.INSTRUCTION: (prompts.GENERATION_OPENER,
                           prompts.INSTRUCTION_TASK_LINE,
                           prompts.COT_CODE_DIRECTIVE,
                           prompts.DIRECT_CODE_DIRECTIVE),
}


def build_prompt(inst: TaskInstance, pc: PromptConfig) -> str:
    """Assemble the full prompt; a pure function of (instance, config).

    Few-shot demo ``j`` is instance ``j`` of a set drawn like the dataset
    (``tasks.make_instance``), from a seed namespace disjoint from every
    dataset namespace, so it has its own grammar, program and states, and
    a judgment demo is valid for even ``j`` and perturbed for odd ``j``.
    Each shows the same input sections followed by its gold answer.
    """
    opener, task_line, cot_directive, direct_directive = _WORDING[inst.kind]
    parts = [opener]
    for j in range(pc.shots):
        seed = derive_seed(inst.params.seed, "demo", j)
        demo = make_instance(inst.kind, inst.style, inst.lexicon_mode,
                             replace(inst.params, seed=seed), j)
        # a demo's EBNF keeps its final newline, unlike the instance's
        parts += ["", prompts.DEMO_HEADER.format(index=j + 1),
                  _input_section(demo, demo.grammar_text),
                  prompts.DEMO_ANSWER_HEADER, _gold_answer(demo)]
    if pc.shots:
        parts += ["", prompts.MAIN_HEADER]
    parts += [_input_section(inst, inst.grammar_text.rstrip("\n")), "",
              task_line, cot_directive if pc.cot else direct_directive]
    return "\n".join(parts)


def _input_section(inst: TaskInstance, ebnf: str) -> str:
    """The EBNF section, then the task's input: the code to check, the
    start and target states, or the instructions."""
    lines = [prompts.EBNF_HEADER, ebnf, ""]
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


def _gold_answer(inst: TaskInstance) -> str:
    """The answer a perfect model gives: the gold label, or the gold code
    fenced."""
    if inst.kind is TaskKind.JUDGMENT:
        return inst.gold_label
    return f"```\n{inst.gold_code}\n```"


# --- transport ---------------------------------------------------------------


def call_model(cfg: EndpointConfig, prompt: str) -> str:
    """POST one chat-completion request, retrying 429/5xx/transport faults.

    Raises HarnessError for an unset token or a 401/403 (never retried),
    for transport faults or retryable statuses that persisted through every
    retry, and for any other status or a completion without text content
    or with text that UTF-8 cannot encode.
    """
    import http.client  # the transport loads on the first real request
    import urllib.error
    import urllib.request

    token = os.environ.get(cfg.auth_token_env_var)
    if not token:
        raise HarnessError(
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
            continue
        if status in (401, 403):
            raise HarnessError(f"endpoint rejected credentials with "
                               f"HTTP {status}")
        if status == 429 or status >= 500:
            failure = f"HTTP {status}"
            continue
        if status != 200:
            text = data.decode("utf-8", "replace")
            raise HarnessError(f"unexpected HTTP {status}: {text[:200]}")
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}")
            content.encode("utf-8")  # a lone surrogate raises here
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise HarnessError(f"malformed completion payload: {exc}")
        return content
    raise HarnessError(
        f"{url} failed after {cfg.max_retries + 1} attempts ({failure})")


# --- answer extraction -------------------------------------------------------

def _last_fenced_block(raw: str) -> str | None:
    """Body of the last fenced block in ``raw``, or None if it has none.

    A block opens at ```` ``` ````, skips the rest of that line (an info
    string) and ends at the next ```` ``` ````; scanning resumes after it.
    This is the last of ``re.findall(r"```[^\n]*\n(.*?)```", raw,
    re.DOTALL)``, found in one pass: once an opening has no newline after
    it, or no closing after that newline, no later opening has either, so
    the scan stops instead of retrying at every backtick.
    """
    last = None  # the bounds of the last body found
    pos = 0
    while True:
        start = raw.find("```", pos)
        newline = raw.find("\n", start + 3) if start >= 0 else -1
        end = raw.find("```", newline + 1) if newline >= 0 else -1
        if end < 0:
            return raw[last[0]:last[1]] if last else None
        last = newline + 1, end
        pos = end + 3


def extract_code(raw: str, g: GrammarSpec) -> str:
    """Pull candidate code out of a chatty answer.

    Preference order: last fenced code block, then the longest trailing
    run of words the grammar knows (``codec.code_start``), then the whole
    text.  Extraction never fails; hopeless text simply fails to parse
    downstream.
    """
    fence = _last_fenced_block(raw)
    if fence is not None:
        return fence.strip("\n")
    return raw[code_start(raw, g):]


# --- mock models -------------------------------------------------------------


def _mock_answer(scheme: str, inst: TaskInstance) -> str:
    if scheme == "perfect":
        return _gold_answer(inst)
    if scheme == "flatten":
        if inst.kind is TaskKind.JUDGMENT:
            return inst.gold_label
        try:  # a fault of the record's own grammar or gold code
            g = grammar_from_text(inst.style, inst.lexicon_mode,
                                  inst.grammar_text)
            flat = _flatten_program(parse(inst.gold_code, g))
        except ValueError as exc:
            raise ValueError(f"instance {inst.id}: {exc}") from exc
        return f"```\n{linearize(flat, g)}\n```"
    raise ValueError(f"unknown mock scheme {scheme!r}")


def _flatten_program(node):
    """Fold every arithmetic expression in a tree to its literal value.

    One walk over tuples and dataclass fields: a compound expression
    becomes ``Literal(eval_arith(e))``, a node is rebuilt from its folded
    fields in order, and literals and non-node values (enum members, item
    names) are leaves, so the shared ``ITEM_VOCAB`` names stay in place."""
    if isinstance(node, tuple):
        return tuple([_flatten_program(item) for item in node])
    if isinstance(node, BinaryArith):
        return Literal(eval_arith(node))
    names = getattr(node, "__dataclass_fields__", None)
    if names is None or isinstance(node, Literal):
        return node
    return type(node)(*[_flatten_program(getattr(node, name))
                        for name in names])


# --- evaluation runs ---------------------------------------------------------


def score_instance(inst: TaskInstance, raw: str) -> EvalRecord:
    """Route one raw answer through extraction and the task's scorer; a
    fault of the record itself raises ValueError naming the instance."""
    if inst.kind is TaskKind.JUDGMENT:
        return score_judgment(raw, inst.gold_label, inst.id)
    try:
        g = grammar_from_text(inst.style, inst.lexicon_mode, inst.grammar_text)
        return score_generation(extract_code(raw, g), inst, g, raw_answer=raw)
    except ValueError as exc:
        raise ValueError(f"instance {inst.id}: {exc}") from exc


def dataset_kind(dataset: list[TaskInstance]) -> TaskKind:
    """The task kind every instance shares; an empty or mixed dataset is
    refused, since its records could not be aggregated."""
    kinds = {inst.kind for inst in dataset}
    if len(kinds) != 1:
        raise ValueError("dataset mixes task kinds" if kinds
                         else "empty dataset")
    return kinds.pop()


@dataclass(frozen=True)
class RunResult:
    records: list[EvalRecord]
    metrics: Metrics
    model_calls: int


# One answer per instance: (prompt_sha256 or None, response), or the
# HarnessError a permissive run kept in place of a response.
Answer = tuple[str | None, str] | HarnessError


def score_answers(
    dataset: list[TaskInstance],
    answers: list[Answer],
    out_dir: str | Path | None = None,
    provenance: dict | None = None,
) -> tuple[list[EvalRecord], Metrics, list[dict]]:
    """Score ``answers[i]`` against ``dataset[i]``, aggregate, and write
    ``results.jsonl`` under ``out_dir`` when one is given.

    An endpoint error scores a syntax failure with its text preserved as
    the raw answer.  A response's row adds its prompt hash, when known,
    and its response hash.  Returns the records, their metrics and the
    rows written.
    """
    dataset_kind(dataset)  # a mixed set's records could not be aggregated
    records = []
    rows = []
    for inst, answer in zip(dataset, answers, strict=True):
        if isinstance(answer, HarnessError):
            record = syntax_failure(inst, f"[endpoint error] {answer}")
            row = record.to_dict()
        else:
            prompt_sha256, response = answer
            record = score_instance(inst, response)
            row = record.to_dict()
            if prompt_sha256 is not None:
                row["prompt_sha256"] = prompt_sha256
            row["response_sha256"] = hashlib.sha256(
                response.encode("utf-8")).hexdigest()
        records.append(record)
        rows.append(row)
    metrics = aggregate(records)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_jsonl(out / "results.jsonl", provenance, map(json.dumps, rows))
    return records, metrics, rows


# Versions what a cache key hashes: bumped whenever that changes, so entries
# written under an older key read as misses.
_CACHE_FORMAT = "gridlang-cache-4"

_SHA256_RE = re.compile(r"[0-9a-f]{64}")


def _cache_key(cfg: EndpointConfig, prompt_sha256: str) -> str:
    parts = (_CACHE_FORMAT, cfg.base_url, cfg.model_id,
             repr(cfg.temperature), str(cfg.max_tokens), prompt_sha256)
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


@functools.cache
def _code_digest() -> str:
    """sha256 of the Python version and the source of every module of this
    package, which is all a prompt is built from besides its instance and
    config.  Read on first use, once per process, so commands that never
    consult the memo do not pay for it."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256(sys.version.encode("utf-8"))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source = handle.read()
            digest.update(f"\x00{name}\x00{len(source)}\x00".encode("utf-8"))
            digest.update(source)
    return digest.hexdigest()


def _memo_key(inst: TaskInstance, pc: PromptConfig) -> str:
    parts = (_code_digest(), str(pc.shots), str(pc.cot), inst.to_json())
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def _model_dir_name(model_id: str) -> str:
    """The model's directory name: characters outside ``[A-Za-z0-9._-]``
    and a leading dot become ``_``, so ``.``, ``..`` or ``../x`` name one
    child of the cache directory."""
    return re.sub(r"^\.|[^A-Za-z0-9._-]", "_", model_id)


def _index_log(log: int) -> dict[str, tuple[int, int]]:
    """Key -> (offset, length) of the key's last line in the cache log
    open as ``log``.  Only a line opening as an entry does, ``["<64-char
    key>", "``, is indexed, and its text is read and checked on lookup, so
    a run holds an index entry per line rather than the log's texts."""
    index = {}
    offset = 0
    with open(log, "rb", closefd=False) as handle:
        for line in handle:
            if line[:2] == b'["' and line[66:70] == b'", "':
                index[line[2:66].decode("latin-1")] = (offset, len(line))
            offset += len(line)
    return index


def run_evaluation(
    dataset: list[TaskInstance],
    cfg: EndpointConfig,
    pc: PromptConfig,
    cache_dir: str | Path = "cache",
    out_dir: str | Path | None = None,
    permissive: bool = False,
    provenance: dict | None = None,
) -> RunResult:
    """Fetch (or replay) an answer per instance, then ``score_answers``.

    The model's cache log is indexed once, and each new answer or memo is
    appended to it as one line as soon as it is known, so an interrupted
    run resumes; mock answers are cached too, so a warm mock replay
    reports zero model calls, as a real one does.  The caller walks the
    dataset in order, finding each prompt's sha256, looking up its answer
    and making a mock answer.  A prompt with demos has its sha256
    memoised in the log, so it is built only on a memo miss, or to be sent
    to a real endpoint; a 0-shot prompt costs less to build than to look
    up, and is always built.  Only a cache miss to a real endpoint goes to
    a pool of ``cfg.parallelism`` threads, created on the first such miss,
    so a mock or fully warm run starts no thread.  A miss whose key already
    has a fetch pending joins that fetch, so a prompt repeated within the
    run is sent once.

    model_calls counts the fetches and mock answers that succeeded, so a
    warm-cache replay reports zero.  Endpoint failures abort the run
    unless permissive, in which case the instance scores a syntax failure
    with the error text preserved as its raw answer.  A strict run raises
    its first failure in dataset order and stops there: no further prompt
    is built, and fetches not yet started are cancelled or skip the
    endpoint, so no further retries or backoff delay the error.
    ``out_dir`` also receives ``responses.jsonl``, one row per response.
    """
    dataset_kind(dataset)  # before any model call
    log_path = Path(cache_dir) / _model_dir_name(cfg.model_id) / "cache.jsonl"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    scheme = cfg.mock_scheme
    calls = 0
    failed = threading.Event()  # set by a strict run's first failure

    def keep(key: str, text: str) -> None:
        # one write of one line: appends of concurrent runs never interleave
        line = (json.dumps([key, text]) + "\n").encode("utf-8")
        written = os.write(log, line)
        if written != len(line):  # a torn line, say on a full disk
            raise OSError(f"cache log {log_path}: wrote {written} of "
                          f"{len(line)} bytes")
        cached[key] = text

    def lookup(key: str) -> str | None:  # a torn or foreign line misses
        at = cached.get(key)
        if not isinstance(at, tuple):  # a miss, or appended by this run
            return at
        try:
            entry = json.loads(os.pread(log, at[1], at[0]))
        except ValueError:  # not JSON, or not UTF-8
            return None
        # a line that opens as an entry and parses is a list of strings
        return entry[1] if len(entry) == 2 else None

    def fetch(prompt: str, key: str) -> str | None:
        if failed.is_set():  # the run is aborting; this result is unread
            return None
        try:
            raw = call_model(cfg, prompt)
        except HarnessError:
            if not permissive:
                failed.set()
            raise
        keep(key, raw)
        return raw

    # (prompt_sha256, response or the pool's future of it), in dataset order
    fetched: list[tuple[str, object]] = []
    pending = {}  # key -> the pool's future of its answer, one per key
    pool = None
    log = os.open(log_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o600)
    try:
        # key -> where the log keeps its text, or the text appended here
        cached: dict[str, tuple[int, int] | str] = _index_log(log)
        for inst in dataset:
            if failed.is_set():  # the error is raised below
                break
            memo_key = _memo_key(inst, pc) if pc.shots else None
            memo = lookup(memo_key) if memo_key is not None else None
            prompt_sha256 = raw = prompt = None
            if _SHA256_RE.fullmatch(memo or ""):  # any other text misses
                prompt_sha256 = memo
                key = _cache_key(cfg, prompt_sha256)
                raw = lookup(key)
            # a mock answers from the instance; a real endpoint needs the text
            if raw is None and (prompt_sha256 is None or scheme is None):
                prompt = build_prompt(inst, pc)
                built = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
                if built != prompt_sha256:
                    prompt_sha256 = built
                    if memo_key is not None:
                        keep(memo_key, prompt_sha256)
                    key = _cache_key(cfg, prompt_sha256)
                    raw = lookup(key)
            if raw is None and scheme is not None:
                raw = _mock_answer(scheme, inst)
                keep(key, raw)
                calls += 1
            elif raw is None:
                raw = pending.get(key)
                if raw is None:
                    if pool is None:
                        from concurrent.futures import ThreadPoolExecutor
                        pool = ThreadPoolExecutor(max_workers=cfg.parallelism)
                    raw = pending[key] = pool.submit(fetch, prompt, key)
            fetched.append((prompt_sha256, raw))

        answers: list[Answer] = []
        for inst, (prompt_sha256, raw) in zip(dataset, fetched):
            if not isinstance(raw, str):  # the pool's future
                try:
                    raw = raw.result()
                except HarnessError as exc:
                    import logging
                    logging.getLogger("gridlang.harness").error(
                        "instance %s: %s", inst.id, exc)
                    if not permissive:
                        raise
                    answers.append(exc)
                    continue
            answers.append((prompt_sha256, raw))
        calls += sum(future.exception() is None
                     for future in pending.values())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        os.close(log)

    records, metrics, rows = score_answers(dataset, answers, out_dir,
                                           provenance)
    if out_dir is not None:
        write_jsonl(Path(out_dir) / "responses.jsonl", provenance, (
            json.dumps({"instance_id": row["instance_id"],
                        "prompt_sha256": row["prompt_sha256"],
                        "response_sha256": row["response_sha256"],
                        "response": answer[1]})
            for row, answer in zip(rows, answers)
            if not isinstance(answer, HarnessError)))
    return RunResult(records, metrics, calls)


def read_responses(path: str | Path) -> dict[str, dict]:
    """Load a captured responses file as an instance_id -> row map.

    Each row keeps at least the response text plus any hashes recorded at
    capture time.  Lines are read by ``tasks.read_jsonl``, which refuses
    what it refuses in a dataset, a repeated instance_id included; a row
    without string instance_id and response, a response that UTF-8 cannot
    encode, or a prompt_sha256 that is no sha256 hex digest, is refused too.
    """
    rows = read_jsonl(path, "instance_id")
    next(rows, None)  # the provenance
    responses = {}
    for line_no, row in rows:
        if not (isinstance(row.get("instance_id"), str)
                and isinstance(row.get("response"), str)):
            raise MalformedRecordError(
                line_no, "responses row needs string instance_id and "
                         "response")
        try:
            check_text("response", row["response"])
        except ValueError as exc:
            raise MalformedRecordError(line_no, str(exc)) from None
        if "prompt_sha256" in row and not (
                isinstance(row["prompt_sha256"], str)
                and _SHA256_RE.fullmatch(row["prompt_sha256"])):
            raise MalformedRecordError(
                line_no, "prompt_sha256 is not 64 lowercase hex characters")
        responses[row["instance_id"]] = row
    return responses
