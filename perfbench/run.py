"""gridlang benchmark: seeded workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run it from the root of a gridlang checkout; it imports ``gridlang`` from
``src/`` and writes only under ``.perfbench_work/``, which it removes.

A workload is a stream of shards.  Shard k is a dataset made by
``gridlang gen`` from a seed derived from (workload, --seed, k), then
evaluated against a ``mock://`` endpoint with an empty cache (cold), again
on the filled cache (warm), and re-scored from a synthesised file of noisy
answers (``gridlang score``).  Every command is a fresh process, forked
from a server that has already imported the CLI, and is timed around
``gridlang.cli.main``.  Per-instance costs are heavy-tailed (a few gold
programs hold 10^5 inventory copies), so each throughput is a geometric
mean of per-shard rates: every shard counts, and a single large instance
moves it by its shard's weight instead of setting it.  README.md explains
the metrics and the noise controls.

``--trace 0`` processes shards until ``--seconds`` have passed and prints
the end-to-end metrics.  ``--trace 1`` runs a fixed number of shards twice
each, untraced and with span wrappers round every public gridlang function,
back to back; it checks that both runs wrote byte-identical artifacts and
prints the per-layer metrics; on the instruction workload it also runs the
known-defect probes.  Every output is checked against an outcome the
benchmark computes itself; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FORK_SERVER = HERE / "forkserver.py"


SETUP_SAMPLES = 11
# shard k's noisy code answers include one that runs to the step budget
# (about 0.7 s to score at the seed) when k % BLOCK == 0; shard_mean gives
# those shards exactly 1/BLOCK of the weight, however many shards a run has
BLOCK = 10
MIN_SHARDS = BLOCK
MAX_SHARDS = 200
# shards whose prompts are rebuilt to measure their lengths
PROMPT_SHARDS = 2 * BLOCK
CLI_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 3.0
PROBE_SUBSET = 6
# reference.reference_seconds() on an unloaded 2-vCPU VM; every phase time
# is rescaled to this speed (see Command.normalised_seconds)
REFERENCE_NOMINAL_S = 0.005
# eval's --parallelism: mock endpoints answer in pure Python under the GIL,
# so a second pool thread adds only lock hand-off noise, never speed
PARALLELISM = 1
STAGE_NAMES = {"pass": "pass", "syntax": "syntax", "behavior": "behavior",
               "semantics": "semantic"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str
    style: str
    lexicon: str
    depth: int
    shots: int
    mock: str
    shard_n: int       # instances per shard
    trace_shards: int  # shards covered by a traced run
    probes: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("judgment-d10",
             "gen is sampler+codec work; 0-shot eval is cache hashing and "
             "file I/O; world does nothing, the control for interpreter work",
             "judgment", "block", "natural", 10, 0, "perfect", 100, 12),
    Workload("instruction-d10-5shot",
             "5-shot prompt building dominates eval; flatten answers drive "
             "the semantic layer; C style admits the empty-block probes",
             "instruction", "c", "natural", 10, 5, "flatten", 3, 16,
             probes=True),
    Workload("goal-d20",
             "largest programs and states: exec, state (de)serialisation "
             "and render_state dominate; prompt, dataset and memory size show",
             "goal", "sexpr", "alien", 20, 0, "perfect", 5, 20),
)}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "gen_inst_per_s": ("inst/s", "higher"),
    "eval_cold_inst_per_s": ("inst/s", "higher"),
    "eval_warm_inst_per_s": ("inst/s", "higher"),
    "score_inst_per_s": ("inst/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "dataset_mb": ("MB", "lower"),
    "prompt_chars_p50": ("chars", "lower"),
}

PHASES = ("gen", "eval_cold", "eval_warm", "score")


def derive(*parts) -> int:
    text = "/".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def shard_mean(shards: list[dict], value) -> float:
    """Geometric mean of value(shard), with the shards that hold an
    over-budget answer weighted to exactly 1/BLOCK of the total."""
    heavy = [math.log(value(s)) for s in shards if s["k"] % BLOCK == 0]
    light = [math.log(value(s)) for s in shards if s["k"] % BLOCK]
    return math.exp((statistics.fmean(heavy)
                     + (BLOCK - 1) * statistics.fmean(light)) / BLOCK)


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated within the observed range."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Ledger:
    """Operations attempted and failed, with every failure named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def verdicts(self, name: str, expected: dict[str, str],
                 results: Path | None) -> None:
        """One operation per instance: its failure stage must match."""
        got = {}
        if results is not None and results.exists():
            for row in read_jsonl(results):
                got[row["instance_id"]] = row["failure_stage"]
        self.attempted += len(expected)
        wrong = [i for i, stage in expected.items() if got.get(i) != stage]
        self.failed += len(wrong)
        for i in wrong[:3]:
            self.failures.append(f"{name}.{i}: expected {expected[i]}, "
                                 f"got {got.get(i, 'no verdict')}")
        if len(wrong) > 3:
            self.failures.append(f"{name}: {len(wrong) - 3} more wrong")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return [row for row in rows if set(row) != {"_config"}]


def read_report(path: Path) -> dict[str, str]:
    """The single metrics row of a report.csv (after its provenance line)."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return next(csv.DictReader(lines))


@dataclass
class Command:
    status: int | str
    seconds: float
    rss_mb: float
    stdout: str
    spans: list
    reference_s: float = REFERENCE_NOMINAL_S

    @property
    def normalised_seconds(self) -> float:
        """Seconds in main, rescaled to the nominal reference speed.

        Other tenants slow this machine by up to 2x for seconds at a time;
        the reference loop, timed by the fork server around the command's
        process, slows with it.
        """
        return self.seconds * REFERENCE_NOMINAL_S / self.reference_s


class Runner:
    """Runs one workload's shards and probes inside a scratch directory."""

    def __init__(self, root: Path, work: Path, wl: Workload, seed: int):
        self.work = work
        self.wl = wl
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.ledger = Ledger()
        import synth  # imports gridlang, so only once src/ is on the path
        self.synth = synth
        self.noisy: dict[int, list[dict]] = {}
        self.server = subprocess.Popen(
            [sys.executable, str(FORK_SERVER)], cwd=work, env=self.env,
            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self) -> None:
        """Stop the fork server and wait for it."""
        self.server.stdin.close()
        try:
            self.server.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    # --- processes ------------------------------------------------------------

    def cli(self, cwd: Path, label: str, argv: list[str], trace: bool = False,
            timeout: float = CLI_TIMEOUT_S) -> Command:
        """One gridlang command in a forked process, optionally traced."""
        paths = {key: str(cwd / f"{label}.{key}")
                 for key in ("result", "stdout", "stderr")}
        request = dict(paths, cwd=str(cwd), argv=argv, trace=trace,
                       timeout=timeout)
        self.server.stdin.write(json.dumps(request) + "\n")
        self.server.stdin.flush()
        reply = json.loads(self.server.stdout.readline())
        stdout, stderr = (Path(paths[key]).read_text(encoding="utf-8")
                          if Path(paths[key]).exists() else ""
                          for key in ("stdout", "stderr"))
        stderr_tail = (stderr.strip().splitlines() or ["no output"])[-1]
        result = Path(paths["result"])
        if reply.get("signal") == signal.SIGALRM:
            return Command("timeout", timeout, 0.0, stdout, [])
        if not result.exists():
            return Command(f"exit {reply} ({stderr_tail})", 0.0, 0.0,
                           stdout, [])
        record = json.loads(result.read_text(encoding="utf-8"))
        status = record["status"]
        if status != 0:
            status = f"exit {status} ({record['error'] or stderr_tail})"
        return Command(status, record["seconds"], record["rss_mb"], stdout,
                       record.get("spans", []), reply["reference_s"])

    def setup_seconds(self) -> list[float]:
        """Time fresh interpreters take to import the CLI and build its
        parser, timed inside each and rescaled to the nominal reference
        speed like every phase time.  The reference loop runs before the
        import, on a heap that holds nothing of gridlang."""
        code = ("import time\n"
                "from reference import reference_seconds\n"
                "reference = reference_seconds()\n"
                "start = time.perf_counter()\n"
                "import gridlang.cli\n"
                "gridlang.cli.build_parser()\n"
                "seconds = time.perf_counter() - start\n"
                "print(seconds, reference)\n")
        env = dict(self.env,
                   PYTHONPATH=os.pathsep.join([self.env["PYTHONPATH"],
                                               str(HERE)]))
        samples = []
        for _ in range(SETUP_SAMPLES):
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  cwd=self.work, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            if self.ledger.check("setup.import", proc.returncode == 0,
                                 proc.stderr[-200:]):
                seconds, reference = map(float, proc.stdout.split())
                samples.append(seconds * REFERENCE_NOMINAL_S / reference)
        return samples

    # --- one shard --------------------------------------------------------------

    def gen_argv(self, k: int) -> list[str]:
        wl = self.wl
        return ["gen", "--task", wl.task, "--n", str(wl.shard_n),
                "--depth", str(wl.depth), "--style", wl.style,
                "--lexicon", wl.lexicon,
                "--seed", str(derive(wl.name, self.seed, k)),
                "--out", "dataset.jsonl"]

    def eval_argv(self, out_dir: str, mock: str,
                  cache: str = "cache") -> list[str]:
        return ["eval", "--dataset", "dataset.jsonl",
                "--base-url", f"mock://{mock}",
                "--model", "bench-model", "--shots", str(self.wl.shots),
                "--cache-dir", cache, "--parallelism", str(PARALLELISM),
                "--out-dir", out_dir]

    def shard(self, k: int, traced: bool) -> dict:
        """gen -> eval cold -> eval warm -> score, checked; returns timings."""
        wl, ledger = self.wl, self.ledger
        name = f"shard{k}" + (".traced" if traced else "")
        d = self.work / ("traced" if traced else "plain") / f"shard{k:03d}"
        d.mkdir(parents=True)
        out = {"k": k, "commands": {}, "prompt_chars": []}

        gen = self.cli(d, "gen", self.gen_argv(k), traced)
        out["commands"]["gen"] = gen
        if not ledger.check(f"{name}.gen", gen.status == 0, str(gen.status)):
            return out
        records = read_jsonl(d / "dataset.jsonl")
        out["dataset_bytes"] = (d / "dataset.jsonl").stat().st_size
        synth = self.synth
        if k not in self.noisy:
            self.noisy[k] = synth.synthesise(
                records, derive(wl.name, self.seed, k, "noisy"),
                over_budget=int(k % BLOCK == 0))
        synth.write_responses(self.noisy[k], d / "noisy.jsonl")

        expected_eval = {r["id"]: synth.expected_eval_stage(r, wl.mock)
                         for r in records}
        cold = self.cli(d, "eval_cold", self.eval_argv("eval_cold", wl.mock),
                        traced)
        warm = self.cli(d, "eval_warm", self.eval_argv("eval_warm", wl.mock),
                        traced)
        score = self.cli(d, "score", ["score", "--dataset", "dataset.jsonl",
                                      "--responses", "noisy.jsonl",
                                      "--out-dir", "score"], traced)
        out["commands"].update(eval_cold=cold, eval_warm=warm, score=score)

        for phase, cmd in (("eval_cold", cold), ("eval_warm", warm)):
            ok = ledger.check(f"{name}.{phase}.exit", cmd.status == 0,
                              str(cmd.status))
            ledger.verdicts(f"{name}.{phase}", expected_eval,
                            d / phase / "results.jsonl" if ok else None)
        if cold.status == 0:
            self.check_report(name, d / "eval_cold" / "report.csv", records)
        if warm.status == 0:
            calls = re.search(r"model calls: (\d+)", warm.stdout)
            ledger.check(f"{name}.eval_warm.zero_model_calls",
                         calls is not None and calls.group(1) == "0",
                         calls.group(0) if calls else "no call count printed")
            ledger.check(f"{name}.eval_warm.results_identical_to_cold",
                         cold.status == 0 and
                         sha256_file(d / "eval_warm" / "results.jsonl") ==
                         sha256_file(d / "eval_cold" / "results.jsonl"))
        ok = ledger.check(f"{name}.score.exit", score.status == 0,
                          str(score.status))
        ledger.verdicts(f"{name}.score",
                        {r["instance_id"]: r["stage"] for r in self.noisy[k]},
                        d / "score" / "results.jsonl" if ok else None)
        return out

    def check_report(self, name: str, report: Path, records: list[dict]):
        """Aggregate rates the mock endpoint must produce."""
        synth = self.synth
        row = read_report(report)
        want = {"svr": 100.0}
        if self.wl.task != "judgment":
            want["ber"] = 100.0
        if self.wl.task == "instruction":
            plain = sum(not synth.has_compound_arith(r["gold_ast"])
                        for r in records)
            # flatten keeps a tree intact only when it has no compound
            # arithmetic; perfect answers are always intact
            want["scr"] = (100.0 if self.wl.mock == "perfect"
                           else round(100.0 * plain / len(records), 1))
        for key, value in want.items():
            got = row.get(key)
            self.ledger.check(f"{name}.eval_cold.{key.upper()}",
                              got not in (None, "--") and float(got) == value,
                              f"expected {value}, got {got}")

    def prompt_chars(self, k: int) -> list[int]:
        """Lengths of the prompts shard k's cold eval sent, rebuilt here with
        ``build_prompt`` after the measured shards.  Each must hash to the
        prompt_sha256 that eval recorded."""
        from gridlang.harness import PromptConfig, build_prompt
        from gridlang.tasks import read_dataset

        d = self.work / "plain" / f"shard{k:03d}"
        if not (d / "eval_cold" / "responses.jsonl").exists():
            return []  # the failed command is already counted
        sent = {row["instance_id"]: row["prompt_sha256"] for row in
                read_jsonl(d / "eval_cold" / "responses.jsonl")}
        pc = PromptConfig(shots=self.wl.shots)
        lengths, same = [], True
        for inst in read_dataset(d / "dataset.jsonl"):
            prompt = build_prompt(inst, pc)
            lengths.append(len(prompt))
            same &= sent.get(inst.id) == hashlib.sha256(
                prompt.encode("utf-8")).hexdigest()
        self.ledger.check(f"shard{k}.eval_cold.prompts_rebuilt", same)
        return lengths

    def regen_identical(self, k: int) -> None:
        """A second gen of shard k must write the same bytes."""
        d = self.work / "regen" / f"shard{k:03d}"
        d.mkdir(parents=True)
        cmd = self.cli(d, "gen", self.gen_argv(k))
        first = self.work / "plain" / f"shard{k:03d}" / "dataset.jsonl"
        self.ledger.check(f"shard{k}.dataset_deterministic",
                          cmd.status == 0 and first.exists() and
                          sha256_file(d / "dataset.jsonl") ==
                          sha256_file(first), str(cmd.status))

    def traced_identical(self, k: int) -> None:
        plain = self.work / "plain" / f"shard{k:03d}"
        traced = self.work / "traced" / f"shard{k:03d}"
        for rel in ("dataset.jsonl", "eval_cold/results.jsonl",
                    "eval_cold/responses.jsonl", "eval_warm/results.jsonl",
                    "eval_warm/responses.jsonl", "score/results.jsonl"):
            a, b = plain / rel, traced / rel
            self.ledger.check(f"shard{k}.traced_identical.{rel}",
                              a.exists() and b.exists() and
                              sha256_file(a) == sha256_file(b))

    # --- known-defect probes ----------------------------------------------------

    def probes(self) -> dict[str, str]:
        """Each probe: outcome 'ok' or why it failed."""
        synth = self.synth
        records = read_jsonl(self.work / "plain/shard000/dataset.jsonl")
        d = self.work / "probes"
        d.mkdir()
        outcomes = {}
        for probe, answer in synth.probe_answers(records[0]).items():
            pd = d / probe
            pd.mkdir()
            write_lines(pd / "dataset.jsonl", [records[0]])
            write_lines(pd / "responses.jsonl",
                        [{"instance_id": records[0]["id"], "response": answer}])
            cmd = self.cli(pd, "score", ["score", "--dataset", "dataset.jsonl",
                                         "--responses", "responses.jsonl",
                                         "--out-dir", "out"],
                           timeout=PROBE_TIMEOUT_S)
            outcomes[probe] = self.probe_record_ok(cmd, pd / "out")

        # 2a: a cache hit must mean the same endpoint; flatten after perfect
        # with one model id and cache dir must equal flatten on a fresh cache
        pd = d / "cache_honesty"
        pd.mkdir()
        subset = [r for r in records
                  if synth.has_compound_arith(r["gold_ast"])][:PROBE_SUBSET]
        write_lines(pd / "dataset.jsonl", subset or records[:PROBE_SUBSET])
        steps = (("perfect", "shared", "perfect"),
                 ("flatten", "shared", "flatten"),
                 ("flatten", "fresh", "reference"))
        outcome = "ok"
        for mock, cache, out_dir in steps:
            cmd = self.cli(pd, out_dir, self.eval_argv(out_dir, mock, cache),
                           timeout=PROBE_TIMEOUT_S * 4)
            if cmd.status != 0:
                outcome = f"{out_dir}: {cmd.status}"
                break
        if outcome == "ok" and sha256_file(pd / "flatten/results.jsonl") != \
                sha256_file(pd / "reference/results.jsonl"):
            outcome = "stale cache hits: flatten reuses perfect's answers"
        outcomes["cache_honesty"] = outcome
        return outcomes

    @staticmethod
    def probe_record_ok(cmd: Command, out: Path) -> str:
        if cmd.status != 0:
            return str(cmd.status)
        if not (out / "results.jsonl").exists():
            return "no results.jsonl"
        rows = read_jsonl(out / "results.jsonl")
        if len(rows) != 1 or rows[0].get("failure_stage") not in STAGE_NAMES:
            return "malformed record"
        return "ok"


def write_lines(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


# --- metrics -------------------------------------------------------------------


def end_to_end(shards: list[dict], setup: list[float], wl: Workload) -> dict:
    """Metrics of a run whose every shard completed, else none."""
    if not setup or not all(
            s["commands"].get(p) and s["commands"][p].status == 0
            for s in shards for p in PHASES):
        return {}

    def rate(phase):
        return shard_mean(shards, lambda s: wl.shard_n /
                          s["commands"][phase].normalised_seconds)

    chars = [c for s in shards[:PROMPT_SHARDS] for c in s["prompt_chars"]]
    return {
        "setup_s": statistics.median(setup),
        "gen_inst_per_s": rate("gen"),
        "eval_cold_inst_per_s": rate("eval_cold"),
        "eval_warm_inst_per_s": rate("eval_warm"),
        "score_inst_per_s": rate("score"),
        "peak_rss_mb": shard_mean(shards, lambda s: max(
            s["commands"][p].rss_mb for p in PHASES)),
        "dataset_mb": shard_mean(shards, lambda s: s["dataset_bytes"] / 1e6),
        "prompt_chars_p50": percentile(chars, 50),
    }


def per_layer(plain: list[dict], traced: list[dict],
              probes: dict[str, str], ledger: Ledger) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and self time by phase."""
    import spans as spanlib

    rows_by_name = defaultdict(list)
    by_phase = defaultdict(float)
    for shard in traced:
        for phase, cmd in shard["commands"].items():
            for row in cmd.spans:
                rows_by_name[row[0]].append(row)
                by_phase[(phase, row[0].split(".")[0])] += row[1]

    metrics = {}
    for name in spanlib.traced_names():
        rows = rows_by_name.get(name, [])
        metrics[f"{name}.calls"] = (len(rows), "count")
        metrics[f"{name}.self_s"] = (sum(r[1] for r in rows), "s")
        if name in spanlib.PER_INSTANCE:
            ms = [r[2] * 1000.0 for r in rows]
            metrics[f"{name}.ms_p50"] = (percentile(ms, 50), "ms")
            metrics[f"{name}.ms_p99"] = (percentile(ms, 99), "ms")

    # return-value extracts; a call that raised has none
    values = {name: [r[3] for r in rows_by_name.get(name, [])
                     if r[3] is not None]
              for name in ("world.exec_program", "harness.run_evaluation",
                           "harness.score_instance")}
    steps = [v["steps"] for v in values["world.exec_program"] if "steps" in v]
    metrics["world.exec_program.steps_p50"] = (percentile(steps, 50), "steps")
    metrics["world.exec_program.steps_p99"] = (percentile(steps, 99), "steps")
    metrics["world.exec_program.steps_max"] = (max(steps, default=0), "steps")
    metrics["world.exec_program.budget_exceeded"] = (
        sum("budget_exceeded" in v for v in values["world.exec_program"]),
        "count")
    metrics["codec.parse.errors"] = (
        sum(r[4] == "ParseError" for r in rows_by_name.get("codec.parse", [])),
        "count")
    n = sum(v["n"] for v in values["harness.run_evaluation"])
    misses = sum(v["model_calls"] for v in values["harness.run_evaluation"])
    metrics["harness.cache_hits"] = (n - misses, "count")
    metrics["harness.cache_misses"] = (misses, "count")
    metrics["harness.cache_hit_ratio"] = (
        (n - misses) / n if n else 0.0, "ratio")
    stages = Counter(v["stage"] for v in values["harness.score_instance"])
    for stage, label in STAGE_NAMES.items():
        metrics[f"metrics.stage.{label}"] = (stages[stage], "count")

    # each command against its untraced twin, run back to back; the median
    # of the ratios, as one command's time varies by up to 30% at random
    ratios = [math.log(t["commands"][p].seconds / u["commands"][p].seconds)
              for u, t in zip(plain, traced) for p in PHASES
              if all(p in s["commands"] and s["commands"][p].status == 0
                     for s in (u, t))]
    metrics["trace_overhead_frac"] = (
        math.expm1(statistics.median(ratios)) if ratios else 0.0, "ratio")
    chars = [c for s in plain[:PROMPT_SHARDS] for c in s["prompt_chars"]]
    metrics["prompt_chars_p99"] = (percentile(chars, 99), "chars")
    metrics["prompt_chars_max"] = (max(chars, default=0), "chars")
    # the largest single command, which the end-to-end shard mean smooths
    metrics["peak_rss_mb_max"] = (max(
        (c.rss_mb for s in plain for c in s["commands"].values()),
        default=0.0), "MB")
    probe_failed = sum(outcome != "ok" for outcome in probes.values())
    metrics["probes.attempted"] = (len(probes), "count")
    metrics["probes.failed"] = (probe_failed, "count")
    metrics["failed_frac"] = (
        (ledger.failed + probe_failed) / (ledger.attempted + len(probes)),
        "ratio")
    return metrics, by_phase


# --- one run ---------------------------------------------------------------------


def run_workload(root: Path, wl: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = root / ".perfbench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, wl, seed)
    try:
        setup = runner.setup_seconds()
        plain, traced, probes = [], [], {}
        if trace:
            # each shard untraced and traced back to back, the two orders
            # alternating, so drift in machine speed or order effects do
            # not read as tracing cost
            for k in range(wl.trace_shards):
                for mode in ((False, True), (True, False))[k % 2]:
                    (traced if mode else plain).append(
                        runner.shard(k, traced=mode))
                runner.traced_identical(k)
            if wl.probes and plain[0]["commands"]["gen"].status == 0:
                probes = runner.probes()
        else:
            deadline = time.perf_counter() + seconds
            while len(plain) < MIN_SHARDS or (
                    time.perf_counter() < deadline and
                    len(plain) < MAX_SHARDS):
                plain.append(runner.shard(len(plain), traced=False))
            runner.regen_identical(0)
        for shard in plain[:PROMPT_SHARDS]:
            shard["prompt_chars"] = runner.prompt_chars(shard["k"])
        ledger = runner.ledger
        if trace:
            metrics, by_phase = per_layer(plain, traced, probes, ledger)
        else:
            units = {k: v[0] for k, v in END_TO_END.items()}
            metrics = {k: (v, units[k]) for k, v in
                       end_to_end(plain, setup, wl).items()}
            by_phase = {}
        return {"workload": wl, "ledger": ledger, "metrics": metrics,
                "by_phase": by_phase, "probes": probes,
                "shards": len(plain),
                "dataset_sha256": sha256_of(work / "plain/shard000/dataset.jsonl")}
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def sha256_of(path: Path) -> str:
    return sha256_file(path) if path.exists() else "missing"


def report(result: dict, trace: bool) -> None:
    wl, ledger = result["workload"], result["ledger"]
    mode = "traced per-layer" if trace else "end-to-end"
    print(f"== {wl.name} ({mode}): {result['shards']} shards x "
          f"{wl.shard_n} instances, eval parallelism {PARALLELISM}, "
          f"shard0 dataset sha256 {result['dataset_sha256'][:16]}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    if result["by_phase"]:
        modules = sorted({m for _, m in result["by_phase"]})
        print("  self seconds by phase:  " + "".join(f"{m:>9}" for m in modules))
        for phase in PHASES:
            cells = "".join(f"{result['by_phase'].get((phase, m), 0.0):>9.3f}"
                            for m in modules)
            print(f"  {phase:<24}{cells}")
    for probe, outcome in result["probes"].items():
        print(f"  known-defect probe {probe}: "
              f"{'passed' if outcome == 'ok' else 'FAILED: ' + outcome}")
    print(f"  operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gridlang" / "cli.py").is_file():
        print("error: run from the root of a gridlang checkout "
              "(src/gridlang/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload == "all":
        results = []
        for wl in WORKLOADS.values():
            for trace in (False, True):
                result = run_workload(root, wl, args.seed, args.seconds, trace)
                report(result, trace)
                results.append(result)
        summary = {
            "correct": all(r["ledger"].failed == 0 for r in results),
            "attempted": sum(r["ledger"].attempted for r in results),
            "failed": sum(r["ledger"].failed for r in results),
            "metrics": {
                r["workload"].name + (".traced" if i % 2 else ""):
                    {k: {"value": v, "unit": u}
                     for k, (v, u) in r["metrics"].items()}
                for i, r in enumerate(results)},
        }
        print(json.dumps(summary))
        return 0

    wl = WORKLOADS[args.workload]
    result = run_workload(root, wl, args.seed, args.seconds, bool(args.trace))
    report(result, bool(args.trace))
    ledger = result["ledger"]
    print(json.dumps({
        "correct": ledger.failed == 0 and bool(result["metrics"]),
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
