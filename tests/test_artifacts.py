"""Deterministic artifacts pinned by digest.

Small datasets for every task, style and lexicon at D in {2, 10, 20}, and
the 0- and 5-shot prompts of one instance per set, must hash to the values
recorded here.  So must the files and stdout of ``eval`` against both mock
models at 0 and 2 shots and of the ``score`` re-run of each, a permissive
eval whose every request fails, and a sweep's ``sweep.csv``.  A deliberate
format change updates the constants and says so in CHANGES.md; any other
change to these bytes is a regression.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import pytest

from gridlang.cli import main
from gridlang.grammar import LexiconMode, Style
from gridlang.harness import PromptConfig, build_prompt
from gridlang.sampler import GenParams
from gridlang.tasks import TaskKind, make_dataset

SEED = 11
SIZE = 4
DEPTHS = (2, 10, 20)

# sha256 over every set of the task, in (style, lexicon, D) order
DATASET_SHA256 = {
    TaskKind.JUDGMENT:
        "80e3ccf8297201b5bef1db840ff28c6d720b32eb5f15e77e8eead3a0bbfd235f",
    TaskKind.GOAL:
        "811c174ec245a352610bea0873b343b8b46e90400a46503bebf13a7c8257ef36",
    TaskKind.INSTRUCTION:
        "b4c02cc3a24b77a85b01806ce8622bfa48b3859bf5eda286a88ff10843c2bfae",
}
PROMPT_SHA256 = {
    TaskKind.JUDGMENT:
        "c4e4d8b3200c4d9f55a32b2b295f7559a049265e55aa5192bd3f6daff5bd1c2c",
    TaskKind.GOAL:
        "4fb4a60a3616663826e93e7089f0a5cd2b1772a79611d3f2b2d78660c57daa14",
    TaskKind.INSTRUCTION:
        "4e86cf7d9a5e452ec499e51870bb395d1c3b945aa7efa10ea51cdfd04de5388c",
}

# sha256 over eval's and score's files and stdout, per task; every path
# the artifacts record is relative to the run directory
EVAL_SHA256 = {
    TaskKind.JUDGMENT:
        "19ddb2b6e930bf1da75efc7dbbf78232109c8c64686d2ca6f0079b9afd2ad588",
    TaskKind.GOAL:
        "260255ef02f79f2ec10daed88fb206d589b4391fcdca8224fcbffca8a51c4cac",
    TaskKind.INSTRUCTION:
        "768e9bab3eeef3487691bbbf32546d2c6e30143220ad7e8c5212798a8b2966a1",
}
PERMISSIVE_SHA256 = {
    TaskKind.JUDGMENT:
        "f475a0a686d839c526ca20e099a4799968f23f42b3254f738137bf283188ebd8",
    TaskKind.GOAL:
        "60761b3d7751543877364589c9d64a3e2504987d76fa8e02d6ea4a36253e2f1b",
    TaskKind.INSTRUCTION:
        "f85c60e84b417c396619cfc0c1852ac5d76d46c169f15011ee914c371ff89856",
}
SWEEP_SHA256 = (
    "10f2a1ceed5c52278b50f8d7757305b2f4db7d5911077eb4a97f4dd8812ead12")


def _artifacts(kind: TaskKind) -> tuple[str, str]:
    datasets, prompts = hashlib.sha256(), hashlib.sha256()
    for style, mode, depth in itertools.product(Style, LexiconMode, DEPTHS):
        instances = make_dataset(kind, SIZE, style, mode,
                                 GenParams(max_depth=depth, seed=SEED))
        for inst in instances:
            datasets.update(inst.to_json().encode() + b"\n")
        for shots in (0, 5):
            prompts.update(build_prompt(instances[0],
                                        PromptConfig(shots=shots)).encode())
            prompts.update(b"\0")
    return datasets.hexdigest(), prompts.hexdigest()


@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
def test_datasets_and_prompts_are_byte_identical(kind):
    dataset_digest, prompt_digest = _artifacts(kind)
    assert dataset_digest == DATASET_SHA256[kind]
    assert prompt_digest == PROMPT_SHA256[kind]


_STYLES = {TaskKind.JUDGMENT: "c", TaskKind.GOAL: "block",
           TaskKind.INSTRUCTION: "sexpr"}


def _run(digest, capsys, *argv):
    assert main(list(argv)) == 0
    digest.update(capsys.readouterr().out.encode() + b"\0")


def _gen(digest, capsys, kind):
    _run(digest, capsys, "gen", "--task", kind.value, "--n", "4",
         "--depth", "4", "--style", _STYLES[kind], "--seed", str(SEED),
         "--out", "data.jsonl")


def _files(digest, directory, *names):
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((Path(directory) / name).read_bytes() + b"\0")


_REPORTS = ("results.jsonl", "report.md", "report.csv")


@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
def test_eval_and_score_artifacts_are_byte_identical(kind, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    _gen(digest, capsys, kind)
    for scheme, shots in itertools.product(("perfect", "flatten"), (0, 2)):
        run = f"{scheme}-{shots}"
        _run(digest, capsys, "eval", "--dataset", "data.jsonl",
             "--base-url", f"mock://{scheme}", "--model", f"mock-{scheme}",
             "--shots", str(shots), "--cache-dir", "cache",
             "--out-dir", run)
        _files(digest, run, "responses.jsonl", *_REPORTS)
        _run(digest, capsys, "score", "--dataset", "data.jsonl",
             "--responses", f"{run}/responses.jsonl",
             "--model", f"mock-{scheme}", "--out-dir", f"{run}-scored")
        _files(digest, f"{run}-scored", *_REPORTS)
    assert digest.hexdigest() == EVAL_SHA256[kind]


@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
def test_permissive_endpoint_errors_are_byte_identical(kind, tmp_path,
                                                       monkeypatch, capsys):
    # an unset token fails every request before any connection is made
    monkeypatch.delenv("GRIDLANG_UNSET_TOKEN", raising=False)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    _gen(digest, capsys, kind)
    _run(digest, capsys, "eval", "--dataset", "data.jsonl",
         "--base-url", "http://127.0.0.1:9/v1", "--model", "unreachable",
         "--auth-env", "GRIDLANG_UNSET_TOKEN", "--permissive",
         "--cache-dir", "cache", "--out-dir", "run")
    _files(digest, "run", "responses.jsonl", *_REPORTS)
    assert digest.hexdigest() == PERMISSIVE_SHA256[kind]


def test_sweep_csv_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    _run(digest, capsys, "sweep", "--task", "instruction", "--n", "2",
         "--axis", "p", "--values", "0.2,0.8", "--seed", str(SEED),
         "--base-url", "mock://flatten", "--model", "mock-flatten",
         "--cache-dir", "cache", "--out-dir", "sweep")
    _files(digest, "sweep", "sweep.csv")
    assert digest.hexdigest() == SWEEP_SHA256
