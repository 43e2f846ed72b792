"""Deterministic artifacts pinned by digest.

Small datasets for every task, style and lexicon at D in {2, 10, 20}, and
the 0- and 5-shot prompts of one instance per set, must hash to the values
recorded here.  So must the files and stdout of ``eval`` against both mock
models at 0 and 2 shots and of the ``score`` re-run of each, a permissive
eval whose every request fails, and a sweep's ``sweep.csv``.  Prompts and
evals are pinned per shot count, so a change to the few-shot demos leaves
the 0-shot pins as they are.  A deliberate format change updates the
constants and says so in CHANGES.md; any other change to these bytes is a
regression.
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
# sha256 over the first instance's prompt of every set, per shot count
PROMPT_SHA256 = {
    0: {
        TaskKind.JUDGMENT:
            "202881d00918ee0aeb7d1a5b78c3c21308c2a9bb94850e4282a89bb91665db1c",
        TaskKind.GOAL:
            "5a0e3de64baad4a0ae2a46a7ac5b44f0daef8edab111253d6aaaac941ae5a23b",
        TaskKind.INSTRUCTION:
            "6ad4a972456de658a2a5fac29a24871c67d362c221271ca8e5b370c6c978ea67",
    },
    5: {
        TaskKind.JUDGMENT:
            "5f91fa739d874ce0cff925aeb9e4ada07d5882f7786350a43285215092936b22",
        TaskKind.GOAL:
            "199df0d1459d2a8a36c4e839b56b956feabdbba301e4cac17b320ece11dfc056",
        TaskKind.INSTRUCTION:
            "7e267e27f06dcb13b14ff38e920eb87b41a1e42acb929c466775efb0d81bde5b",
    },
}

# sha256 over eval's and score's files and stdout, per task and shot
# count; the 0-shot digest also covers gen's stdout.  Every path the
# artifacts record is relative to the run directory
EVAL_SHA256 = {
    0: {
        TaskKind.JUDGMENT:
            "c95565324fb8a3dcb426255f5f89b7a174fad84ea6c2132db4e14ec25f449ebc",
        TaskKind.GOAL:
            "31f7d994b3f99c5db8ba284832d79df00d0bb8e527af86b7f925d4804a53eb72",
        TaskKind.INSTRUCTION:
            "ca85e78c9b1cb6876bd43d6457f17d9db03004b6eabf98ebd481a1f5cfb6d454",
    },
    2: {
        TaskKind.JUDGMENT:
            "27178e1567ab293c07493b41f9be40bcfeb4a3be163f6e8d7aae82cb286d1f6d",
        TaskKind.GOAL:
            "4415aef16ef24712a2b3cd9db124d73e5d3725109dc70fb7aee0b36536469599",
        TaskKind.INSTRUCTION:
            "cde2faedbcfe51a8358f61dac61cb232c1bdd45aeaad73f2a592526345dd0d39",
    },
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


def _artifacts(kind: TaskKind) -> tuple[str, dict[int, str]]:
    datasets = hashlib.sha256()
    prompts = {shots: hashlib.sha256() for shots in PROMPT_SHA256}
    for style, mode, depth in itertools.product(Style, LexiconMode, DEPTHS):
        instances = make_dataset(kind, SIZE, style, mode,
                                 GenParams(max_depth=depth, seed=SEED))
        for inst in instances:
            datasets.update(inst.to_json().encode() + b"\n")
        for shots, digest in prompts.items():
            digest.update(build_prompt(instances[0],
                                       PromptConfig(shots=shots)).encode())
            digest.update(b"\0")
    return datasets.hexdigest(), {shots: digest.hexdigest()
                                  for shots, digest in prompts.items()}


@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
def test_datasets_and_prompts_are_byte_identical(kind):
    dataset_digest, prompt_digests = _artifacts(kind)
    assert dataset_digest == DATASET_SHA256[kind]
    assert prompt_digests == {shots: pins[kind]
                              for shots, pins in PROMPT_SHA256.items()}


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
    digests = {shots: hashlib.sha256() for shots in EVAL_SHA256}
    _gen(digests[0], capsys, kind)
    for scheme, shots in itertools.product(("perfect", "flatten"), (0, 2)):
        run, digest = f"{scheme}-{shots}", digests[shots]
        _run(digest, capsys, "eval", "--dataset", "data.jsonl",
             "--base-url", f"mock://{scheme}", "--model", f"mock-{scheme}",
             "--shots", str(shots), "--cache-dir", "cache",
             "--out-dir", run)
        _files(digest, run, "responses.jsonl", *_REPORTS)
        _run(digest, capsys, "score", "--dataset", "data.jsonl",
             "--responses", f"{run}/responses.jsonl",
             "--model", f"mock-{scheme}", "--out-dir", f"{run}-scored")
        _files(digest, f"{run}-scored", *_REPORTS)
    assert {shots: digest.hexdigest() for shots, digest in digests.items()} \
        == {shots: pins[kind] for shots, pins in EVAL_SHA256.items()}


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
