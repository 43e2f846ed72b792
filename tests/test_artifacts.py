"""Deterministic artifacts pinned by digest.

Small datasets for every task, style and lexicon at D in {2, 10, 20}, and
the 0- and 5-shot prompts of one instance per set, must hash to the values
recorded here.  A deliberate format change updates the constants and says
so in CHANGES.md; any other change to these bytes is a regression.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

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
