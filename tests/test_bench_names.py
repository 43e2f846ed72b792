"""The names the benchmark in ``perfbench/`` binds still resolve.

``perfbench/spans.py`` wraps the functions its ``TRACED`` table names, and
``perfbench/synth.py`` builds answers and probes through the grammar's
public attributes.  A rename or deletion of one of them breaks only a
benchmark run, so each is exercised here at a tiny size.
"""

import json
import sys
from pathlib import Path

import pytest

from gridlang.grammar import LexiconMode, Style
from gridlang.sampler import GenParams
from gridlang.tasks import TaskKind, make_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import synth  # noqa: E402


def _records(kind: TaskKind, style: Style) -> list[dict]:
    params = GenParams(max_depth=3, seed=5)
    return [json.loads(inst.to_json()) for inst in
            make_dataset(kind, 2, style, LexiconMode.NATURAL, params)]


def test_tracer_installs_and_uninstalls():
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._patched
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("kind", list(TaskKind))
def test_synthesised_answers(kind):
    records = _records(kind, Style.C)
    rows = synth.synthesise(records, seed=1)
    assert [row["instance_id"] for row in rows] == [r["id"] for r in records]
    assert all(isinstance(row["response"], str) for row in rows)


def test_probe_answers_on_a_c_style_record():
    record = _records(TaskKind.GOAL, Style.C)[0]
    probes = synth.probe_answers(record)
    assert sorted(probes) == ["empty_if_loop_1e12", "empty_loop_1e12",
                              "recursion_3000"]
