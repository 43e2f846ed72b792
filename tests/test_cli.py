"""Command-line behavior: precedence, artifacts, determinism, exit codes."""

import argparse
import hashlib
import itertools
import json
import re
import sys

import pytest

from gridlang import cli, harness
from gridlang.cli import build_parser, main
from gridlang.harness import HarnessError
from gridlang.seeding import derive_seed
from gridlang.tasks import DATASET_FORMAT, read_jsonl

from conftest import cache_entries


def _run(*argv):
    return main(list(argv))


def _gen(tmp_path, name="data.jsonl", *extra):
    out = tmp_path / name
    rc = _run("gen", "--task", "goal", "--n", "4", "--depth", "4",
              "--seed", "7", "--out", str(out), *extra)
    assert rc == 0
    return out


class TestGen:
    def test_writes_dataset_with_config_line(self, tmp_path, capsys):
        out = _gen(tmp_path)
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        header = json.loads(lines[0])
        assert set(header) == {"_config"}
        assert header["_config"]["task"] == "goal"
        assert header["_config"]["params"]["D"] == 4
        assert "wrote" in capsys.readouterr().out

    def test_config_line_records_the_dataset_format(self, tmp_path):
        out = _gen(tmp_path)
        config = next(read_jsonl(out, "id"), None)
        assert config["dataset_format"] == DATASET_FORMAT

    def test_byte_identical_across_runs(self, tmp_path):
        a = _gen(tmp_path, "a.jsonl")
        b = _gen(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_params_exit_nonzero_and_write_nothing(self, tmp_path,
                                                           capsys):
        out = tmp_path / "never.jsonl"
        rc = _run("gen", "--task", "goal", "--n", "0", "--depth", "4",
                  "--out", str(out))
        assert rc == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_depth_out_of_range_rejected(self, tmp_path, capsys):
        rc = _run("gen", "--task", "goal", "--n", "2", "--depth", "25",
                  "--out", str(tmp_path / "x.jsonl"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_out_is_an_error(self, tmp_path, capsys):
        rc = _run("gen", "--task", "goal", "--n", "2")
        assert rc == 1
        assert "--out" in capsys.readouterr().err

    def test_judgment_summary_prints_mix(self, tmp_path, capsys):
        out = tmp_path / "j.jsonl"
        rc = _run("gen", "--task", "judgment", "--n", "8", "--depth", "4",
                  "--out", str(out))
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "VALID" in stdout or "valid" in stdout

    def test_summary_counts_valid_programs_by_depth(self, tmp_path, capsys):
        out = tmp_path / "j.jsonl"
        rc = _run("gen", "--task", "judgment", "--n", "8", "--depth", "4",
                  "--seed", "7", "--out", str(out))
        assert rc == 0
        assert capsys.readouterr().out == (
            f"wrote {out}\n"
            "instances: 8\n"
            "control depth histogram (valid programs):\n"
            "  depth 4: 4\n"
            "perturbation mix:\n"
            "  delimiter_delete: 1\n"
            "  delimiter_swap: 1\n"
            "  illegal_nesting: 1\n"
            "  keyword_corrupt: 1\n"
        )
        _gen(tmp_path, "g.jsonl")
        assert capsys.readouterr().out.splitlines()[1:] == [
            "instances: 4",
            "control depth histogram (valid programs):",
            "  depth 4: 4",
        ]


class TestConfigPrecedence:
    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = goal\nn = 3\ndepth = 4\nseed = 1\n")
        out = tmp_path / "flagged.jsonl"
        rc = _run("gen", "--config", str(cfg), "--depth", "6",
                  "--out", str(out))
        assert rc == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["_config"]["params"]["D"] == 6
        assert header["_config"]["n"] == 3  # config fills absent flags

    def test_config_alone_suffices(self, tmp_path):
        out = tmp_path / "cfg.jsonl"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"task = instruction\nn = 2\ndepth = 5\nout = {out}\n"
            "# comment lines are skipped\nmax-block = 2\n")
        rc = _run("gen", "--config", str(cfg))
        assert rc == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["_config"]["params"]["B_max"] == 2

    def test_unreadable_config_errors(self, tmp_path, capsys):
        rc = _run("gen", "--config", str(tmp_path / "absent.cfg"),
                  "--task", "goal", "--n", "2",
                  "--out", str(tmp_path / "x.jsonl"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_line_errors(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc = _run("gen", "--config", str(cfg), "--task", "goal", "--n", "2",
                  "--out", str(tmp_path / "x.jsonl"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_key_that_names_no_flag_refused_with_its_line(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("task = goal\nn = 2\ndetph = 7\n")
        out = tmp_path / "x.jsonl"
        rc = _run("gen", "--config", str(cfg), "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: no option is named 'detph'\n")
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn = 3\n")
        out = tmp_path / "x.jsonl"
        assert _run("gen", "--task", "goal", "--depth", "3", "--config",
                    str(cfg), "--out", str(out)) == 0
        assert json.loads(out.read_text().splitlines()[0])["_config"][
            "n"] == 3

    def test_one_config_serves_gen_and_eval(self, tmp_path):
        dataset, run = tmp_path / "data.jsonl", tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"task = goal\nn = 2\nout = {dataset}\n"
                       f"base-url = mock://perfect\nmodel = m\n"
                       f"out-dir = {run}\ncache-dir = {tmp_path / 'c'}\n")
        assert _run("gen", "--config", str(cfg)) == 0
        assert _run("eval", "--config", str(cfg),
                    "--dataset", str(dataset)) == 0
        assert (run / "results.jsonl").exists()

    def test_config_gives_the_options_a_command_requires(self, tmp_path):
        dataset, run = _gen(tmp_path), tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {dataset}\nbase-url = mock://perfect\n"
                       f"model = m\nout-dir = {run}\n"
                       f"cache-dir = {tmp_path / 'c'}\n")
        assert _run("eval", "--config", str(cfg)) == 0
        cfg.write_text(f"dataset = {dataset}\n"
                       f"responses = {run / 'responses.jsonl'}\n"
                       f"out-dir = {tmp_path / 'scored'}\n")
        assert _run("score", "--config", str(cfg)) == 0
        cfg.write_text(f"task = goal\nn = 2\naxis = depth\nvalues = 2,3\n"
                       f"out-dir = {tmp_path / 'sweep'}\n")
        assert _run("sweep", "--config", str(cfg)) == 0
        assert (run / "results.jsonl").exists()
        assert (tmp_path / "scored" / "results.jsonl").exists()
        assert (tmp_path / "sweep" / "depth-3" / "dataset.jsonl").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["eval"], "--dataset"),
        (["score", "--responses", "r.jsonl"], "--dataset"),
        (["score", "--dataset", "d.jsonl"], "--responses"),
        (["sweep", "--values", "2"], "--axis"),
        (["sweep", "--axis", "depth"], "--values"),
    ])
    def test_missing_required_option_exits_1_naming_it(self, tmp_path,
                                                       monkeypatch, capsys,
                                                       argv, flag):
        monkeypatch.chdir(tmp_path)
        assert _run(*argv) == 1
        assert capsys.readouterr() == (
            "", f"error: missing required option {flag}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting, status", [
        ("permissive = true", 0), ("permissive = no", 1), ("", 1)])
    def test_permissive_read_from_config(self, tmp_path, monkeypatch,
                                         setting, status):
        monkeypatch.delenv("GRIDLANG_UNSET_TOKEN", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        rc = _run("eval", "--dataset", str(_gen(tmp_path)), "--config",
                  str(cfg), "--base-url", "http://127.0.0.1:9",
                  "--model", "m", "--auth-env", "GRIDLANG_UNSET_TOKEN",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(tmp_path / "run"))
        assert rc == status
        assert (tmp_path / "run" / "results.jsonl").exists() == (status == 0)


# every subcommand, each given all it needs but the bad config line; the
# paths are relative to the test's directory
_CONFIG_COMMANDS = {
    "gen": ["gen", "--task", "goal", "--n", "2", "--out", "out.jsonl"],
    "eval": ["eval", "--dataset", "data.jsonl", "--base-url",
             "mock://perfect", "--model", "m", "--cache-dir", "cache",
             "--out-dir", "out"],
    "score": ["score", "--dataset", "data.jsonl", "--responses",
              "data.jsonl", "--out-dir", "out"],
    "sweep": ["sweep", "--task", "goal", "--n", "2", "--axis", "depth",
              "--values", "3", "--out-dir", "out"],
    "sweep-eval": ["sweep", "--task", "goal", "--n", "2", "--axis", "depth",
                   "--values", "3", "--out-dir", "out", "--base-url",
                   "mock://perfect", "--model", "m", "--cache-dir", "cache"],
}


@pytest.mark.parametrize("command", list(_CONFIG_COMMANDS))
@pytest.mark.parametrize("line, message", [
    ("cot = maybe", "cot: expected a boolean, got 'maybe'"),
    ("permissive = perhaps", "permissive: expected a boolean, got 'perhaps'"),
    ("temperature = x", "temperature: invalid float value: 'x'"),
    ("n = 0x", "n: invalid int value: '0x'"),
    ("max-block = 2.5", "max_block: invalid int value: '2.5'"),
    ("style = zzz",
     "style: invalid choice: 'zzz' (choose from 'block', 'c', 'sexpr')"),
    ("axis = speed", "axis: invalid choice: 'speed' (choose from 'depth', "
                     "'p', 'E', 'shots', 'style')"),
    # written as the byte 0xff, which is not UTF-8
    ("seed = \udcff1", "not UTF-8 text: byte 0xff at column 8"),
    ("config = other.cfg", "config cannot be set in a config file"),
])
def test_bad_config_value_refused_with_its_line(command, line, message,
                                                tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a bad value on line 2\n{line}\n", encoding="utf-8",
                   errors="surrogateescape")
    capsys.readouterr()
    assert _run(*_CONFIG_COMMANDS[command], "--config", str(cfg)) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:2: {message}\n")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.jsonl").exists()


def test_malformed_params_refused_with_its_line(tmp_path, capsys):
    dataset = _gen(tmp_path)
    lines = dataset.read_text().splitlines()
    row = json.loads(lines[1])
    row["params"]["D"] = "x"
    lines[1] = json.dumps(row)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = _run("eval", "--dataset", str(dataset), "--base-url", "mock://perfect",
              "--model", "mock-model", "--out-dir", str(tmp_path / "run"),
              "--cache-dir", str(tmp_path / "cache"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "Traceback" not in err


def _spoil_line_3(dataset, field, value):
    """Set one field of the record on line 3 of ``dataset``."""
    lines = dataset.read_text().splitlines()
    row = json.loads(lines[2])
    row[field] = value(row[field]) if callable(value) else value
    lines[2] = json.dumps(row)
    dataset.write_text("\n".join(lines) + "\n")


def _eval_error(tmp_path, dataset, capsys, mock="perfect"):
    """The one error line a failing ``eval`` prints."""
    capsys.readouterr()
    rc = _run("eval", "--dataset", str(dataset), "--base-url",
              f"mock://{mock}", "--model", "mock-model",
              "--out-dir", str(tmp_path / "run"),
              "--cache-dir", str(tmp_path / "cache"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("field", ["id", "grammar_text"])
def test_null_field_refused_with_its_line(tmp_path, capsys, field):
    dataset = _gen(tmp_path)
    _spoil_line_3(dataset, field, None)
    err = _eval_error(tmp_path, dataset, capsys)
    assert err == f"error: line 3: {field} must be a string, got None\n"


@pytest.mark.parametrize("task, field", [("goal", "gold_code"),
                                         ("judgment", "candidate")])
def test_lone_surrogate_refused_with_its_line(tmp_path, capsys, task, field):
    dataset = _gen(tmp_path, "data.jsonl", "--task", task)
    at = len(json.loads(dataset.read_text().splitlines()[2])[field])
    _spoil_line_3(dataset, field, lambda text: text + "\ud800")
    err = _eval_error(tmp_path, dataset, capsys)
    assert err == (f"error: line 3: {field} is not UTF-8 text: surrogates "
                   f"not allowed at character {at}\n")


@pytest.mark.parametrize("mock", ["perfect", "flatten"])
def test_bad_grammar_text_names_its_instance(tmp_path, capsys, mock):
    dataset = _gen(tmp_path)
    _spoil_line_3(dataset, "grammar_text",
                  lambda text: re.sub(r'LBR: ".*"', 'LBR: "{}"', text))
    err = _eval_error(tmp_path, dataset, capsys, mock)
    assert err == ("error: instance goal-00001: LBR must bind one "
                   "punctuation character, got '{}'\n")


def test_bad_gold_ast_names_its_instance(tmp_path, capsys):
    dataset = _gen(tmp_path, "inst.jsonl", "--task", "instruction")
    _spoil_line_3(dataset, "gold_ast", "(prog")
    err = _eval_error(tmp_path, dataset, capsys)
    assert err == ("error: instance instruction-00001: at token 2: "
                   "expected '(', found end of input\n")


def _spoil_bytes_of_line_3(path):
    """Put a byte that is not UTF-8 into line 3 of ``path``."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b" \xff" + lines[2][1:]
    path.write_bytes(b"\n".join(lines))


def test_dataset_bytes_that_are_not_utf8_refused_with_their_line(tmp_path,
                                                                 capsys):
    dataset = _gen(tmp_path)
    _spoil_bytes_of_line_3(dataset)
    err = _eval_error(tmp_path, dataset, capsys)
    assert err == "error: line 3: not UTF-8 text: byte 0xff at column 3\n"


class TestEval:
    def test_mock_eval_writes_reports(self, tmp_path, capsys):
        dataset = _gen(tmp_path)
        out_dir = tmp_path / "run"
        rc = _run("eval", "--dataset", str(dataset),
                  "--base-url", "mock://perfect", "--model", "mock-model",
                  "--out-dir", str(out_dir),
                  "--cache-dir", str(tmp_path / "cache"))
        assert rc == 0
        report = (out_dir / "report.md").read_text()
        assert "100.0" in report
        assert "## Provenance" in report
        csv_lines = (out_dir / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# {")
        provenance = json.loads(csv_lines[0][2:])
        assert provenance["model"] == "mock-model"
        assert csv_lines[1] == "model,task,n,svr,ber,scr,cber,cscr"
        assert (out_dir / "results.jsonl").exists()
        assert (out_dir / "responses.jsonl").exists()
        stdout = capsys.readouterr().out
        assert "model calls: 4" in stdout

    def test_warm_cache_reports_zero_calls(self, tmp_path, capsys):
        dataset = _gen(tmp_path)
        common = ("eval", "--dataset", str(dataset),
                  "--base-url", "mock://perfect", "--model", "mock-model",
                  "--cache-dir", str(tmp_path / "cache"))
        assert _run(*common, "--out-dir", str(tmp_path / "r1")) == 0
        capsys.readouterr()
        assert _run(*common, "--out-dir", str(tmp_path / "r2")) == 0
        assert "model calls: 0" in capsys.readouterr().out

    def test_missing_dataset_errors(self, tmp_path, capsys):
        rc = _run("eval", "--dataset", str(tmp_path / "absent.jsonl"),
                  "--base-url", "mock://perfect", "--model", "m")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_endpoint_failure_exits_nonzero(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.delenv("GRIDLANG_API_TOKEN", raising=False)
        dataset = _gen(tmp_path)
        rc = _run("eval", "--dataset", str(dataset),
                  "--base-url", "http://127.0.0.1:9", "--model", "m",
                  "--max-retries", "0", "--timeout", "2",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(tmp_path / "run"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_mixed_kinds_rejected_before_any_model_call(self, tmp_path,
                                                         capsys):
        goal = _gen(tmp_path, "goal.jsonl")
        inst = _gen(tmp_path, "inst.jsonl", "--task", "instruction")
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(goal.read_text()
                         + "".join(inst.read_text().splitlines(True)[1:]))
        capsys.readouterr()
        rc = _run("eval", "--dataset", str(mixed),
                  "--base-url", "mock://perfect", "--model", "mock-model",
                  "--out-dir", str(tmp_path / "run"),
                  "--cache-dir", str(tmp_path / "cache"))
        assert rc == 1
        assert "mixes task kinds" in capsys.readouterr().err
        assert cache_entries(tmp_path / "cache") == []
        rc = _run("score", "--dataset", str(mixed),
                  "--responses", str(tmp_path / "absent.jsonl"),
                  "--out-dir", str(tmp_path / "scored"))
        assert rc == 1
        assert "mixes task kinds" in capsys.readouterr().err

    def test_results_and_responses_written(self, tmp_path):
        dataset = _gen(tmp_path, "inst.jsonl", "--task", "instruction",
                       "--n", "3")
        out = tmp_path / "run"
        assert _run("eval", "--dataset", str(dataset),
                    "--base-url", "mock://perfect", "--model", "mock-model",
                    "--out-dir", str(out),
                    "--cache-dir", str(tmp_path / "cache")) == 0
        assert (out / "responses.jsonl").exists()
        results_lines = (out / "results.jsonl").read_text().splitlines()
        assert json.loads(results_lines[0]) == {"_config": {
            "command": "eval", "dataset": str(dataset),
            "model": "mock-model", "base_url": "mock://perfect",
            "temperature": 0.0, "max_tokens": 4096, "shots": 0,
            "cot": True}}
        assert len(results_lines) == 4
        row = json.loads(results_lines[1])
        assert row["instance_id"] == json.loads(
            dataset.read_text().splitlines()[1])["id"]
        assert len(row["prompt_sha256"]) == 64
        assert len(row["response_sha256"]) == 64

    @pytest.mark.parametrize("run", ["0-shot", "2-shot", "permissive-lost"])
    def test_responses_are_the_results_rows_that_hold_a_response(
            self, tmp_path, monkeypatch, run):
        argv = ["eval", "--dataset", str(_gen(tmp_path)), "--model", "m",
                "--cache-dir", str(tmp_path / "cache"),
                "--out-dir", str(tmp_path / "run")]
        if run == "permissive-lost":
            sent = itertools.count()

            def second_request_lost(cfg, prompt):
                if next(sent) == 1:
                    raise HarnessError("lost")
                return "move"

            monkeypatch.setattr(harness, "call_model", second_request_lost)
            # one fetch thread sends the requests in dataset order
            argv += ["--base-url", "http://127.0.0.1:9", "--parallelism",
                     "1", "--permissive"]
        else:
            argv += ["--base-url", "mock://flatten", "--shots", run[0]]
        assert _run(*argv) == 0

        def read(name):
            lines = (tmp_path / "run" / name).read_text().splitlines()
            return lines[0], [json.loads(line) for line in lines[1:]]

        results_config, results = read("results.jsonl")
        responses_config, responses = read("responses.jsonl")
        assert responses_config == results_config
        assert responses == [
            {"instance_id": row["instance_id"],
             "prompt_sha256": row["prompt_sha256"],
             "response_sha256": row["response_sha256"],
             "response": row["raw_answer"]}
            for row in results if "response_sha256" in row]
        assert len(responses) == 4 - (run == "permissive-lost")
        assert all(row["response_sha256"] == hashlib.sha256(
            row["response"].encode("utf-8")).hexdigest() for row in responses)

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_unknown_mock_scheme_refused_before_any_file_is_written(
            self, tmp_path, capsys, command):
        dataset = _gen(tmp_path)
        written = sorted(tmp_path.rglob("*"))
        argv = (["eval", "--dataset", str(dataset)] if command == "eval"
                else ["sweep", "--task", "goal", "--n", "2", "--axis",
                      "depth", "--values", "2,3"])
        capsys.readouterr()
        rc = _run(*argv, "--base-url", "mock://typo", "--model", "m",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(tmp_path / "run"))
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: unknown mock scheme 'typo'\n")
        assert sorted(tmp_path.rglob("*")) == written


class TestScore:
    def _evaluated(self, tmp_path):
        dataset = _gen(tmp_path)
        out_dir = tmp_path / "run"
        rc = _run("eval", "--dataset", str(dataset),
                  "--base-url", "mock://perfect", "--model", "mock-model",
                  "--out-dir", str(out_dir),
                  "--cache-dir", str(tmp_path / "cache"))
        assert rc == 0
        return dataset, out_dir

    def test_rescore_is_deterministic(self, tmp_path):
        dataset, run_dir = self._evaluated(tmp_path)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = _run("score", "--dataset", str(dataset),
                      "--responses", str(run_dir / "responses.jsonl"),
                      "--out-dir", str(out))
            assert rc == 0
            outs.append((out / "results.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_rescore_matches_live_metrics(self, tmp_path):
        dataset, run_dir = self._evaluated(tmp_path)
        out = tmp_path / "scored"
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(run_dir / "responses.jsonl"),
                  "--out-dir", str(out))
        assert rc == 0
        assert "100.0" in (out / "report.md").read_text()

    def test_tampered_response_fails_that_instance(self, tmp_path):
        dataset, run_dir = self._evaluated(tmp_path)
        responses = run_dir / "responses.jsonl"
        lines = responses.read_text().splitlines()
        row = json.loads(lines[1])
        row["response"] = "```\nnot a program\n```"
        lines[1] = json.dumps(row)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        out = tmp_path / "scored"
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(tampered), "--out-dir", str(out))
        assert rc == 0
        report = (out / "report.csv").read_text().splitlines()
        data_row = report[2].split(",")
        assert data_row[3] == "75.0"  # one of four instances now fails

    def test_missing_instance_errors(self, tmp_path, capsys):
        dataset, run_dir = self._evaluated(tmp_path)
        responses = run_dir / "responses.jsonl"
        lines = responses.read_text().splitlines()
        truncated = tmp_path / "short.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(truncated),
                  "--out-dir", str(tmp_path / "scored"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_response_bytes_that_are_not_utf8_refused_with_their_line(
            self, tmp_path, capsys):
        dataset, run_dir = self._evaluated(tmp_path)
        responses = run_dir / "responses.jsonl"
        _spoil_bytes_of_line_3(responses)
        capsys.readouterr()
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(responses),
                  "--out-dir", str(tmp_path / "scored"))
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: line 3: not UTF-8 text: byte 0xff at column 3\n")

    def test_permissive_eval_with_a_failed_request_does_not_rescore(
            self, tmp_path, capsys, monkeypatch):
        """A permissive eval writes no responses row for a request that
        failed, so its responses file cannot be scored."""
        monkeypatch.delenv("GRIDLANG_UNSET_TOKEN", raising=False)
        dataset = _gen(tmp_path)
        run_dir = tmp_path / "run"
        assert _run("eval", "--dataset", str(dataset),
                    "--base-url", "http://127.0.0.1:9", "--model", "m",
                    "--auth-env", "GRIDLANG_UNSET_TOKEN",
                    "--max-retries", "0", "--permissive",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--out-dir", str(run_dir)) == 0
        capsys.readouterr()
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(run_dir / "responses.jsonl"),
                  "--out-dir", str(tmp_path / "scored"))
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: no captured response for instance goal-00000\n")

    def test_repeated_ids_exit_nonzero(self, tmp_path, capsys):
        # a second instance under the first one's id, and a responses file
        # that answers one instance twice, are refused, not merged
        dataset, run_dir = self._evaluated(tmp_path)
        lines = dataset.read_text().splitlines()
        row = json.loads(lines[2])
        row["id"] = json.loads(lines[1])["id"]
        twice = tmp_path / "twice.jsonl"
        twice.write_text("\n".join(lines[:2] + [json.dumps(row)]) + "\n")
        responses = run_dir / "responses.jsonl"
        rows = responses.read_text().splitlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("\n".join(rows + rows[1:2]) + "\n")
        for data, answers in ((twice, responses), (dataset, doubled)):
            rc = _run("score", "--dataset", str(data),
                      "--responses", str(answers),
                      "--out-dir", str(tmp_path / "scored"))
            assert rc == 1
            assert "duplicate" in capsys.readouterr().err
        assert not (tmp_path / "scored").exists()

    def test_unencodable_response_exits_nonzero_with_its_line(
            self, tmp_path, capsys):
        dataset, run_dir = self._evaluated(tmp_path)
        lines = (run_dir / "responses.jsonl").read_text().splitlines()
        row = json.loads(lines[2])
        row["response"] = "move \ud800"
        lines[2] = json.dumps(row)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = _run("score", "--dataset", str(dataset), "--responses", str(bad),
                  "--out-dir", str(tmp_path / "scored"))
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: line 3: response is not UTF-8 text: surrogates not "
                "allowed at character 5\n")
        assert not (tmp_path / "scored").exists()

    def test_rescore_reproduces_the_eval_results(self, tmp_path):
        # one scorer and one writer serve both commands, so re-scoring an
        # eval's responses gives its rows back, prompt hashes included
        dataset = _gen(tmp_path, "inst.jsonl", "--task", "instruction",
                       "--style", "c", "--n", "8", "--E", "2")
        run_dir = tmp_path / "run"
        rc = _run("eval", "--dataset", str(dataset),
                  "--base-url", "mock://flatten", "--model", "mock-model",
                  "--shots", "2", "--out-dir", str(run_dir),
                  "--cache-dir", str(tmp_path / "cache"))
        assert rc == 0
        out = tmp_path / "scored"
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(run_dir / "responses.jsonl"),
                  "--out-dir", str(out))
        assert rc == 0
        live = (run_dir / "results.jsonl").read_bytes().split(b"\n", 1)
        scored = (out / "results.jsonl").read_bytes().split(b"\n", 1)
        assert live[0] != scored[0]  # the provenance lines differ
        assert live[1] == scored[1]
        rows = [json.loads(line) for line in live[1].splitlines()]
        assert len(rows) == 8
        assert all(len(row["prompt_sha256"]) == 64 for row in rows)
        assert "semantics" in {row["failure_stage"] for row in rows}

    def test_malformed_prompt_hash_exits_nonzero(self, tmp_path, capsys):
        # unchecked, it would be copied into results.jsonl verbatim
        dataset, run_dir = self._evaluated(tmp_path)
        lines = (run_dir / "responses.jsonl").read_text().splitlines()
        row = json.loads(lines[2])
        row["prompt_sha256"] = {"not": ["a", "hash"]}
        lines[2] = json.dumps(row)
        forged = tmp_path / "forged.jsonl"
        forged.write_text("\n".join(lines) + "\n")
        rc = _run("score", "--dataset", str(dataset),
                  "--responses", str(forged),
                  "--out-dir", str(tmp_path / "scored"))
        assert rc == 1
        assert "line 3: prompt_sha256" in capsys.readouterr().err
        assert not (tmp_path / "scored").exists()


class TestSweep:
    def test_depth_sweep_artifacts(self, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = _run("sweep", "--task", "goal", "--n", "3", "--axis", "depth",
                  "--values", "2,5", "--seed", "3",
                  "--out-dir", str(out_dir))
        assert rc == 0
        for value in (2, 5):
            leaf = out_dir / f"depth-{value}" / "dataset.jsonl"
            assert leaf.exists()
            header = json.loads(leaf.read_text().splitlines()[0])
            assert header["_config"]["axis"] == "depth"
            assert header["_config"]["value"] == value
            assert header["_config"]["params"]["D"] == value

    @pytest.mark.parametrize("axis,values", [
        ("p", (0.2, 0.9)), ("style", ("block", "sexpr")),
    ])
    def test_leaf_config_is_the_base_with_the_swept_value(self, tmp_path,
                                                          axis, values):
        base = ("--task", "goal", "--n", "2", "--depth", "3", "--p", "0.4",
                "--E", "1", "--max-block", "2", "--style", "c",
                "--lexicon", "alien", "--seed", "3")
        assert _run("gen", *base, "--out", str(tmp_path / "base.jsonl")) == 0
        out_dir = tmp_path / "sweep"
        rc = _run("sweep", *base, "--axis", axis,
                  "--values", ",".join(map(str, values)),
                  "--out-dir", str(out_dir))
        assert rc == 0
        for value in values:
            expected = next(read_jsonl(tmp_path / "base.jsonl", "id"),
                            None)
            expected.update(command="sweep", axis=axis, value=value)
            expected["params"]["seed"] = derive_seed(3, "sweep", axis,
                                                     str(value))
            if axis == "p":
                expected["params"]["p"] = value
            else:
                expected["style"] = value
            leaf = out_dir / f"{axis}-{value}" / "dataset.jsonl"
            assert next(read_jsonl(leaf, "id"), None) == expected

    def test_sweep_with_mock_eval_writes_long_csv(self, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = _run("sweep", "--task", "instruction", "--n", "2",
                  "--axis", "E", "--values", "1,2", "--seed", "3",
                  "--base-url", "mock://perfect", "--model", "mock-model",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(out_dir))
        assert rc == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis,value,model,task,metric,percentage"
        svr_rows = [l for l in lines if ",svr," in l]
        assert len(svr_rows) == 2
        assert all(row.endswith("100.0") for row in svr_rows)

    def test_leaf_eval_artifacts_record_the_endpoint_and_prompt(
            self, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", "depth",
                  "--values", "2,3", "--seed", "3", "--shots", "2",
                  "--base-url", "mock://perfect", "--model", "m",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(out_dir))
        assert rc == 0
        for value in (2, 3):
            leaf = out_dir / f"depth-{value}"
            # the leaf's gen provenance, then the eval settings, in order
            expected = list(next(read_jsonl(leaf / "dataset.jsonl", "id"),
                                 None).items()) + [
                ("model", "m"), ("base_url", "mock://perfect"),
                ("temperature", 0.0), ("max_tokens", 4096), ("shots", 2),
                ("cot", True)]
            for name in ("responses.jsonl", "results.jsonl"):
                header = next(read_jsonl(leaf / name, "instance_id"), None)
                assert list(header.items()) == expected
            csv_header = (leaf / "report.csv").read_text().splitlines()[0]
            assert csv_header.startswith("# ")
            assert list(json.loads(csv_header[2:]).items()) == expected
            # the captured responses re-score to the same rows
            assert _run("score", "--dataset", str(leaf / "dataset.jsonl"),
                        "--responses", str(leaf / "responses.jsonl"),
                        "--out-dir", str(leaf / "scored")) == 0
            rows = [(leaf / d / "results.jsonl").read_text().splitlines()[1:]
                    for d in (".", "scored")]
            assert rows[0] == rows[1] and len(rows[0]) == 2

    def test_bad_endpoint_value_refused_before_any_leaf_is_written(
            self, tmp_path, capsys):
        out_dir = tmp_path / "s"
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", "depth",
                  "--values", "2,3", "--base-url", "mock://perfect",
                  "--model", "m", "--temperature", "-1",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(out_dir))
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: temperature must be finite and >= 0\n")
        assert not out_dir.exists()

    def test_shots_axis_shares_one_dataset(self, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = _run("sweep", "--task", "goal", "--n", "3", "--axis", "shots",
                  "--values", "0,1", "--seed", "3",
                  "--out-dir", str(out_dir))
        assert rc == 0

        def rows(value):
            path = out_dir / f"shots-{value}" / "dataset.jsonl"
            return path.read_text().splitlines()[1:]

        assert rows(0) == rows(1)

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", "depth",
                  "--values", "2,99", "--out-dir", str(tmp_path / "s"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_value_rejected_before_any_leaf_is_written(self, tmp_path):
        out_dir = tmp_path / "s"
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", "depth",
                  "--values", "2,99", "--out-dir", str(out_dir))
        assert rc == 1
        assert not (out_dir / "depth-2").exists()

    def test_bad_style_value_refused_as_the_config_file_would(self, tmp_path,
                                                               capsys):
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", "style",
                  "--values", "c,foo", "--out-dir", str(tmp_path / "s"))
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid choice: 'foo' (choose from 'block', 'c', "
            "'sexpr')\n")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("axis, values, repeated", [
        ("depth", "3,3", "3"), ("depth", "2,3,03", "3"), ("style", "c,c", "c"),
        ("p", "0.5,.50", "0.5")])
    def test_repeated_value_refused_before_any_leaf_is_written(
            self, tmp_path, capsys, axis, values, repeated):
        out_dir = tmp_path / "sw"
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", axis,
                  "--values", values, "--seed", "1",
                  "--base-url", "mock://perfect", "--model", "m",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--out-dir", str(out_dir))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: sweep value {repeated} is given more than once\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("values", [",", " , ,"])
    def test_no_values_refused(self, tmp_path, capsys, values):
        out_dir = tmp_path / "sw"
        rc = _run("sweep", "--task", "goal", "--n", "2", "--axis", "depth",
                  "--values", values, "--out-dir", str(out_dir))
        assert rc == 1
        assert capsys.readouterr().err == "error: no sweep values given\n"
        assert not out_dir.exists()

    def test_bad_axis_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            _run("sweep", "--task", "goal", "--n", "2", "--axis", "speed",
                 "--values", "1", "--out-dir", str(tmp_path / "s"))


class TestExitCodes:
    def test_success_returns_zero(self, tmp_path):
        assert _gen(tmp_path).exists()

    def test_unknown_subcommand_raises_system_exit(self):
        with pytest.raises(SystemExit):
            _run("frobnicate")


def _parse_outcome(parse, argv, capsys):
    """The exit status, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    return (exited.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["--help"], ["eval", "--help"], ["gen", "-h"], ["sweep", "--help"],
    ["score", "--help"], ["evl"], [], ["sweep", "--axis", "zz"],
    ["gen", "--n", "x"],
])
def test_help_and_usage_errors_match_the_full_parser(argv, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse_outcome(lambda a: build_parser().parse_args(a), argv,
                              capsys)
    assert expected[0] == (0 if "-h" in argv or "--help" in argv else 2)
    assert _parse_outcome(main, argv, capsys) == expected
    monkeypatch.setattr(sys, "argv", ["gridlang", *argv])
    assert _parse_outcome(lambda _a: main(), argv, capsys) == expected


# per subcommand: help, no flags, an unknown flag, a bad int, a bad choice,
# --flag=value, abbreviated flags (one ambiguous), a stray positional and
# "--"; score has no int or choice flag, eval no choice flag
_TEXT_CASES = {
    "gen": [["--help"], [], ["--bogus"], ["--n", "x"], ["--task", "zz"],
            ["--depth=3", "--task=goal"], ["--ta", "goal", "--max", "2"],
            ["--n", "2", "stray"], ["--n", "2", "--", "--depth", "3"],
            ["--n", "2", "--bogus", "--n", "x"]],
    "sweep": [["--help"], [], ["--axis", "p", "--values", "1", "--bogus"],
              ["--axis", "p", "--values", "1", "--n", "x"],
              ["--axis", "speed", "--values", "1"],
              ["--axis=p", "--values=0.2,0.4", "--no-cot"],
              ["--ax", "p", "--val", "1", "--ma", "3"],
              ["--axis", "p", "--values", "1", "stray"]],
    "eval": [["--help"], [], ["--dataset", "d", "--bogus"],
             ["--dataset", "d", "--shots", "x"],
             ["--dataset=d", "--cot", "--model=m"],
             ["--dat", "d", "--tem", "0.5"], ["--dat", "d", "--ma", "3"],
             ["--dataset", "d", "--no-cot", "--permissive"]],
    "score": [["--help"], [], ["--dataset", "d", "--responses", "r",
                               "--bogus"],
              ["--dataset=d", "--responses=r", "--model=m"],
              ["--dat", "d", "--resp", "r"], ["--dat", "d", "stray"]],
}


@pytest.mark.parametrize("argv", [
    [name, *case] for name, cases in _TEXT_CASES.items() for case in cases
], ids=" ".join)
def test_texts_and_settings_match_the_full_parser(argv, capsys, monkeypatch):
    """``main`` parses with the subcommand's own parser; its output, exit
    status and settings equal those of ``build_parser().parse_args``."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name, (help_text, flags, _func, notes) in list(
            cli._SUBCOMMANDS.items()):
        monkeypatch.setitem(cli._SUBCOMMANDS, name,
                            (help_text, flags, lambda args: seen.append(
                                vars(args)) or 0, notes))

    def outcome(parse):
        try:
            parse()
        except SystemExit as exc:
            return (exc.code, *capsys.readouterr())
        return ("parsed", *capsys.readouterr())

    expected = outcome(lambda: seen.append(vars(build_parser().parse_args(
        argv))))
    assert outcome(lambda: main(argv)) == expected
    if expected[0] == "parsed":
        parsed, ran = seen
        del parsed["subcommand"]
        assert ran == parsed


def test_gen_constructs_one_argument_parser(tmp_path, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _gen(tmp_path)
    assert made == ["gridlang gen"]


def _help_notes(name, capsys, monkeypatch) -> dict[str, str]:
    """Each option's help text in ``gridlang <name> --help``, by flag."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([name, "--help"])
    notes = {}
    for line in capsys.readouterr().out.split("options:\n")[1].splitlines():
        if line.startswith("  -"):  # an option's row, maybe with its help
            flag, *note = re.split(r"\s{2,}", line.strip(), maxsplit=1)
            flag = flag.split()[0].rstrip(",")
            notes[flag] = "".join(note)
        else:  # its help, on the next line
            notes[flag] += line.strip()
    return notes


# a value of every option some command refuses to run without
_REQUIRED_VALUES = {
    "--task": "goal", "--n": "2", "--out": "new.jsonl", "--axis": "depth",
    "--values": "1", "--out-dir": "out", "--dataset": "data.jsonl",
    "--base-url": "mock://perfect", "--model": "m",
    "--responses": "run/responses.jsonl",
}


@pytest.mark.parametrize("argv", [
    ["gen"], ["sweep"], ["sweep", "--base-url", "mock://perfect"], ["eval"],
    ["score"],
], ids=" ".join)
def test_help_marks_exactly_the_options_a_command_requires(
        argv, tmp_path, capsys, monkeypatch):
    """The options ``--help`` marks required are those whose omission
    exits 1 with ``missing required option``: given only them, the
    command runs."""
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    assert _run("eval", "--dataset", "data.jsonl", "--base-url",
                "mock://perfect", "--model", "m", "--out-dir", "run") == 0
    notes = _help_notes(argv[0], capsys, monkeypatch)
    marks = ["required unless set in --config"]
    if "--base-url" in argv:
        marks.append("required with --base-url, unless set in --config")
    required = [flag for flag, note in notes.items()
                if any(mark in note for mark in marks)]
    assert required
    for omitted in [None, *required]:
        given = [item for flag in required if flag != omitted
                 for item in (flag, _REQUIRED_VALUES[flag])]
        capsys.readouterr()
        status = main([*argv, *given])
        if omitted is None:
            assert status == 0
        else:
            assert status == 1
            assert capsys.readouterr().err == \
                f"error: missing required option {omitted}\n"
