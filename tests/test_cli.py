"""Command-line behavior: precedence, artifacts, determinism, exit codes."""

import json

import pytest

from gridlang.cli import main


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
