import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from votestack import DataError, cli, errors, fusion, gaussian_blobs, save_csv
from conftest import FILE_EDITS, FUZZ_SETTINGS, apply_edits, wall_bound

BASE_CONFIG = """
[dataset]
path = {data}

[ensemble]
n_learners = 3
strategies = plurality, filtered

[boost]
rounds = 4
max_depth = 2

[mlp]
hidden_sizes = 8 4
epochs = 2
batch_size = 32
learning_rate = 0.05

[run]
seed = 9
output_dir = {out}
"""


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    save_csv(gaussian_blobs(150, 4, 3, seed=17), path)
    return path


def write_config(tmp_path, data_csv, extra="", out="{out}"):
    text = BASE_CONFIG.format(data=data_csv, out=tmp_path / "out") + extra
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return path


def write_minimal_config(tmp_path, data, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(f"[dataset]\npath = {data}\n{extra}"
                    f"[run]\noutput_dir = {tmp_path / 'o'}\n", encoding="utf-8")
    return path


def test_every_error_but_a_contract_error_has_an_exit_code():
    kinds = {c for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.VoteStackError)}
    for kind in kinds - {errors.VoteStackError, errors.ContractError}:
        assert any(issubclass(kind, mapped) for mapped in cli._EXIT_CODES), kind
    assert not issubclass(errors.ContractError, tuple(cli._EXIT_CODES))


class TestSelfcheck:
    # The subcommand is gone: acceptance 01-03 check its three properties.
    def test_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selfcheck"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # The child runs outside the checkout, so give it the absolute src path.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "votestack.cli", "--version"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert "votestack" in proc.stdout


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "votestack" in capsys.readouterr().out


class TestRun:
    def test_happy_path(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        assert cli.main(["run", "--config", str(config)]) == 0
        out_dir = tmp_path / "out"
        for name in ("report.json", "accuracy_table.csv", "decisions.csv",
                     "manifest.json"):
            assert (out_dir / name).exists()
        for j in range(3):
            assert (out_dir / "models" / f"learner_{j}.mlp").exists()
        stdout = capsys.readouterr().out
        assert "mean learner accuracy" in stdout
        assert "plurality" in stdout
        assert "filtered" in stdout

    def test_seed_override_lands_in_manifest(self, tmp_path, data_csv):
        config = write_config(tmp_path, data_csv)
        assert cli.main(["run", "--config", str(config), "--seed", "7"]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 7

    def test_rerun_byte_identical_accuracy_table_across_workers(
            self, tmp_path, data_csv):
        config = write_config(tmp_path, data_csv)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["run", "--config", str(config), "--seed", "7",
                         "--out", str(out_a), "--workers", "1"]) == 0
        assert cli.main(["run", "--config", str(config), "--seed", "7",
                         "--out", str(out_b), "--workers", "2"]) == 0
        for name in ("accuracy_table.csv", "decisions.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.ini")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not found" in err

    def test_config_without_dataset_location(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text("[run]\nseed = 1\n", encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        assert "[dataset] path" in capsys.readouterr().err

    def test_unknown_strategy_in_config(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        text = config.read_text(encoding="utf-8").replace(
            "strategies = plurality, filtered",
            "strategies = plurality, borda")
        config.write_text(text, encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        assert "unknown strategy" in capsys.readouterr().err

    def test_invalid_mlp_setting_reported_before_data_is_read(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(f"[dataset]\npath = {tmp_path / 'absent.csv'}\n"
                          f"[mlp]\nepochs = 0\n[run]\noutput_dir = {tmp_path / 'o'}\n",
                          encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(config) in err and "[mlp] epochs" in err

    def test_bad_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,a\n1.0,b\n", encoding="utf-8")
        config = tmp_path / "exp.ini"
        config.write_text(
            f"[dataset]\npath = {bad}\n[run]\noutput_dir = {tmp_path / 'o'}\n",
            encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "latin1"])
    def test_unreadable_data_file(self, tmp_path, capsys, kind):
        data = tmp_path / "data"
        if kind == "directory":
            data.mkdir()
        else:
            data.write_bytes("1.0,2.0,caf\xe9\n3.0,4.0,caf\xe9\n".encode("latin-1"))
        config = tmp_path / "exp.ini"
        config.write_text(
            f"[dataset]\npath = {data}\n[run]\noutput_dir = {tmp_path / 'o'}\n",
            encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(data) in err

    def test_one_row_class_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n0,1,x\n1,2,x\n2,3,x\n3,4,y\n", encoding="utf-8")
        rc = cli.main(["run", "--config", str(write_minimal_config(tmp_path, data))])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: loading data: class 'y' has 1 sample(s)")

    @pytest.mark.parametrize("label_column", ["nosuch", "9"])
    def test_unresolvable_label_column_exits_2(self, tmp_path, data_csv, capsys, label_column):
        config = write_minimal_config(tmp_path, data_csv, f"label_column = {label_column}\n")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "label column" in err

    def test_label_column_missing_from_the_test_file_names_it(self, tmp_path, capsys):
        rows = ["0,1,x", "1,2,y", "2,3,x", "3,4,y"]
        (tmp_path / "tr.csv").write_text("\n".join(["a,b,label", *rows]) + "\n",
                                         encoding="utf-8")
        (tmp_path / "te.csv").write_text("\n".join(["a,b,lab", *rows]) + "\n",
                                         encoding="utf-8")
        config = tmp_path / "exp.ini"
        config.write_text(f"[dataset]\ntrain_path = {tmp_path / 'tr.csv'}\n"
                          f"test_path = {tmp_path / 'te.csv'}\nlabel_column = label\n"
                          f"[run]\noutput_dir = {tmp_path / 'o'}\n", encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: loading data: {tmp_path / 'te.csv'}: "
            "label column 'label' not found in header\n")

    def test_short_row_in_the_test_file_names_it(self, tmp_path, capsys):
        rows = ["0,1,x", "1,2,y", "2,3,x", "3,4,y"]
        (tmp_path / "tr.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "te.csv").write_text("\n".join([rows[0], rows[1], "2,x", rows[3]]) + "\n",
                                         encoding="utf-8")
        config = tmp_path / "exp.ini"
        config.write_text(f"[dataset]\ntrain_path = {tmp_path / 'tr.csv'}\n"
                          f"test_path = {tmp_path / 'te.csv'}\n"
                          f"[run]\noutput_dir = {tmp_path / 'o'}\n", encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: loading data: {tmp_path / 'te.csv'}: line 3: expected 3 cells, got 2\n")

    @pytest.mark.parametrize("section, key", [
        ("boost", "l2_lambda"), ("boost", "learning_rate"), ("mlp", "learning_rate"),
    ])
    def test_nan_setting_exits_1_naming_it_before_any_model_is_written(
            self, tmp_path, data_csv, capsys, section, key):
        config = write_minimal_config(tmp_path, data_csv, f"[{section}]\n{key} = nan\n")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_comment_character_delimiter_exits_1(self, tmp_path, data_csv, capsys):
        config = write_minimal_config(tmp_path, data_csv, "delimiter = ;\n")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[dataset] delimiter" in err

    def test_majority_rejections_reported(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        text = config.read_text(encoding="utf-8").replace(
            "strategies = plurality, filtered", "strategies = plurality, majority")
        config.write_text(text, encoding="utf-8")
        assert cli.main(["run", "--config", str(config)]) == 0
        rejected = json.loads((tmp_path / "out" / "report.json").read_text(
            encoding="utf-8"))["rejected_count"]
        assert rejected > 0
        assert f"strict majority rejected {rejected} sample(s)" in capsys.readouterr().out

    def test_config_file_not_utf8(self, tmp_path, data_csv, capsys):
        config = tmp_path / "exp.ini"
        config.write_bytes(f"[dataset]\npath = {data_csv}\n# caf\xe9\n".encode("latin-1"))
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(config) in err

    def test_divergence_exit_code(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        text = config.read_text(encoding="utf-8").replace(
            "learning_rate = 0.05", "learning_rate = 1e308")
        config.write_text(text, encoding="utf-8")
        with np.errstate(all="ignore"):
            rc = cli.main(["run", "--config", str(config)])
        assert rc == 3
        assert "non-finite loss" in capsys.readouterr().err

    def test_learner_overflowing_in_its_last_update_exits_3_without_a_model(
            self, tmp_path, capsys):
        # One full-batch step leaves finite weights of about 1e300 whose
        # forward pass overflows, so training itself sees a finite loss.
        data = tmp_path / "blobs.csv"
        save_csv(gaussian_blobs(200, 5, 2, seed=1), data)
        config = tmp_path / "exp.ini"
        config.write_text(
            f"[dataset]\npath = {data}\n"
            "[ensemble]\nn_learners = 3\nstrategies = plurality, filtered\n"
            "[mlp]\nhidden_sizes = 8\nepochs = 1\nbatch_size = 100000\n"
            "learning_rate = 1e300\n"
            f"[run]\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        with np.errstate(all="ignore"):
            rc = cli.main(["run", "--config", str(config)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "learner 0" in err and "non-finite" in err
        assert not list((tmp_path / "out").rglob("*.mlp"))

    def test_model_path_taken_by_directory(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        text = config.read_text(encoding="utf-8").replace(
            "strategies = plurality, filtered",
            "strategies = plurality, meta, filtered")
        config.write_text(text, encoding="utf-8")
        models = tmp_path / "out" / "models"
        (models / "meta.gbt").mkdir(parents=True)
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot write" in err and "meta.gbt" in err
        assert (models / "meta.gbt").is_dir()
        assert not [p.name for p in models.iterdir() if p.name.startswith(".")]

    def test_degenerate_weights_exit_2(self, tmp_path, data_csv, capsys, monkeypatch):
        # all-zero out-of-bag accuracies leave weighted_average no weights
        def all_zero(accuracies):
            raise DataError("all learner accuracies are zero")

        monkeypatch.setattr(fusion, "weights_from_accuracy", all_zero)
        config = write_config(tmp_path, data_csv)
        text = config.read_text(encoding="utf-8").replace(
            "strategies = plurality, filtered", "strategies = weighted_average, plurality")
        config.write_text(text, encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fusing: all learner accuracies are zero")

    def test_missing_output_dir(self, tmp_path, data_csv, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(f"[dataset]\npath = {data_csv}\n", encoding="utf-8")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 1
        assert "no output directory" in capsys.readouterr().err


class TestSweep:
    def test_happy_path(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        rc = cli.main(["sweep", "--config", str(config), "--max-size", "2",
                       "--out", str(tmp_path / "sw")])
        assert rc == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "size,filtered,mean_individual"
        assert len(lines) == 3
        stdout = capsys.readouterr().out
        assert "size" in stdout and "filtered" in stdout

    def test_overrides_reach_every_size(self, tmp_path, data_csv):
        # sweep writes no per-size manifest; sweep.json holds each size's
        # report, with the seed and [run] settings a manifest would record.
        config = write_config(tmp_path, data_csv)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(config), "--max-size", "2",
                         "--seed", "7", "--workers", "2", "--out", str(out)]) == 0
        reports = json.loads((out / "sweep.json").read_text(encoding="utf-8"))["reports"]
        assert [r["seed"] for r in reports] == [7, 7]
        assert [r["config"]["run"] for r in reports] == [
            {"seed": 7, "workers": 2, "output_dir": str(out / f"size_{k}")} for k in (1, 2)]

    def test_invalid_max_size(self, tmp_path, data_csv, capsys):
        config = write_config(tmp_path, data_csv)
        rc = cli.main(["sweep", "--config", str(config), "--max-size", "0"])
        assert rc == 1
        assert "max_size" in capsys.readouterr().err


FUZZ_CONFIG = """
[dataset]
path = {data}
[ensemble]
n_learners = 2
strategies = weighted_average, plurality, filtered
[boost]
rounds = 2
[mlp]
hidden_sizes = 4
epochs = 1
[run]
output_dir = {out}
"""


class TestFuzzedRun:
    @settings(FUZZ_SETTINGS, max_examples=200)
    @given(edits=FILE_EDITS)
    def test_mutated_data_file_exits_with_a_code(self, tmp_path_factory, edits):
        # every error a data file can cause maps to an exit code; none escapes
        base = tmp_path_factory.getbasetemp() / "fuzzed_run"
        base.mkdir(exist_ok=True)
        data = base / "data.csv"
        clean = save_csv(gaussian_blobs(12, 2, 2, seed=4), data).read_bytes()
        data.write_bytes(apply_edits(clean, edits))
        config = base / "exp.ini"
        config.write_text(FUZZ_CONFIG.format(data=data, out=base / "out"), encoding="utf-8")
        with wall_bound(10.0):
            rc = cli.main(["run", "--config", str(config)])
        assert rc in (0, 1, 2, 3)
