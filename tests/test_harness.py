import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from votestack import (
    BoostConfig,
    ConfigError,
    DataError,
    ExperimentConfig,
    RunReport,
    SplitSpec,
    SweepReport,
    apply_normalizer,
    boosting,
    build_plan,
    derive_seed,
    emit_report,
    emit_sweep,
    fit_normalizer,
    gaussian_blobs,
    mlp,
    run_experiment,
    save_csv,
    split,
    sweep,
)
from votestack.harness import ALL_STRATEGIES, SweepRow

DESK_DATA = gaussian_blobs(400, 4, 3, seed=71)

DESK_CONFIG = ExperimentConfig(
    n_learners=5,
    hidden_sizes=(16, 8),
    epochs=5,
    batch_size=64,
    learning_rate=0.05,
    boost=BoostConfig(rounds=8, max_depth=3),
    seed=3,
)


GOLDEN_DIGESTS = {
    "report":
        "3ff6b94cb22d04bf55d4a682abef8746b8c74668cec0024e59e57abd60ed17eb",
    "accuracy_table":
        "ccaf18d11043d59492d15a9361319e4c57e5ef5d616e4b63090c4cb8162c55d7",
    "decisions":
        "abce6f15f344999b8f964861c4e8ec19e0ac2be6522492f806634e5fd4f9a7af",
    "manifest":
        "117d2712a0fa1ad1059ef6a6dd20297f80552df84796425679a97f4d12c71d35",
}


def replicate_split(config, dataset):
    """The same train/test views run_experiment derives from an in-memory set."""
    spec = SplitSpec(config.train_fraction, config.stratified,
                     seed=derive_seed(config.seed, "split"))
    train, test = split(dataset, spec)
    norm = fit_normalizer(train)
    return apply_normalizer(norm, train), apply_normalizer(norm, test)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    config = replace(DESK_CONFIG, output_dir=str(out))
    report = run_experiment(config, dataset=DESK_DATA)
    return config, report, out


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_learners == 7
        assert cfg.strategies == ALL_STRATEGIES
        assert cfg.effective_threshold == 6
        assert cfg.hidden_sizes == (1200, 800)
        assert cfg.epochs == 25

    def test_explicit_threshold_respected(self):
        assert ExperimentConfig(threshold=3).effective_threshold == 3

    def test_single_learner_threshold_floors_at_one(self):
        assert ExperimentConfig(n_learners=1).effective_threshold == 1

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig(n_learners=5, threshold=0)
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig(n_learners=5, threshold=6)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            ExperimentConfig(strategies=("plurality", "borda"))

    def test_strategies_deduped_into_canonical_order(self):
        cfg = ExperimentConfig(strategies=("filtered", "plurality", "plurality"))
        assert cfg.strategies == ("plurality", "filtered")

    def test_empty_strategies_rejected(self):
        with pytest.raises(ConfigError, match="strategies"):
            ExperimentConfig(strategies=())

    def test_path_pairing_rules(self):
        with pytest.raises(ConfigError, match="together"):
            ExperimentConfig(train_path="a.csv")
        with pytest.raises(ConfigError, match="not both"):
            ExperimentConfig(dataset_path="d.csv", train_path="a.csv",
                             test_path="b.csv")

    def test_other_validation(self):
        with pytest.raises(ConfigError, match="weight_mode"):
            ExperimentConfig(weight_mode="entropy")
        with pytest.raises(ConfigError, match="level1_mode"):
            ExperimentConfig(level1_mode="margins")
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig(workers=0)
        with pytest.raises(ConfigError, match="train_fraction"):
            ExperimentConfig(train_fraction=1.0)
        with pytest.raises(ConfigError, match="hidden_sizes"):
            ExperimentConfig(hidden_sizes=())
        with pytest.raises(ConfigError, match="n_learners"):
            ExperimentConfig(n_learners=0)

    def test_learner_seeds_are_stable_hashes(self):
        cfg = ExperimentConfig(seed=42)
        assert cfg.learner_seed(3) == derive_seed(42, "learner", 3)
        seeds = [cfg.learner_seed(j) for j in range(7)]
        assert len(set(seeds)) == 7
        assert seeds == [ExperimentConfig(seed=42).learner_seed(j) for j in range(7)]

    def test_mlp_config_assembly(self):
        cfg = ExperimentConfig(hidden_sizes=(32, 16), epochs=9, batch_size=17,
                               learning_rate=0.02, momentum=0.8)
        m = cfg.mlp_config(12, 4, seed=77)
        assert m.layer_sizes == (12, 32, 16, 4)
        assert (m.epochs, m.batch_size) == (9, 17)
        assert (m.learning_rate, m.momentum, m.seed) == (0.02, 0.8, 77)

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            dataset_path="d.csv", label_column="y", n_learners=4, threshold=2,
            strategies=("plurality", "filtered"), weight_mode="inverse_variance",
            hidden_sizes=(10, 5), epochs=3, boost=BoostConfig(rounds=9),
            seed=13, output_dir="out", workers=2,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("section", ["ensemble", "boost"])
    def test_from_dict_rejects_unknown_key_naming_section(self, section):
        # A [boost] seed is what manifests written before its removal carry.
        d = ExperimentConfig().to_dict()
        d[section]["seed"] = 1
        with pytest.raises(ConfigError, match=rf"unknown key 'seed' in section \[{section}\]"):
            ExperimentConfig.from_dict(d)

    def test_from_dict_rejects_unknown_section(self):
        d = {**ExperimentConfig().to_dict(), "extra": {"x": 1}}
        with pytest.raises(ConfigError, match=r"unknown config section \[extra\]"):
            ExperimentConfig.from_dict(d)


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.ini"
        path.write_text(text, encoding="utf-8")
        return path

    def test_full_file_parses(self, tmp_path):
        path = self.write(tmp_path, """
[dataset]
path = data/spam.csv
label_column = label
delimiter = ,
has_header = auto

[split]
train_fraction = 0.75
stratified = yes

[ensemble]
n_learners = 5
threshold = 4
strategies = plurality, filtered
weight_mode = inverse_variance
level1_mode = label

[mlp]
hidden_sizes = 32 16
epochs = 3          # keep the smoke run quick
batch_size = 16
learning_rate = 0.05
momentum = 0.8

[boost]
rounds = 12
max_depth = 2

[run]
seed = 99
output_dir = out/spam
workers = 2
""")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.dataset_path == "data/spam.csv"
        assert cfg.label_column == "label"
        assert cfg.has_header is None
        assert cfg.train_fraction == 0.75
        assert cfg.n_learners == 5
        assert cfg.threshold == 4
        assert cfg.strategies == ("plurality", "filtered")
        assert cfg.weight_mode == "inverse_variance"
        assert cfg.level1_mode == "label"
        assert cfg.hidden_sizes == (32, 16)
        assert cfg.epochs == 3
        assert cfg.boost.rounds == 12
        assert cfg.boost.max_depth == 2
        assert cfg.boost.l2_lambda == 1.0
        assert cfg.seed == 99
        assert cfg.output_dir == "out/spam"
        assert cfg.workers == 2

    def test_minimal_file_gets_defaults(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            self.write(tmp_path, "[dataset]\npath = d.csv\n")
        )
        assert cfg.n_learners == 7
        assert cfg.strategies == ALL_STRATEGIES
        assert cfg.label_column == -1

    def test_unknown_section_rejected(self, tmp_path):
        path = self.write(tmp_path, "[dataset]\npath = d.csv\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[extra\]"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "[dataset]\npath = d.csv\nlabelcol = 3\n")
        with pytest.raises(ConfigError, match="unknown key 'labelcol'"):
            ExperimentConfig.from_file(path)

    def test_missing_dataset_location_rejected(self, tmp_path):
        path = self.write(tmp_path, "[run]\nseed = 1\n")
        with pytest.raises(ConfigError, match="missing dataset location"):
            ExperimentConfig.from_file(path)

    def test_unparsable_value_names_section_and_key(self, tmp_path):
        path = self.write(tmp_path, "[dataset]\npath = d.csv\n[mlp]\nepochs = many\n")
        with pytest.raises(ConfigError, match=r"\[mlp\] epochs"):
            ExperimentConfig.from_file(path)

    def test_negative_label_column_stays_integer(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            self.write(tmp_path, "[dataset]\npath = d.csv\nlabel_column = -1\n")
        )
        assert cfg.label_column == -1

    def test_config_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file(tmp_path / "absent.ini")


class TestRunExperiment:
    def test_report_invariants(self, desk_run):
        config, report, _ = desk_run
        assert report.dataset_label == "in-memory"
        assert report.n_learners == 5
        assert report.threshold == 4
        assert report.n_train + report.n_test == 400
        assert len(report.per_learner_accuracies) == 5
        assert all(0.0 <= a <= 1.0 for a in report.per_learner_accuracies)
        assert report.mean_accuracy == pytest.approx(
            sum(report.per_learner_accuracies) / 5, abs=1e-12
        )
        assert tuple(report.strategy_accuracies) == ALL_STRATEGIES
        for name, decisions in report.decisions.items():
            assert len(decisions) == report.n_test
        assert sum(report.route_counts.values()) == report.n_test
        assert report.learner_seeds == tuple(config.learner_seed(j) for j in range(5))

    def test_plan_manifest_reconstructs(self, desk_run):
        _, report, _ = desk_run
        manifest = report.plan_manifest
        plan = build_plan(manifest["train_size"], manifest["n_learners"], manifest["seed"])
        assert plan.to_manifest() == manifest
        assert plan.permutation.size == report.n_train
        assert plan.n_learners == report.n_learners

    def test_majority_rejections_consistent(self, desk_run):
        _, report, _ = desk_run
        rejected = sum(1 for d in report.decisions["majority"] if d == -1)
        assert report.rejected_count == rejected

    def test_persisted_models_reproduce_reported_accuracies(self, desk_run):
        config, report, out = desk_run
        _, test = replicate_split(config, DESK_DATA)
        for j in range(config.n_learners):
            model = mlp.load(out / "models" / f"learner_{j}.mlp")
            labels = np.argmax(mlp.predict_proba(model, test.features), axis=1)
            acc = float(np.mean(labels == test.labels))
            assert acc == report.per_learner_accuracies[j]

    def test_persisted_models_reproduce_average_decisions(self, desk_run):
        config, report, out = desk_run
        _, test = replicate_split(config, DESK_DATA)
        probs = np.stack([
            mlp.predict_proba(mlp.load(out / "models" / f"learner_{j}.mlp"),
                              test.features)
            for j in range(config.n_learners)
        ])
        expected = np.argmax(probs.mean(axis=0), axis=1)
        np.testing.assert_array_equal(np.array(report.decisions["average"]), expected)

    def test_meta_models_persisted(self, desk_run):
        _, report, out = desk_run
        assert (out / "models" / "meta.gbt").exists()
        assert (out / "models" / "filtered_meta.gbt").exists()
        meta = boosting.load(out / "models" / "meta.gbt")
        assert meta.n_features == 5 * 3
        assert meta.n_classes == 3

    def test_filtered_route_tags_respect_threshold(self, desk_run):
        _, report, _ = desk_run
        routes = report.routes["filtered"]
        assert len(routes) == report.n_test
        assert set(routes) <= {"confident-vote", "meta-learner", "fallback"}
        counts = report.route_counts
        assert counts["confident-vote"] == sum(1 for r in routes if r == "confident-vote")

    def test_deterministic_repeat(self, desk_run):
        config, report, _ = desk_run
        again = run_experiment(replace(config, output_dir=None), dataset=DESK_DATA)
        a = report.to_dict()
        b = again.to_dict()
        a.pop("timings")
        b.pop("timings")
        a["config"]["run"].pop("output_dir")
        b["config"]["run"].pop("output_dir")
        assert a == b

    def test_parallel_training_changes_nothing(self, desk_run):
        config, report, _ = desk_run
        parallel = run_experiment(
            replace(config, output_dir=None, workers=4), dataset=DESK_DATA
        )
        a = report.to_dict()
        b = parallel.to_dict()
        for d in (a, b):
            d.pop("timings")
            d["config"]["run"].pop("workers")
            d["config"]["run"].pop("output_dir")
        assert a == b

    def test_report_json_round_trip(self, desk_run):
        _, report, _ = desk_run
        back = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back == report

    def test_single_learner_plurality_equals_learner_accuracy(self):
        config = replace(DESK_CONFIG, n_learners=1,
                         strategies=("plurality", "filtered"))
        report = run_experiment(config, dataset=DESK_DATA)
        assert report.plan_manifest is None
        assert report.threshold == 1
        assert report.strategy_accuracies["plurality"] == report.per_learner_accuracies[0]
        assert report.strategy_accuracies["filtered"] == report.strategy_accuracies["plurality"]

    def test_dataset_label_override_and_variance_weights(self):
        config = replace(DESK_CONFIG, epochs=1, n_learners=2,
                         strategies=("weighted_average", "plurality"),
                         weight_mode="inverse_variance")
        report = run_experiment(config, dataset=DESK_DATA, dataset_label="blobs")
        assert report.dataset_label == "blobs"
        assert 0.0 <= report.strategy_accuracies["weighted_average"] <= 1.0

    def test_desk_scale_filtered_beats_mean_individual(self):
        # two-class blob benchmark at reading-desk scale
        data = gaussian_blobs(1000, 8, 2, seed=5)
        config = ExperimentConfig(
            hidden_sizes=(32, 16), epochs=10, batch_size=128, learning_rate=0.05,
            strategies=("plurality", "filtered"), seed=0,
        )
        report = run_experiment(config, dataset=data)
        assert report.strategy_accuracies["filtered"] >= report.mean_accuracy

    def test_dataset_path_loading(self, tmp_path):
        save_csv(DESK_DATA, tmp_path / "blobs.csv")
        config = replace(DESK_CONFIG, epochs=2, n_learners=2,
                         strategies=("plurality",),
                         dataset_path=str(tmp_path / "blobs.csv"))
        report = run_experiment(config)
        assert report.dataset_label == "blobs"
        assert report.n_train + report.n_test == 400

    def test_predefined_train_test_paths(self, tmp_path):
        train, test = split(DESK_DATA, SplitSpec(seed=1))
        save_csv(train, tmp_path / "tr.csv")
        save_csv(test, tmp_path / "te.csv")
        config = replace(DESK_CONFIG, epochs=2, n_learners=2,
                         strategies=("plurality",),
                         train_path=str(tmp_path / "tr.csv"),
                         test_path=str(tmp_path / "te.csv"))
        report = run_experiment(config)
        assert report.dataset_label == "tr"
        assert report.n_train == train.n_samples
        assert report.n_test == test.n_samples

    def test_train_test_feature_mismatch_rejected(self, tmp_path):
        train, test = split(DESK_DATA, SplitSpec(seed=1))
        save_csv(train, tmp_path / "tr.csv")
        wider = np.column_stack([test.features, test.labels.astype(float)])
        lines = [",".join(repr(float(v)) for v in row) + f",c{y}"
                 for row, y in zip(wider, test.labels)]
        (tmp_path / "te.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = replace(DESK_CONFIG, epochs=1, n_learners=2,
                         strategies=("plurality",),
                         train_path=str(tmp_path / "tr.csv"),
                         test_path=str(tmp_path / "te.csv"))
        with pytest.raises(DataError, match="features"):
            run_experiment(config)

    def test_missing_dataset_file_fails_with_stage_context(self, tmp_path):
        config = replace(DESK_CONFIG, dataset_path=str(tmp_path / "absent.csv"))
        with pytest.raises(DataError, match="loading data"):
            run_experiment(config)

    def test_no_dataset_anywhere_is_config_error(self):
        with pytest.raises(ConfigError, match="missing dataset location"):
            run_experiment(DESK_CONFIG)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = replace(DESK_CONFIG, epochs=3, strategies=("plurality",),
                     output_dir=str(out))
    report = sweep(config, max_size=3, dataset=DESK_DATA)
    return config, report, out


class TestSweep:
    def test_row_structure(self, small_sweep):
        _, report, _ = small_sweep
        assert [r.size for r in report.rows] == [1, 2, 3]
        assert len(report.reports) == 3
        for row, run in zip(report.rows, report.reports):
            assert run.n_learners == row.size
            assert run.threshold == max(1, row.size - 1)
            assert row.filtered_accuracy == run.strategy_accuracies["filtered"]
            assert row.mean_individual_accuracy == run.mean_accuracy

    def test_filtered_strategy_forced_alongside_requested(self, small_sweep):
        _, report, _ = small_sweep
        for run in report.reports:
            assert "plurality" in run.strategy_accuracies
            assert "filtered" in run.strategy_accuracies

    def test_per_size_output_directories(self, small_sweep):
        _, report, out = small_sweep
        for size in (1, 2, 3):
            for j in range(size):
                assert (out / f"size_{size}" / "models" / f"learner_{j}.mlp").exists()

    def test_mean_accuracy_recomputable_from_persisted_models(self, small_sweep):
        config, report, out = small_sweep
        for size, run in zip((1, 2, 3), report.reports):
            sub = replace(config, n_learners=size, threshold=None)
            _, test = replicate_split(sub, DESK_DATA)
            accs = []
            for j in range(size):
                model = mlp.load(out / f"size_{size}" / "models" / f"learner_{j}.mlp")
                labels = np.argmax(mlp.predict_proba(model, test.features), axis=1)
                accs.append(float(np.mean(labels == test.labels)))
            assert sum(accs) / size == pytest.approx(run.mean_accuracy, abs=1e-12)

    def test_sweep_json_round_trip(self, small_sweep):
        _, report, _ = small_sweep
        back = SweepReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back == report

    def test_invalid_max_size(self):
        with pytest.raises(ConfigError, match="max_size"):
            sweep(DESK_CONFIG, max_size=0, dataset=DESK_DATA)

    def test_sizes_must_increase(self):
        row = SweepRow(size=2, filtered_accuracy=0.5, mean_individual_accuracy=0.5)
        with pytest.raises(ConfigError, match="increasing"):
            SweepReport(seed=0, rows=(row, row), reports=())


class TestEmit:
    def test_report_artifacts(self, desk_run, tmp_path):
        _, report, _ = desk_run
        paths = emit_report(report, tmp_path / "artifacts")
        assert sorted(paths) == ["accuracy_table", "decisions", "manifest", "report"]
        for p in paths.values():
            assert p.exists()

        loaded = json.loads(paths["report"].read_text(encoding="utf-8"))
        assert RunReport.from_dict(loaded) == report

        lines = paths["accuracy_table"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dataset,plurality,meta,filtered"
        cells = lines[1].split(",")
        assert cells[0] == report.dataset_label
        assert float(cells[1]) == report.strategy_accuracies["plurality"]
        assert float(cells[2]) == report.strategy_accuracies["meta"]
        assert float(cells[3]) == report.strategy_accuracies["filtered"]

        decision_lines = paths["decisions"].read_text(encoding="utf-8").splitlines()
        assert decision_lines[0] == "strategy,sample_id,decision,route"
        assert len(decision_lines) == 1 + len(ALL_STRATEGIES) * report.n_test

        manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
        assert manifest["seed"] == report.seed
        assert manifest["learner_seeds"] == list(report.learner_seeds)
        assert manifest["plan"] == report.plan_manifest
        assert manifest["config"] == report.config
        assert manifest["tool"] == "votestack"

    def test_golden_artifact_digests(self, tmp_path):
        """Pin the exact bytes of every run artifact for one fixed config.

        The run keeps output_dir unset and its timings are zeroed, because
        both would otherwise enter the bytes. The digests are tied to the
        numpy/OpenBLAS build they were recorded with (numpy 2.4.6, OpenBLAS
        0.3.31, x86-64): another BLAS may round differently and change them.
        """
        report = run_experiment(DESK_CONFIG, dataset=DESK_DATA)
        report = replace(report, timings={k: 0.0 for k in report.timings})
        paths = emit_report(report, tmp_path)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == GOLDEN_DIGESTS

    def test_unused_strategy_columns_left_empty(self, tmp_path):
        config = replace(DESK_CONFIG, epochs=1, n_learners=2,
                         strategies=("average",))
        report = run_experiment(config, dataset=DESK_DATA, dataset_label="mini")
        paths = emit_report(report, tmp_path)
        lines = paths["accuracy_table"].read_text(encoding="utf-8").splitlines()
        assert lines[1] == "mini,,,"

    def test_sweep_artifacts(self, tmp_path):
        config = replace(DESK_CONFIG, epochs=1, n_learners=2,
                         strategies=("plurality",))
        report = sweep(config, max_size=2, dataset=DESK_DATA)
        paths = emit_sweep(report, tmp_path)
        lines = paths["sweep_csv"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "size,filtered,mean_individual"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")
        loaded = json.loads(paths["sweep_json"].read_text(encoding="utf-8"))
        assert SweepReport.from_dict(loaded) == report

    def test_unwritable_directory_is_config_error(self, desk_run, tmp_path):
        _, report, _ = desk_run
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot write"):
            emit_report(report, blocker / "sub")
