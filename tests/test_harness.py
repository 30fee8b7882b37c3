import ast
import configparser
import hashlib
import json
import math
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from votestack import (
    BoostConfig,
    ConfigError,
    DataError,
    ExperimentConfig,
    PredictionMatrix,
    RunReport,
    TrainingDivergenceError,
    VoteStackError,
    boosting,
    build_plan,
    derive_seed,
    emit_report,
    emit_sweep,
    fusion,
    gaussian_blobs,
    materialize,
    mlp,
    out_of_bag,
    run_experiment,
    save_csv,
    split,
    sweep,
)
from votestack import harness
from votestack.harness import ALL_STRATEGIES, _prepare

from conftest import (
    FILE_EDITS,
    FUZZ_SETTINGS,
    LOAD_WALL_S,
    apply_edits,
    traced_peak,
    wall_bound,
)

DESK_DATA = gaussian_blobs(400, 4, 3, seed=71)

# One value of each JSON type.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)

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
        "bd6081122217f9d09a2133297590756e256c1a6a690b5c1e7414328f59c6e3ad",
    "accuracy_table":
        "ccaf18d11043d59492d15a9361319e4c57e5ef5d616e4b63090c4cb8162c55d7",
    "decisions":
        "abce6f15f344999b8f964861c4e8ec19e0ac2be6522492f806634e5fd4f9a7af",
    "manifest":
        "117d2712a0fa1ad1059ef6a6dd20297f80552df84796425679a97f4d12c71d35",
}

# models/ of the same run with an output_dir; same numpy/OpenBLAS caveat.
GOLDEN_MODEL_DIGESTS = {
    "learner_0.mlp":
        "aa4fdfb9dfd7dc58831ffa742994822dca482b38564c6454bdb4846d5e321851",
    "learner_1.mlp":
        "1b07efb7fd2b3172a79b6918a54710ed0d860e3d8bd62f98de80c82cb1f064d7",
    "learner_2.mlp":
        "6aa11bd0e390582afe6f1df944e1dd45e8ad6ffec4a606369e9ec134996e86bb",
    "learner_3.mlp":
        "4211c3fe6ed5350ae829799e7bca587a3a65cf852550a39323a063a54d7bbd3a",
    "learner_4.mlp":
        "154012c15f2ef337f96f2404b18bde4623392770e20bf02ade7ac4ad89c2f27b",
    "meta.gbt":
        "6f27327ef015236f84cc64fc16631f2208d830e20efb979e7e451f4773258e5d",
    "filtered_meta.gbt":
        "2dd7377285a5340db6ec9032151d4e5b8912f4128170c423ad2eb4b7e96c72fe",
}


# The sweep of the small_sweep fixture (sizes 1..3); same numpy/OpenBLAS caveat.
GOLDEN_SWEEP_DIGESTS = {
    "sweep_csv":
        "10880666116a704b85e78c3fbca6bb6a320cfba9c60ecdd7ff59f0f55f6e7739",
    "sweep_json":
        "6738bb06a9f0793d07e8130ce2824a1c391c191deacb3655d71d46e0984259f9",
}

GOLDEN_SWEEP_MODEL_DIGESTS = {
    "size_1/models/learner_0.mlp":
        "7b70b1964bee332d1b165618c8615378cab5cfb553fa43d58b42a867e797571d",
    "size_2/models/learner_0.mlp":
        "e42ff985048ab293fec119549eba4cb3330dc6b901cea420ca100a5d3098fa38",
    "size_2/models/learner_1.mlp":
        "6332634acfdd43b5def3f8ae3851218a8b73f9b8f62737ebbe2fcb6472a9c429",
    "size_3/models/filtered_meta.gbt":
        "cb93cb91c1d03e8d2612d25aa8e154b323bdef8db9e0ac9e63acc31a5450500c",
    "size_3/models/learner_0.mlp":
        "1dcbd9f2586d127c3e2686c07acf3079abbfc14df34e32c608d84f1ae203de33",
    "size_3/models/learner_1.mlp":
        "ce94e1e06b2c456ddc36e497b4b3937869a7e364afd16e08fe17240613c9761c",
    "size_3/models/learner_2.mlp":
        "9e0271c57ddecface760b329cd8593f541dd28b67ede098400e4d1d6bfa67b59",
}


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
        with pytest.raises(ConfigError, match=r"\[mlp\] need at least one hidden layer"):
            ExperimentConfig(hidden_sizes=())
        with pytest.raises(ConfigError, match="n_learners"):
            ExperimentConfig(n_learners=0)

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 0, "epochs"), ("batch_size", 0, "batch_size"),
        ("learning_rate", -1.0, "learning_rate"), ("momentum", 1.5, "momentum"),
        ("hidden_sizes", (8, -4), "layer sizes"),
    ])
    def test_mlp_settings_checked_when_built(self, field, value, message):
        with pytest.raises(ConfigError, match=rf"^\[mlp\] .*{message}"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field, section", [
        ("learning_rate", "mlp"), ("momentum", "mlp"), ("train_fraction", "split"),
    ])
    def test_float_settings_must_be_finite(self, field, section, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {field}"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["learning_rate", "l2_lambda", "min_child_weight"])
    def test_boost_float_settings_must_be_finite(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be .*finite"):
            BoostConfig(**{field: value})
        with pytest.raises(ConfigError, match=rf"^\[boost\] {field} must be "):
            ExperimentConfig.from_dict({"boost": {field: value}})

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

    @pytest.mark.parametrize("section, key, value", [
        ("dataset", "delimiter", 44),
        ("ensemble", "n_learners", "3"),
        ("mlp", "hidden_sizes", 128),
        ("boost", "rounds", "5"),
        ("run", "seed", "7"),
        ("split", "stratified", "no"),
        ("ensemble", "strategies", "plurality"),
        ("ensemble", "threshold", True),
        ("mlp", "hidden_sizes", [8, 4.5]),
        ("dataset", "has_header", 0),
    ])
    def test_from_dict_rejects_mistyped_value_naming_section_and_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} must be "):
            ExperimentConfig.from_dict({section: {key: value}})

    def test_from_dict_rejects_a_section_that_is_no_table(self):
        with pytest.raises(ConfigError, match=r"^\[mlp\] must be a table"):
            ExperimentConfig.from_dict({"mlp": [1, 2]})

    def test_from_dict_takes_an_int_for_a_float(self):
        cfg = ExperimentConfig.from_dict({"mlp": {"learning_rate": 1}})
        assert cfg.learning_rate == 1 and ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_from_dict_with_one_value_of_another_json_type(self, data):
        # Only a ConfigError may escape; an accepted config round-trips.
        d = ExperimentConfig().to_dict()
        section = data.draw(st.sampled_from(sorted(d)))
        key = data.draw(st.sampled_from(sorted(d[section])))
        old = d[section][key]
        d[section][key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        try:
            cfg = ExperimentConfig.from_dict(d)
        except ConfigError:
            return
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


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

    @pytest.mark.parametrize("extra, where", [
        ("has_header = maybe\n", r"\[dataset\] has_header"),
        ("[split]\nstratified = maybe\n", r"\[split\] stratified"),
    ])
    def test_bad_boolean_names_section_and_key(self, tmp_path, extra, where):
        path = self.write(tmp_path, "[dataset]\npath = d.csv\n" + extra)
        with pytest.raises(ConfigError, match=where):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("Yes", True), ("TRUE", True), ("oN", True),
        ("0", False), ("nO", False), ("False", False), ("OFF", False),
    ])
    def test_boolean_spellings_parse_in_mixed_case(self, tmp_path, raw, value):
        path = self.write(tmp_path, f"[dataset]\npath = d.csv\nhas_header = {raw}\n"
                                    f"[split]\nstratified = {raw}\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.has_header is value and cfg.stratified is value

    def test_percent_sign_is_literal(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            self.write(tmp_path, "[dataset]\npath = data/100%.csv\n")
        )
        assert cfg.dataset_path == "data/100%.csv"

    def test_negative_label_column_stays_integer(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            self.write(tmp_path, "[dataset]\npath = d.csv\nlabel_column = -1\n")
        )
        assert cfg.label_column == -1

    @pytest.mark.parametrize("raw", [";", "#", "", ";;", r"\t"])
    def test_delimiter_must_be_one_character(self, tmp_path, raw):
        # ";" and "#" start inline comments and blanks are stripped, so the
        # first four read as an empty value; "\t" is two characters.
        path = self.write(tmp_path, f"[dataset]\npath = d.csv\ndelimiter = {raw}\n")
        with pytest.raises(ConfigError, match=r"\[dataset\] delimiter"):
            ExperimentConfig.from_file(path)

    def test_config_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file(tmp_path / "absent.ini")

    @pytest.mark.parametrize("location", [
        {"dataset_path": "data/a.csv"},
        {"train_path": "data/tr.csv", "test_path": "data/te.csv"},
    ])
    def test_every_field_round_trips_through_ini_text(self, tmp_path, location):
        cfg = ExperimentConfig(
            **location, label_column="target", delimiter="|", has_header=False,
            train_fraction=0.6, stratified=False, n_learners=5, threshold=3,
            strategies=("plurality", "filtered"), weight_mode="inverse_variance",
            level1_mode="label", hidden_sizes=(16, 8), epochs=4, batch_size=8,
            learning_rate=0.05, momentum=0.5,
            boost=BoostConfig(rounds=7, max_depth=2, learning_rate=0.2, l2_lambda=0.5,
                              min_child_weight=2.0),
            seed=5, output_dir="out/x", workers=2,
        )
        defaults = ExperimentConfig().to_dict()
        lines = []
        for section, values in cfg.to_dict().items():
            lines.append(f"[{section}]")
            for key, value in values.items():
                if value is not None:  # an unset path is left out
                    assert value != defaults[section][key], (section, key)
                    text = ", ".join(map(str, value)) if isinstance(value, list) else value
                    lines.append(f"{key} = {text}")
        assert ExperimentConfig.from_file(self.write(tmp_path, "\n".join(lines))) == cfg

    def test_readme_config_block_documents_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("A complete config file", 1)[1].split("```ini\n", 1)[1]
        block = block.split("```", 1)[0]
        ExperimentConfig.from_file(self.write(tmp_path, block))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(block)
        documented = {(s, k) for s in parser.sections() for k in parser[s]}
        documented |= {("dataset", "train_path"), ("dataset", "test_path")}
        schema = {(s, k) for s, keys in ExperimentConfig().to_dict().items() for k in keys}
        assert documented == schema

    def test_auto_spells_none_but_not_in_a_path(self, tmp_path):
        cfg = ExperimentConfig.from_file(self.write(
            tmp_path, "[dataset]\npath = auto\nhas_header = AUTO\n"
                      "[ensemble]\nthreshold = auto\n"))
        assert (cfg.dataset_path, cfg.has_header, cfg.threshold) == ("auto", None, None)

    @FUZZ_SETTINGS
    @given(edits=FILE_EDITS)
    def test_mutated_file_loads_or_raises_votestack_error(self, tmp_path_factory, edits):
        text = ("[dataset]\npath = d.csv\nlabel_column = -1\nhas_header = auto\n"
                "[ensemble]\nn_learners = 5\nstrategies = plurality, filtered\n"
                "[mlp]\nhidden_sizes = 32 16  # two layers\nlearning_rate = 0.05\n"
                "[boost]\nrounds = 12\n[run]\nseed = 99\n")
        path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
        path.write_bytes(apply_edits(text.encode(), edits))
        with wall_bound(LOAD_WALL_S):
            try:
                ExperimentConfig.from_file(path)
            except VoteStackError:
                pass


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
        _, test, _ = _prepare(config, DESK_DATA, [])
        for j in range(config.n_learners):
            model = mlp.load(out / "models" / f"learner_{j}.mlp")
            labels = np.argmax(mlp.predict_proba(model, test.features), axis=1)
            acc = float(np.mean(labels == test.labels))
            assert acc == report.per_learner_accuracies[j]

    def test_persisted_models_reproduce_average_decisions(self, desk_run):
        config, report, out = desk_run
        _, test, _ = _prepare(config, DESK_DATA, [])
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

    def test_failing_learner_cancels_queued_jobs(self, monkeypatch):
        config = replace(DESK_CONFIG, n_learners=7, epochs=1, workers=2,
                         strategies=("plurality",))
        failing_seed = config.learner_seed(0)
        calls = []
        real_train = mlp.train

        def counting_train(model, features, labels, rows=None):
            calls.append(model.config.seed)
            if model.config.seed == failing_seed:
                raise TrainingDivergenceError("diverged")
            time.sleep(0.05)
            return real_train(model, features, labels, rows)

        monkeypatch.setattr(mlp, "train", counting_train)
        with pytest.raises(TrainingDivergenceError, match="training learner 0"):
            run_experiment(config, dataset=DESK_DATA)
        assert len(calls) <= config.workers + 1

    def test_learners_train_on_the_one_read_only_block_through_their_rows(self,
                                                                         monkeypatch):
        config = replace(DESK_CONFIG, n_learners=4, epochs=1, strategies=("plurality",))
        seen = []
        real_train = mlp.train

        def recording_train(model, features, labels, rows=None):
            seen.append((features, labels, rows))
            return real_train(model, features, labels, rows)

        monkeypatch.setattr(mlp, "train", recording_train)
        run_experiment(config, dataset=DESK_DATA)
        features, labels, _ = seen[0]
        assert not features.flags.writeable and not labels.flags.writeable
        plan = build_plan(len(features), config.n_learners, config.seed)
        for j, (f, y, rows) in enumerate(seen):
            assert f is features and y is labels
            np.testing.assert_array_equal(rows, materialize(plan, j))

    def test_report_json_round_trip(self, desk_run):
        _, report, _ = desk_run
        back = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back == report

    def test_peak_memory_holds_one_trained_model_at_a_time(self):
        # Five models alive together would put the peak near 8.5x one model.
        data = gaussian_blobs(600, 8, 2, seed=3)
        config = ExperimentConfig(n_learners=5, hidden_sizes=(400, 300), epochs=1,
                                  batch_size=64, strategies=("plurality",))
        model = mlp.init(config.mlp_config(8, 2, 0))
        param_bytes = sum(p.nbytes for p in model.weights + model.biases)
        del model
        run_experiment(config, dataset=data)  # untraced, so set-up is not counted
        tracemalloc.start()
        try:
            run_experiment(config, dataset=data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * param_bytes, f"peak {peak / param_bytes:.2f}x parameter bytes"

    def test_prediction_tensors_are_stacked_once(self):
        # The jobs' blocks, one stacked copy per tensor and its row-sum checks
        # peak near 2.6x the train and test tensors; stacking them before
        # PredictionMatrix copies the stack again, about 3.4x.
        data = gaussian_blobs(3000, 4, 3, seed=5)
        config = ExperimentConfig(n_learners=7, hidden_sizes=(4,), epochs=1, batch_size=512,
                                  strategies=("plurality",))
        train, test, _ = _prepare(config, data, [])
        plan = build_plan(train.n_samples, 7, config.seed)
        tensors = 7 * (train.n_samples + test.n_samples) * 3 * 8
        peak = traced_peak(harness._learner_predictions, config, train, test, plan, None, [])
        assert peak < 3 * tensors, f"peak {peak / tensors:.2f}x the probability tensors"

    def test_single_learner_plurality_equals_learner_accuracy(self):
        config = replace(DESK_CONFIG, n_learners=1,
                         strategies=("plurality", "filtered"))
        report = run_experiment(config, dataset=DESK_DATA)
        assert report.plan_manifest is None
        assert report.threshold == 1
        assert report.strategy_accuracies["plurality"] == report.per_learner_accuracies[0]
        assert report.strategy_accuracies["filtered"] == report.strategy_accuracies["plurality"]

    def test_single_learner_weighted_average_equals_plurality(self):
        # One learner trains on every row, with no plan, so its weight is 1.
        config = replace(DESK_CONFIG, n_learners=1,
                         strategies=("weighted_average", "plurality"))
        report = run_experiment(config, dataset=DESK_DATA)
        assert report.decisions["weighted_average"] == report.decisions["plurality"]
        assert (report.strategy_accuracies["weighted_average"]
                == report.per_learner_accuracies[0])

    def test_in_memory_label_and_variance_weights(self):
        config = replace(DESK_CONFIG, epochs=1, n_learners=2,
                         strategies=("weighted_average", "plurality"),
                         weight_mode="inverse_variance")
        report = run_experiment(config, dataset=DESK_DATA)
        assert report.dataset_label == "in-memory"
        assert 0.0 <= report.strategy_accuracies["weighted_average"] <= 1.0

    @pytest.mark.parametrize("weight_mode", ["accuracy", "inverse_variance"])
    def test_learner_weights_match_one_hot_statistics(self, rng, weight_mode):
        # Reference statistics: out-of-bag accuracy, and the mean squared error
        # against np.eye one-hot labels; the weights must match them bit for bit.
        config = replace(DESK_CONFIG, weight_mode=weight_mode)
        n, S, C = config.n_learners, 300, 4
        pm = PredictionMatrix(rng.dirichlet(np.ones(C), size=(n, S)))
        labels = rng.integers(0, C, S)
        plan = build_plan(S, n, config.seed)
        accs, variances = np.empty(n), np.empty(n)
        for j in range(n):
            oob = out_of_bag(plan, j)
            probs, y = pm.probs[j, oob], labels[oob]
            accs[j] = np.mean(np.argmax(probs, axis=1) == y)
            variances[j] = np.mean((probs - np.eye(C)[y]) ** 2)
        want = (fusion.weights_from_accuracy(accs) if weight_mode == "accuracy"
                else fusion.weights_from_inverse_variance(variances))
        got = harness._learner_weights(config, plan, pm, labels)
        assert got.values.tobytes() == want.values.tobytes()

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
        train, test = split(DESK_DATA, 0.8, True, 1)
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
        train, test = split(DESK_DATA, 0.8, True, 1)
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
            _, test, _ = _prepare(sub, DESK_DATA, [])
            accs = []
            for j in range(size):
                model = mlp.load(out / f"size_{size}" / "models" / f"learner_{j}.mlp")
                labels = np.argmax(mlp.predict_proba(model, test.features), axis=1)
                accs.append(float(np.mean(labels == test.labels)))
            assert sum(accs) / size == pytest.approx(run.mean_accuracy, abs=1e-12)

    def test_sweep_json_round_trip(self, small_sweep):
        _, report, _ = small_sweep
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_invalid_max_size(self):
        with pytest.raises(ConfigError, match="max_size"):
            sweep(DESK_CONFIG, max_size=0, dataset=DESK_DATA)

    def test_data_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        save_csv(DESK_DATA, tmp_path / "blobs.csv")
        calls = []
        real_load_csv = harness.load_csv

        def counting_load_csv(*args, **kwargs):
            calls.append(args)
            return real_load_csv(*args, **kwargs)

        monkeypatch.setattr(harness, "load_csv", counting_load_csv)
        config = replace(DESK_CONFIG, epochs=1, strategies=("plurality",),
                         dataset_path=str(tmp_path / "blobs.csv"))
        t0 = time.perf_counter()
        report = sweep(config, max_size=3)
        wall = time.perf_counter() - t0
        assert len(calls) == 1
        assert [r.dataset_label for r in report.reports] == ["blobs"] * 3
        total = sum(r.timings["total_seconds"] for r in report.reports)
        assert 0.8 * wall <= total <= wall


def run_stages(n_learners, *stacking):
    """The timing keys of a run on in-memory data that stacks `stacking`."""
    return {"loading data", "normalizing", "planning resamples", "predicting", "fusing",
            *(f"training learner {j}" for j in range(n_learners)),
            *(f"stacking {name}" for name in stacking), "total_seconds"}


class TestStageTimings:
    def test_keys_are_the_stages_the_run_passed_through(self, desk_run):
        config, report, _ = desk_run
        assert set(report.timings) == run_stages(config.n_learners, "meta", "filtered")

    def test_workers_keep_the_stages_and_learners_fit_in_the_total(self):
        config = replace(DESK_CONFIG, n_learners=3, epochs=1,
                         strategies=("plurality", "filtered"))
        serial = run_experiment(config, dataset=DESK_DATA).timings
        threaded = run_experiment(replace(config, workers=2), dataset=DESK_DATA).timings
        assert set(serial) == set(threaded) == run_stages(3, "filtered")
        assert min(serial.values()) >= 0 and min(threaded.values()) >= 0
        learners = sum(serial[f"training learner {j}"] for j in range(3))
        assert learners <= serial["total_seconds"]

    def test_sweep_size_one_holds_the_shared_preparation(self, small_sweep):
        _, report, _ = small_sweep
        for size, run in enumerate(report.reports, 1):
            expected = run_stages(size, "filtered")
            if size > 1:
                expected -= {"loading data", "normalizing"}
            assert set(run.timings) == expected

    def test_stacking_error_names_its_stage(self, monkeypatch):
        def broken(*args):
            raise DataError("no level-1 columns")

        monkeypatch.setattr(fusion, "fit_filtered", broken)
        config = replace(DESK_CONFIG, n_learners=2, epochs=1,
                         strategies=("plurality", "filtered"))
        with pytest.raises(DataError, match="^stacking filtered: no level-1 columns$"):
            run_experiment(config, dataset=DESK_DATA)

    def test_perf_counter_is_read_only_inside_stage(self):
        # One timing mechanism: a hand-placed mark elsewhere in the harness fails here.
        tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
        stage = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_stage")
        inside = {id(node) for node in ast.walk(stage)}
        marks = [node for node in ast.walk(tree)
                 if "perf_counter" in (getattr(node, "attr", None), getattr(node, "id", None))
                 or isinstance(node, ast.alias) and node.name == "perf_counter"]
        assert marks
        assert [node.lineno for node in marks if id(node) not in inside] == []


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

    def test_golden_model_digests(self, desk_run):
        _, _, out = desk_run
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out / "models").iterdir()}
        assert digests == GOLDEN_MODEL_DIGESTS

    def test_golden_sweep_digests(self, small_sweep, tmp_path):
        """Pin sweep.csv, sweep.json and every size_<k>/models file.

        As for the run digests, output_dir is unset for the emitted sweep
        (its path enters sweep.json) and every report's timings are zeroed.
        """
        config, _, out = small_sweep
        report = sweep(replace(config, output_dir=None), max_size=3, dataset=DESK_DATA)
        report = replace(report, reports=tuple(
            replace(r, timings={k: 0.0 for k in r.timings}) for r in report.reports))
        paths = emit_sweep(report, tmp_path)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == GOLDEN_SWEEP_DIGESTS
        models = {path.relative_to(out).as_posix():
                  hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in out.glob("size_*/models/*")}
        assert models == GOLDEN_SWEEP_MODEL_DIGESTS

    def test_unused_strategy_columns_left_empty(self, tmp_path):
        config = replace(DESK_CONFIG, epochs=1, n_learners=2,
                         strategies=("average",))
        report = run_experiment(config, dataset=DESK_DATA)
        paths = emit_report(report, tmp_path)
        lines = paths["accuracy_table"].read_text(encoding="utf-8").splitlines()
        assert lines[1] == "in-memory,,,"

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
        assert loaded == report.to_dict()

    def test_unwritable_directory_is_config_error(self, desk_run, tmp_path):
        _, report, _ = desk_run
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot write"):
            emit_report(report, blocker / "sub")
