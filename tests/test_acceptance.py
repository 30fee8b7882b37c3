"""End-to-end acceptance checks for the released toolkit.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
suite output doubles as a sign-off sheet. Heavy fixtures are shared at
module scope; the optional real-dataset check is skipped unless the
SPAMBASE_CSV environment variable points at a local copy.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from votestack import (
    BoostConfig,
    ExperimentConfig,
    PredictionMatrix,
    REJECTED,
    boosting,
    child_rng,
    fusion,
    gaussian_blobs,
    mlp,
    run_experiment,
    save_csv,
    sweep,
)

from conftest import mlp_loss

BENCH_SEEDS = (0, 1, 2, 3, 4)


def announce(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\nacceptance {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")


def bench_config(seed, **overrides):
    base = dict(
        n_learners=7,
        hidden_sizes=(128, 64),
        epochs=25,
        batch_size=512,
        learning_rate=0.01,
        strategies=("plurality", "filtered"),
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def bench_data():
    return gaussian_blobs(3000, 20, 3, seed=101)


@pytest.fixture(scope="module")
def bench_reports(bench_data):
    t0 = time.perf_counter()
    reports = [run_experiment(bench_config(s), dataset=bench_data)
               for s in BENCH_SEEDS]
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_sweeps(bench_data):
    return [sweep(bench_config(s), max_size=8, dataset=bench_data)
            for s in BENCH_SEEDS]


def test_01_ensemble_variance_ratio_near_one_over_n(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    outputs = rng.normal(size=(7, 10_000))
    ratio = outputs.mean(axis=0).var() / outputs.var(axis=1).mean()
    elapsed = time.perf_counter() - t0
    lo, hi = (1 / 7) * 0.85, (1 / 7) * 1.15
    ok = lo <= ratio <= hi and elapsed < 5.0
    announce(capsys, 1, "variance ratio near 1/n for 7 learners", ok)
    assert lo <= ratio <= hi, f"ratio {ratio} outside [{lo}, {hi}]"
    assert elapsed < 5.0


def test_02_analytic_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = child_rng(11, "grad-check")
    config = mlp.MlpConfig(layer_sizes=(4, 2, 3, 2), seed=11)
    step = 1e-5
    # redraw until no hidden pre-activation sits within finite-difference
    # reach of a rectifier kink, where the loss is not differentiable
    for _ in range(16):
        model = mlp.init(config)
        for b in model.biases:
            b[:] = rng.normal(scale=0.5, size=b.shape)
        X = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        pre, _, _ = mlp._forward_cached(model, X)
        if min(np.abs(z).min() for z in pre[:-1]) > 1e-3:
            break
    grad_w, grad_b = mlp.gradients(model, X, y)
    worst = 0.0
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi_loss = mlp_loss(model, X, y)
                flat[i] = keep - step
                lo_loss = mlp_loss(model, X, y)
                flat[i] = keep
                numeric = (hi_loss - lo_loss) / (2 * step)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    announce(capsys, 2, "analytic gradients vs central differences", ok)
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 5.0


def test_03_voting_rules_match_brute_force_everywhere(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 6):
        for c in range(2, 4):
            combos = list(itertools.product(range(c), repeat=n))
            probs = np.zeros((n, len(combos), c))
            for k, votes in enumerate(combos):
                for j, v in enumerate(votes):
                    probs[j, k, v] = 1.0
            pm = PredictionMatrix(probs)
            plurality = fusion.plurality_vote(pm).decisions
            majority = fusion.majority_vote(pm).decisions
            for k, votes in enumerate(combos):
                counts = Counter(votes)
                best = max(counts.values())
                expected = min(l for l, cnt in counts.items() if cnt == best)
                if plurality[k] != expected:
                    mismatches += 1
                if majority[k] != (expected if best * 2 > n else REJECTED):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    announce(capsys, 3, "vote fusion vs exhaustive counting, n<=5 C<=3", ok)
    assert mismatches == 0
    assert elapsed < 5.0


def test_04_confident_samples_never_reach_meta_learner(capsys):
    rng = np.random.default_rng(7)
    boost = BoostConfig(rounds=2, max_depth=2)
    violations = 0
    for _ in range(1000):
        c = int(rng.integers(2, 5))
        s_train = int(rng.integers(24, 31))
        pm_train = PredictionMatrix(rng.dirichlet(np.ones(c), size=(7, s_train)))
        pm_test = PredictionMatrix(rng.dirichlet(np.ones(c), size=(7, 10)))
        labels = rng.integers(0, c, size=s_train)

        fitted = fusion.fit_filtered(pm_train, labels, boost, threshold=6)
        outcome = fusion.apply_filtered(fitted, pm_test)
        votes = pm_test.votes()
        for i in range(10):
            top = np.bincount(votes[:, i], minlength=c).max()
            if top >= 6 and fusion.ROUTES[outcome.routes[i]] == fusion.ROUTE_META:
                violations += 1

        relaxed = fusion.fit_filtered(pm_train, labels, boost, threshold=1)
        filtered = fusion.apply_filtered(relaxed, pm_test).decisions
        plain = fusion.plurality_vote(pm_test).decisions
        if not np.array_equal(filtered, plain):
            violations += 1
    ok = violations == 0
    announce(capsys, 4, "near-unanimous samples bypass the meta-learner", ok)
    assert violations == 0


def test_05_boosting_solves_xor_and_never_raises_training_loss(capsys):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    model = boosting.fit(
        X, y, BoostConfig(rounds=20, max_depth=2, min_child_weight=0.0))
    xor_acc = float(np.mean(boosting.predict_label(model, X) == y))

    blob = gaussian_blobs(120, 4, 3, seed=3)
    multi = boosting.fit(blob.features, blob.labels,
                         BoostConfig(rounds=30, max_depth=3))
    trace = multi.loss_trace
    monotone = all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    ok = xor_acc == 1.0 and monotone
    announce(capsys, 5, "depth-2 trees solve XOR; training loss monotone", ok)
    assert xor_acc == 1.0
    assert monotone


def test_06_filtered_fusion_beats_mean_learner_on_benchmark(
        capsys, bench_reports):
    reports, elapsed = bench_reports
    wins = sum(1 for r in reports
               if r.strategy_accuracies["filtered"] >= r.mean_accuracy)
    ok = wins >= 4 and elapsed < 180.0
    announce(
        capsys, 6,
        f"filtered >= mean learner in {wins}/5 seeds, {elapsed:.0f}s", ok)
    assert wins >= 4
    assert elapsed < 180.0


def test_07_filtered_fusion_tracks_plurality_on_benchmark(
        capsys, bench_reports):
    reports, _ = bench_reports
    diffs = [r.strategy_accuracies["filtered"] - r.strategy_accuracies["plurality"]
             for r in reports]
    wins = sum(1 for d in diffs if d >= 0)
    worst = min(diffs)
    ok = wins >= 3 and worst >= -0.01 - 1e-12
    announce(
        capsys, 7,
        f"filtered >= plurality in {wins}/5 seeds, worst gap {worst:+.4f}", ok)
    assert wins >= 3
    assert worst >= -0.01 - 1e-12


def test_08_real_spam_dataset_accuracy_band(capsys):
    path = os.environ.get("SPAMBASE_CSV")
    if not path:
        with capsys.disabled():
            print("\nacceptance 08 (real spam dataset accuracy band): "
                  "SKIP (set SPAMBASE_CSV to run)")
        pytest.skip("SPAMBASE_CSV not set")
    t0 = time.perf_counter()
    config = ExperimentConfig(
        dataset_path=path,
        strategies=("plurality", "filtered"),
        seed=0,
    )
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    acc = report.strategy_accuracies["filtered"]
    ok = 0.90 <= acc <= 0.97 and elapsed < 1800.0
    announce(capsys, 8,
             f"spam filtered accuracy {acc:.4f}, {elapsed:.0f}s", ok)
    assert 0.90 <= acc <= 0.97
    assert elapsed < 1800.0


def test_09_cli_rerun_byte_identical_with_and_without_parallelism(
        capsys, tmp_path):
    data = tmp_path / "blobs.csv"
    save_csv(gaussian_blobs(400, 6, 3, seed=29), data)
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[dataset]
path = {data}

[ensemble]
n_learners = 5
strategies = plurality, filtered

[mlp]
hidden_sizes = 16 8
epochs = 4
batch_size = 64
learning_rate = 0.05

[boost]
rounds = 6

[run]
seed = 7
""", encoding="utf-8")
    # The child must import this checkout's package wherever it is run from.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    tables = []
    for workers, out in (("1", tmp_path / "serial"), ("4", tmp_path / "parallel")):
        proc = subprocess.run(
            [sys.executable, "-m", "votestack.cli", "run",
             "--config", str(config), "--out", str(out), "--workers", workers],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "accuracy_table.csv").read_bytes())
    ok = tables[0] == tables[1]
    announce(capsys, 9, "CLI reruns byte-identical across parallelism", ok)
    assert ok
    identical_decisions = ((tmp_path / "serial" / "decisions.csv").read_bytes()
                           == (tmp_path / "parallel" / "decisions.csv").read_bytes())
    assert identical_decisions
    serial, parallel = ({p.name: p.read_bytes() for p in (out / "models").iterdir()}
                        for out in (tmp_path / "serial", tmp_path / "parallel"))
    assert {f"learner_{j}.mlp" for j in range(5)} <= set(serial)
    assert serial == parallel


def test_10_accuracy_grows_with_ensemble_size(capsys, bench_sweeps):
    ok_rows = all(len(s) == 8 for s in bench_sweeps)
    ok_sizes = all([r.n_learners for r in s] == list(range(1, 9))
                   for s in bench_sweeps)
    wins = sum(
        1 for s in bench_sweeps
        if s[6].strategy_accuracies["filtered"] >= s[0].strategy_accuracies["filtered"]
    )
    ok = ok_rows and ok_sizes and wins >= 4
    announce(capsys, 10,
             f"size sweep: 8 rows/seed, seven beats one in {wins}/5 seeds", ok)
    assert ok_rows and ok_sizes
    assert wins >= 4
