"""Smoke tests of the benchmark: one operation of each gated workload's kind
runs and passes the checks the benchmark applies after every operation, so a
package change that breaks them fails here rather than in a benchmark run."""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

import votestack

SRC = Path(votestack.__file__).parents[1]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    return importlib.import_module("workloads")


def test_one_blobs_allfuse_operation_passes_its_checks(workloads, tmp_path):
    runner = workloads.Runner(workloads.WORKLOADS["blobs-allfuse"], seed=1, work=tmp_path,
                              src=SRC)
    runner.setup()
    result = runner.run_op()
    assert result.problems == [] and result.digest


def test_a_small_votestack_run_passes_the_run_dir_checks(workloads, tmp_path):
    # spam-wide's operation, a `votestack run` subprocess, with a small net and
    # data set; its vote filter sends rows to the meta-learner, whose model
    # file the checks load too.
    small = replace(workloads.WORKLOADS["spam-wide"], data_shape=(600, 57, 2), hidden=(16, 8),
                    epochs=3)
    runner = workloads.Runner(small, seed=1, work=tmp_path, src=SRC)
    runner.setup()
    result = runner.run_op()
    assert result.problems == [] and result.digest
    assert (tmp_path / "out" / "models" / "filtered_meta.gbt").is_file()
