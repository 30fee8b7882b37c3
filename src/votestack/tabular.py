"""Loading, validation, encoding, normalization, and splitting of tabular data.

Datasets are immutable once constructed: feature/label arrays are marked
read-only so they can be shared freely across threads.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .numerics import FRACTION, all_finite, as_features, as_labels, conform, frozen_copy
from .seeding import child_rng

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus dense integer class labels, with the column and
    class names that fix its layout and label encoding."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.n_features < 1:
            raise DataError("schema needs at least one feature")
        if self.n_classes < 2:
            raise DataError("schema needs at least two distinct classes")
        if len(set(self.class_names)) != self.n_classes:
            raise DataError("class names must be unique")
        feats = as_features(frozen_copy(self.features, np.float64), self.n_features)
        labels = frozen_copy(as_labels(self.labels, len(feats)), np.int64)
        if labels.size and labels.max() >= self.n_classes:
            raise DataError("label index out of range for schema")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset with this dataset's names."""
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, features=self.features[idx], labels=self.labels[idx])


@dataclass(frozen=True)
class NormalizerState:
    """Per-feature z-score statistics fitted on the training portion only."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = frozen_copy(self.mean, np.float64)
        std = frozen_copy(self.std, np.float64)
        if np.any(std <= 0):
            raise ContractError("standard deviations must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def _cell_fault(cell: str) -> str | None:
    """Why a feature cell is not a finite number, or None."""
    try:
        value = float(cell)
    except ValueError:
        return "non-numeric"
    return None if math.isfinite(value) else "non-finite"


def conform_delimiter(value, name: str = "delimiter") -> str:
    """value as a CSV delimiter, a one-character string; a ConfigError names it otherwise."""
    if len(delimiter := conform(value, str, name)) != 1:
        raise ConfigError(f"{name} must be one character, got {delimiter!r}")
    return delimiter


def load_csv(
    path: str | Path,
    label_column: int | str,
    delimiter: str,
    has_header: bool | None,
    class_names: Sequence[str] | None = None,
) -> Dataset:
    """Load a delimited text file into a Dataset.

    Labels are mapped to dense indices in first-appearance order unless an
    explicit ``class_names`` ordering is given (needed when a second file,
    e.g. a predefined test split, must share the training file's encoding).
    ``has_header=None`` auto-detects a header row by attempting to parse the
    first row's feature cells as numbers.
    """
    label_column = conform(label_column, int | str, "label_column")
    delimiter = conform_delimiter(delimiter)
    has_header = conform(has_header, bool | None, "has_header")
    class_names = conform(class_names, tuple[str, ...] | None, "class_names")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = ((line_no, row) for line_no, row
                       in enumerate(csv.reader(fh, delimiter=delimiter), 1) if row)
            return _parse_records(records, label_column, has_header, class_names)
    except (OSError, UnicodeDecodeError, csv.Error, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse_records(records: Iterator[tuple[int, list[str]]], label_column: int | str,
                   has_header: bool | None, class_names: Sequence[str] | None) -> Dataset:
    """load_csv's parse of the (line number, cells) records, one at a time."""
    first = next(records, None)
    if first is None:
        raise DataError("file contains no data rows")
    first_row = first[1]
    n_columns = len(first_row)
    named = isinstance(label_column, str)
    # The header sniff drops the label cell, so an index is range-checked first.
    if not named and not -n_columns <= label_column < n_columns:
        raise DataError(f"label column index {label_column} out of range for {n_columns} columns")
    if has_header is None:
        has_header = named or any(_cell_fault(cell) == "non-numeric"
                                  for i, cell in enumerate(first_row)
                                  if i != label_column % n_columns)

    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in first_row]
        first = next(records, None)
        if first is None:
            raise DataError("no data rows after header")
    records = itertools.chain([first], records)

    label_idx = label_column
    if named:
        if header is None:
            raise ConfigError(f"label column named {label_column!r} requires a header row")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
    if header is None:
        feature_names = tuple(f"f{i}" for i in range(n_columns - 1))
    else:
        del header[label_idx]
        feature_names = tuple(header)

    class_index = {name: i for i, name in enumerate(class_names or ())}
    features, labels = array("d"), array("q")
    for line_no, row in records:
        if len(row) != n_columns:
            raise DataError(f"line {line_no}: expected {n_columns} cells, got {len(row)}")
        label_cell = row.pop(label_idx).strip()
        if not label_cell:
            raise DataError(f"line {line_no}: empty label")
        if label_cell not in class_index:
            if class_names is not None:
                raise DataError(
                    f"line {line_no}: label {label_cell!r} not among the expected classes")
            class_index[label_cell] = len(class_index)
        labels.append(class_index[label_cell])
        try:
            values = [*map(float, row)]
            # A sum of finite values may overflow, so a non-finite sum only starts the search.
            finite = math.isfinite(sum(values))
        except ValueError:
            finite = False
        if not finite:
            for name, cell in zip(feature_names, row):
                if fault := _cell_fault(cell):
                    raise DataError(f"line {line_no}: {fault} value {cell.strip()!r} "
                                    f"in feature column {name!r}")
        features.extend(values)

    ordered = class_names if class_names is not None else tuple(class_index)
    return Dataset(np.frombuffer(features).reshape(len(labels), -1),
                   np.frombuffer(labels, dtype=np.int64), feature_names, ordered)


def save_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write a Dataset as comma-separated text with a header row whose last
    column, ``label``, holds the class names.

    Feature values are written with repr so a reload is bit-exact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + ["label"])
        names = dataset.class_names
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [names[label]])
    return path


def split(dataset: Dataset, train_fraction: float, stratified: bool,
          seed: int) -> tuple[Dataset, Dataset]:
    """Partition a dataset into disjoint train/test subsets.

    seed is a master seed, so split(data, f, s, config.seed) is a run's split;
    train_fraction must lie strictly in (0, 1). Each group (every class when
    stratified, else all rows) gives train a count within one sample of
    train_fraction, and both sides keep at least one sample of every group.
    """
    train_fraction = conform(train_fraction, FRACTION, "train_fraction")
    stratified = conform(stratified, bool, "stratified")
    rng = child_rng(seed, "split")
    S = dataset.n_samples
    if S < 2:
        raise DataError("cannot split fewer than 2 samples")
    groups = ([np.flatnonzero(dataset.labels == c) for c in range(dataset.n_classes)]
              if stratified else [np.arange(S)])
    train_parts = []
    test_parts = []
    for c, members in enumerate(groups):
        if members.size < 2:
            raise DataError(
                f"class {dataset.class_names[c]!r} has {members.size} sample(s); "
                "stratified splitting needs at least 2 per class"
            )
        shuffled = rng.permutation(members)
        n_train = int(round(train_fraction * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    return (dataset.take(np.sort(np.concatenate(train_parts))),
            dataset.take(np.sort(np.concatenate(test_parts))))


def _check_columns(finite: np.ndarray, dataset: Dataset, what: str) -> None:
    """DataError naming every feature column whose entry of finite is False."""
    if not finite.all():
        names = ", ".join(repr(dataset.feature_names[i]) for i in np.flatnonzero(~finite))
        raise DataError(f"{what} overflows float64 in feature column(s) {names}")


def fit_normalizer(train: Dataset) -> NormalizerState:
    """Per-feature mean/std from the training portion. A column whose train
    values are all equal has that value as its mean and an infinite std, so
    it maps to 0 on train and test alike; every other column keeps its own
    std, however small. A mean or std past float64's range is a DataError
    naming its column."""
    if train.n_samples == 0:
        raise ConfigError("cannot fit a normalizer on an empty dataset")
    features = train.features
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0)
        std = features.std(axis=0)
    _check_columns(np.isfinite(mean) & np.isfinite(std), train, "mean or standard deviation")
    varies = (features != features[0]).any(axis=0)
    # Squared deviations at 1e-200 scale underflow, so a varying column below
    # the floor has its std taken at unit scale; a subnormal column's std can
    # round to zero there, hence the least positive float64 as its bound.
    small = np.flatnonzero(varies & (std < STD_FLOOR))
    scale = np.abs(features[:, small]).max(axis=0)
    std[small] = np.maximum(scale * (features[:, small] / scale).std(axis=0),
                            np.finfo(np.float64).smallest_subnormal)
    # Summed in float64, a constant column's mean can miss its value.
    return NormalizerState(mean=np.where(varies, mean, features[0]),
                           std=np.where(varies, std, np.inf))


def apply_normalizer(state: NormalizerState, dataset: Dataset) -> Dataset:
    """Features z-scored with the fitted statistics; a standardized value past
    float64's range is a DataError naming its column."""
    if state.mean.shape[0] != dataset.n_features:
        raise ContractError(
            f"normalizer fitted for {state.mean.shape[0]} features, dataset has {dataset.n_features}"
        )
    # A difference past float64's range is inf, and over a train-constant
    # column's infinite std that is NaN; both are reported as overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        features = (dataset.features - state.mean) / state.std
    if not all_finite(features):
        _check_columns(np.isfinite(features).all(axis=0), dataset, "standardized value")
    return replace(dataset, features=features)
