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
from .numerics import all_finite, frozen_copy

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
            raise ConfigError("schema needs at least one feature")
        if self.n_classes < 2:
            raise ConfigError("schema needs at least two classes")
        if len(set(self.class_names)) != self.n_classes:
            raise ConfigError("class names must be unique")
        feats = frozen_copy(self.features, np.float64)
        labels = frozen_copy(self.labels, np.int64)
        if feats.ndim != 2 or feats.shape[1] != self.n_features:
            raise ContractError(
                f"features must be S x {self.n_features}, got shape {feats.shape}"
            )
        if labels.shape != (feats.shape[0],):
            raise ContractError("labels must be a vector with one entry per row")
        if not all_finite(feats):
            raise DataError("dataset contains non-finite feature values")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
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


def _parse_feature(cell: str, line_no: int, col_name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"line {line_no}: non-numeric value {cell!r} in feature column {col_name!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"line {line_no}: non-finite value {cell!r} in feature column {col_name!r}"
        )
    return value


def _resolve_label_column(path: Path, label_column: int | str,
                          header: list[str] | None, n_columns: int) -> int:
    if isinstance(label_column, str):
        if header is None:
            raise ConfigError(
                f"label column named {label_column!r} requires a header row"
            )
        try:
            return header.index(label_column)
        except ValueError:
            raise DataError(f"{path}: label column {label_column!r} not found in header") from None
    idx = label_column
    if idx < 0:
        idx += n_columns
    if not (0 <= idx < n_columns):
        raise DataError(
            f"{path}: label column index {label_column} out of range for {n_columns} columns")
    return idx


def _looks_like_header(row: list[str], label_idx: int) -> bool:
    # A row is treated as a header when any would-be feature cell fails float parsing.
    for i, cell in enumerate(row):
        if i == label_idx:
            continue
        try:
            float(cell)
        except ValueError:
            return True
    return False


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
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = ((line_no, row) for line_no, row
                       in enumerate(csv.reader(fh, delimiter=delimiter), 1) if row)
            return _parse_records(path, records, label_column, has_header, class_names)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse_records(path: Path, records: Iterator[tuple[int, list[str]]],
                   label_column: int | str, has_header: bool | None,
                   class_names: Sequence[str] | None) -> Dataset:
    """load_csv's parse of the (line number, cells) records, one at a time."""
    first = next(records, None)
    if first is None:
        raise DataError(f"{path}: file contains no data rows")
    first_row = first[1]
    n_columns = len(first_row)
    # A column index is resolved before the header is known; a name needs the header.
    label_idx = (None if isinstance(label_column, str)
                 else _resolve_label_column(path, label_column, None, n_columns))
    if has_header is None:
        has_header = label_idx is None or _looks_like_header(first_row, label_idx)

    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in first_row]
        first = next(records, None)
        if first is None:
            raise DataError(f"{path}: no data rows after header")
    records = itertools.chain([first], records)

    if label_idx is None:
        label_idx = _resolve_label_column(path, label_column, header, n_columns)

    if header is not None:
        feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    else:
        feature_names = tuple(f"f{i}" for i in range(n_columns - 1))
    n_features = n_columns - 1
    if n_features < 1:
        raise DataError(f"{path}: need at least one feature column besides the label")

    class_index: dict[str, int] = {}
    if class_names is not None:
        class_index = {name: i for i, name in enumerate(class_names)}

    features, labels = array("d"), array("q")
    try:
        for line_no, row in records:
            if len(row) != n_columns:
                raise DataError(
                    f"line {line_no}: expected {n_columns} cells, got {len(row)}"
                )
            label_cell = row[label_idx].strip()
            if not label_cell:
                raise DataError(f"line {line_no}: empty label")
            if label_cell not in class_index:
                if class_names is not None:
                    raise DataError(
                        f"line {line_no}: label {label_cell!r} not among the expected classes"
                    )
                class_index[label_cell] = len(class_index)
            labels.append(class_index[label_cell])
            del row[label_idx]
            for name, cell in zip(feature_names, row):
                features.append(_parse_feature(cell.strip(), line_no, name))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None

    ordered = tuple(class_names) if class_names is not None else tuple(class_index)
    if len(ordered) < 2:
        raise DataError(f"{path}: fewer than two distinct class labels")
    return Dataset(np.frombuffer(features).reshape(-1, n_features),
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

    Deterministic for a fixed seed; train_fraction must lie strictly in
    (0, 1). Each group (every class when stratified, else all rows) gives
    train a count within one sample of train_fraction, and both sides keep
    at least one sample of every group.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    S = dataset.n_samples
    if S < 2:
        raise DataError("cannot split fewer than 2 samples")
    groups = ([np.flatnonzero(dataset.labels == c) for c in range(dataset.n_classes)]
              if stratified else [np.arange(S)])
    rng = np.random.default_rng(seed)
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


def fit_normalizer(train: Dataset) -> NormalizerState:
    """Per-feature mean/std from the training portion; std floored at 1e-12."""
    if train.n_samples == 0:
        raise ConfigError("cannot fit a normalizer on an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    return NormalizerState(mean=mean, std=np.maximum(std, STD_FLOOR))


def apply_normalizer(state: NormalizerState, dataset: Dataset) -> Dataset:
    if state.mean.shape[0] != dataset.n_features:
        raise ContractError(
            f"normalizer fitted for {state.mean.shape[0]} features, dataset has {dataset.n_features}"
        )
    return replace(dataset, features=(dataset.features - state.mean) / state.std)
