"""Versioned binary container for model files.

Layout (all integers little-endian):
  8-byte magic tag | u16 format version | u32 header length | header JSON
  | u32 array count | per array: u8 ndim (at most 2), ndim x u64 dims,
  float64 data.

Both model families (feed-forward nets and boosted trees) share this
container so round-trips are bit-exact and failures are diagnosable.
Every artifact, model files and run reports alike, is written through
`atomic_write`, so a killed process never leaves a half-written file.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

MAGIC_LEN = 8


@contextmanager
def atomic_write(path: Path):
    """Binary handle on a hidden temporary file beside `path` (never ending
    in the target's extension), moved over `path` by os.replace when the block
    completes and removed on any error; OSError becomes ConfigError."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def write_model_file(path: str | Path, magic: bytes, version: int,
                     header: dict, arrays: list[np.ndarray]) -> Path:
    if len(magic) != MAGIC_LEN:
        raise ValueError("magic tag must be exactly 8 bytes")
    path = Path(path)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<H", version))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(data)  # from the array's own buffer, no bytes copy
    return path


def _check_remaining(fh, n: int, path: Path) -> None:
    # A corrupt length must not read (or allocate) past the end of the file.
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: truncated model file")


def _read_exact(fh, n: int, path: Path) -> bytes:
    _check_remaining(fh, n, path)
    data = fh.read(n)
    if len(data) != n:
        raise DataError(f"{path}: truncated model file")
    return data


def read_model_file(path: str | Path, magic: bytes,
                    version: int) -> tuple[dict, list[np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    with fh:
        tag = _read_exact(fh, MAGIC_LEN, path)
        if tag != magic:
            raise DataError(f"{path}: not a {magic!r} model file (magic {tag!r})")
        (found_version,) = struct.unpack("<H", _read_exact(fh, 2, path))
        if found_version != version:
            raise DataError(
                f"{path}: format version {found_version} unsupported (expected {version})"
            )
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
        try:
            header = json.loads(_read_exact(fh, header_len, path).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt model header ({exc})") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: model header is not a JSON object")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        arrays = []
        for _ in range(count):
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path))
            if ndim > 2:
                raise DataError(f"{path}: {ndim}-D array (model files hold 1-D and 2-D)")
            shape = struct.unpack(
                "<" + "Q" * ndim, _read_exact(fh, 8 * ndim, path)
            )
            # One zero dimension makes the product 0, so bound each one too.
            for n in (*shape, math.prod(shape)):
                _check_remaining(fh, 8 * n, path)
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise DataError(f"{path}: truncated model file")
            arrays.append(arr)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after model payload")
    return header, arrays


@contextmanager
def parsing_header(path: str | Path):
    """Report a missing, mistyped or invalid header field as DataError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(
            f"{path}: bad model header ({type(exc).__name__}: {exc})"
        ) from None
