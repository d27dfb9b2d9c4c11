"""Matrix files: text CSV and the binary PCPM container.

CSV is one matrix row per line, '.' decimal, 17 significant digits (enough
for exact float64 round trips), with an optional leading ``# n d`` comment
that must match the data when present.
The binary format is the 4-byte magic "PCPM", a little-endian u32 version
(currently 1), u64 row and column counts, then exactly n * d row-major
float64 values.
Loading sniffs the magic, so either format can sit behind any extension;
saving picks the binary format for paths ending in .pcpm.
"""

from __future__ import annotations

import itertools
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, InvalidMatrixError
from .linalg import as_matrix

__all__ = ["MAGIC", "VERSION", "load_matrix", "save_matrix", "load_csv", "save_csv", "load_binary", "save_binary"]

MAGIC = b"PCPM"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def save_binary(path, a) -> None:
    a = as_matrix(a)
    n, d = a.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, d))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise InvalidInputError(f"{path}: truncated header")
        magic, version, n, d = _HEADER.unpack(header)
        if magic != MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise InvalidInputError(f"{path}: unsupported version {version}")
        data = fh.read()
    expected = 8 * n * d
    if len(data) != expected:
        raise InvalidInputError(f"{path}: expected {expected} data bytes, got {len(data)}")
    a = np.frombuffer(data, dtype="<f8").reshape(n, d)
    return as_matrix(a, str(path))


def save_csv(path, a) -> None:
    a = as_matrix(a)
    n, d = a.shape
    with open(path, "w") as fh:
        fh.write(f"# {n} {d}\n")
        for row in a:
            fh.write(",".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def _data_lines(fh, header: list):
    """The data rows of a CSV file with their line numbers, without blank
    and comment lines; the first ``# n d`` comment before any row is
    appended to ``header``."""
    seen_row = False
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            is_shape = len(fields) == 2 and all(f.isdigit() for f in fields)
            if is_shape and not header and not seen_row:
                header.append((int(fields[0]), int(fields[1])))
            continue
        seen_row = True
        yield lineno, line


def _first_bad_row(rows) -> str | None:
    """The file line and fault of the first row that does not parse, or
    that has a different number of values than the first row."""
    width = None
    for lineno, line in rows:
        try:
            count = np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape[1]
        except ValueError:
            return f"{lineno}: unparseable row"
        width = count if width is None else width
        if count != width:
            return f"{lineno}: row has {count} values, expected {width}"
    return None


def load_csv(path) -> np.ndarray:
    """Read a CSV matrix; a ``# n d`` comment before the first row must match the data."""
    header: list = []
    with open(path) as fh:
        rows = _data_lines(fh, header)
        first = next(rows, None)
        if first is None:
            raise InvalidMatrixError(f"{path}: no data rows")
        lines = (line for _, line in itertools.chain([first], rows))
        try:
            a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            # loadtxt counts data rows, not file lines: find the line again
            fh.seek(0)
            where = _first_bad_row(_data_lines(fh, []))
            raise InvalidInputError(f"{path}:{where}" if where else f"{path}: {exc}") from None
    if header and header[0] != a.shape:
        raise InvalidInputError(
            f"{path}: header says {header[0][0]} x {header[0][1]}, data is {a.shape[0]} x {a.shape[1]}"
        )
    return as_matrix(a, str(path))


def save_matrix(path, a) -> None:
    """Write ``a`` to ``path``; .pcpm selects the binary format, else CSV."""
    if str(path).endswith(".pcpm"):
        save_binary(path, a)
    else:
        save_csv(path, a)


def load_matrix(path) -> np.ndarray:
    """Read a matrix, sniffing the binary magic regardless of extension."""
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"{path}: no such file")
    with open(p, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_binary(p)
    return load_csv(p)
