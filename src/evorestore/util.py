"""Small shared helpers: the allocator setting, stacks, sums in grid order, CSV records."""

from __future__ import annotations

import ctypes
import io
import math
import numbers
import platform
import re
from dataclasses import fields
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericIntegrityError
from .grids import as_grid

# glibc's mallopt parameters and the values _keep_freed_heap gives them: 32 MiB
# is glibc's own ceiling for its dynamic mmap threshold on 64-bit, and its
# dynamic rule keeps the trim threshold at twice the mmap threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_heap() -> None:
    """Keep freed stack-sized arrays in the heap for the next pass (glibc only; else nothing).

    glibc starts both thresholds at 128 KiB and raises them only as a process
    frees larger mapped blocks, so until then a pass's temporaries are mapped,
    or trimmed off the heap's top, and returned to the OS, and the next pass
    faults the same pages in again. Starting both at the top of their range
    keeps them in the heap. This is process-wide; an application that wants
    other values calls mallopt after importing the package.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


# Most pixels one stacked call (operator, losses) holds, in training and in
# validation; a stack is never fewer than one grid. 32,768 float64 pixels are
# 256 KB and MS-SSIM's four-moment buffer 1 MB, so a stack fits a 2 MB per-core
# L2 cache; a 64 px validation pass ran fastest at this budget of the five from
# 8,192 to 131,072 (README, "Stacked arrays"). No result depends on it: the
# validation quantities are per grid, and training sums its gradient grid by grid.
STACK_PIXELS = 32_768


def stacks(*seqs: Sequence, pixels: int = STACK_PIXELS):
    """Yield matching (N, H, W) stacks of consecutive grids of equal-length sequences, in order.

    A stack holds at most `pixels` pixels of the first sequence, or one grid if
    a grid is larger; it ends where any sequence changes shape.
    """
    i = 0
    while i < len(seqs[0]):
        shapes = tuple(as_grid(seq[i]).shape for seq in seqs)
        h, w = shapes[0]
        end = min(len(seqs[0]), i + max(1, pixels // (h * w)))
        j = i + 1
        while j < end and tuple(np.shape(seq[j]) for seq in seqs) == shapes:
            j += 1
        yield tuple(np.stack([as_grid(g) for g in seq[i:j]]) for seq in seqs)
        i = j


def add_in_order(total: np.ndarray, terms: np.ndarray) -> None:
    """total += each term of `terms` (one shaped like total, or a stack of them), in order.

    Sums built this way are the same bits however their terms were cut into stacks.
    """
    for term in terms.reshape(-1, *total.shape):
        total += term


def fmt(x) -> str:
    """One CSV cell: text as is, bools 0/1, integers exactly, else the shortest float repr."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return repr(float(x))


def write_records(path, cls, records: Iterable) -> None:
    """Write dataclass records as CSV: one column per field of `cls`, in field order."""
    names = [f.name for f in fields(cls)]
    lines = [",".join(names)] + [",".join(fmt(getattr(r, n)) for n in names) for r in records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# A float cell: ASCII digits with an optional '-', fraction and exponent, as repr writes.
_FLOAT_TEXT = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def parse_cell(kind: str, text: str):
    """One cell as the type `kind` names (int, finite float or NUL-free str), or ValueError.

    Numbers must be plain ASCII text: an int cell must equal str(int(cell)) and
    a float cell match _FLOAT_TEXT, so `+2`, `1_0`, ` 3` or `١` are errors,
    although int() and float() read them.
    """
    if kind == "str":
        if "\0" in text:
            raise ValueError("NUL byte")
        return text
    if kind == "int":
        value = int(text)
        if str(value) != text:
            raise ValueError("not a canonical integer")
        return value
    if not _FLOAT_TEXT.fullmatch(text):
        raise ValueError("not plain decimal text")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def read_records(path, cls) -> list:
    """The `cls` records of a CSV as write_records writes it, or NumericIntegrityError.

    Stripped, non-blank lines: the header is `cls`'s field names in order, and
    each row one cell per field, an int, finite float or NUL-free str as the
    field is annotated. Anything else, non-UTF-8 bytes included, raises with
    the path, line, column and row.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raw = data.split(b"\n")[lineno - 1]
        raise NumericIntegrityError(f"{path}:{lineno}: not UTF-8 text in row {raw!r}") from exc
    rows = enumerate(io.StringIO(text, newline=None), 1)
    lines = [(n, ln.strip()) for n, ln in rows if ln.strip()]
    cols = fields(cls)
    header = ",".join(f.name for f in cols)
    if not lines or lines[0][1] != header:
        n, got = lines[0] if lines else (1, "")
        raise NumericIntegrityError(f"{path}:{n}: header {got!r}, expected {header!r}")
    records = []
    for n, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise NumericIntegrityError(
                f"{path}:{n}: {len(cells)} cells, expected {len(cols)}, in row {line!r}"
            )
        values = []
        for f, cell in zip(cols, cells):
            try:
                values.append(parse_cell(f.type, cell))
            except ValueError as exc:
                raise NumericIntegrityError(
                    f"{path}:{n}: column {f.name!r}: {cell!r} is not a valid {f.type}, "
                    f"in row {line!r}"
                ) from exc
        records.append(cls(*values))
    return records
