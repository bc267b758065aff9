"""Small shared helpers: stack chunking, sums in grid order and CSV formatting."""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Sequence

import numpy as np

from .grids import as_grid

# Most pixels one stacked call (operator, losses) holds, in training and in
# validation; a stack is never fewer than one grid. 32,768 float64 pixels are
# 256 KB and MS-SSIM's four-moment buffer 1 MB, so a stack fits a 2 MB per-core
# L2 cache; a 64 px validation pass ran fastest at this budget of the five from
# 8,192 to 131,072 (README, "Stacked arrays"). No result depends on it: the
# validation quantities are per grid, and training sums its gradient grid by grid.
STACK_PIXELS = 32_768


def stacks(degraded: Sequence, clean: Sequence, pixels: int = STACK_PIXELS):
    """Yield matching (N, H, W) stacks of consecutive grids of two sequences, in order.

    A stack holds at most `pixels` pixels, or one grid if a grid is larger;
    it ends where either sequence changes shape.
    """
    i = 0
    while i < len(degraded):
        shapes = (as_grid(degraded[i]).shape, as_grid(clean[i]).shape)
        h, w = shapes[0]
        end = min(len(degraded), i + max(1, pixels // (h * w)))
        j = i + 1
        while j < end and (np.shape(degraded[j]), np.shape(clean[j])) == shapes:
            j += 1
        yield tuple(np.stack([as_grid(g) for g in seq[i:j]]) for seq in (degraded, clean))
        i = j


def add_in_order(total: np.ndarray, terms: np.ndarray) -> None:
    """total += each term of `terms` (one shaped like total, or a stack of them), in order.

    Sums built this way are the same bits however their terms were cut into stacks.
    """
    for term in terms.reshape(-1, *total.shape):
        total += term


def fmt(x) -> str:
    """Format a scalar for CSV output: shortest round-trip float repr."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    return repr(float(x))


def write_csv(path, header: Iterable[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_records(path, cls, records: Iterable) -> None:
    """Write dataclass records as CSV: one column per field of `cls`, in field order."""
    names = [f.name for f in fields(cls)]
    write_csv(path, names, ([getattr(r, n) for n in names] for r in records))
