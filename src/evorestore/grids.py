"""Real 2D grid substrate: unitary FFTs, periodic (circular) convolution, kernels, IO.

Conventions used throughout the package:

* grids are 2D float64 arrays, row-major, values usually in [0, 1]; a stack
  of same-shaped grids is one (N, H, W) array, and the transforms and the
  convolution act on its last two axes;
* the DFT is unitary (`norm="ortho"`), so Parseval holds with no extra factor
  and white noise keeps its variance across the transform;
* convolution is circular (periodic boundary), so the convolution theorem is
  exact: ``fft2(conv2_periodic(x, k)) == transfer(k, h, w) * fft2(x)`` up to
  float rounding, where `transfer` is the *unnormalized* DFT of the kernel
  zero-padded and circularly centered onto the grid.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import DimensionError, NumericIntegrityError

def as_grid(x) -> np.ndarray:
    """Validate and coerce to a 2D float64 grid."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"grid must be 2D, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"grid must be non-empty, got shape {a.shape}")
    return a


def as_grids(x) -> np.ndarray:
    """Validate and coerce to a float64 grid (H, W) or stack of grids (N, H, W)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise DimensionError(f"expected a grid or a stack of grids, got shape {a.shape}")
    if min(a.shape) < 1:
        raise DimensionError(f"grids must be non-empty, got shape {a.shape}")
    return a


def fft2(x) -> np.ndarray:
    """Unitary forward DFT of a real grid (or each grid of a stack) -> Hermitian spectrum.

    The full complex transform is the reference route: the oracles, the A1
    band-split check and the tests compare against it, while the operator
    itself gates on the real half-spectrum (`fmm`).
    """
    return np.fft.fft2(as_grids(x), norm="ortho")


def hermitian_flip(a: np.ndarray) -> np.ndarray:
    """b[i, j] = a[(-i) % H, (-j) % W] — index map of conjugate symmetry."""
    return np.roll(a[::-1, ::-1], (1, 1), axis=(0, 1))


def as_kernel(k) -> np.ndarray:
    """Validate a square odd-sized 2D tap array."""
    a = np.asarray(k, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"kernel must be square 2D, got shape {a.shape}")
    if a.shape[0] % 2 != 1:
        raise DimensionError(f"kernel size must be odd, got {a.shape[0]}")
    return a


def check_kernel_fits(k: np.ndarray, h: int, w: int) -> None:
    if k.shape[0] > min(h, w):
        raise DimensionError(
            f"kernel size {k.shape[0]} exceeds grid min dimension {min(h, w)}"
        )


def conv2_periodic(x, k) -> np.ndarray:
    """Circular 2D convolution with the kernel's center tap aligned to the origin.

    y[i, j] = sum_{a,b} k[a, b] * x[(i - (a - c)) % H, (j - (b - c)) % W],  c = size // 2

    Works on a grid or on each grid of a stack. Implemented as a tap-by-tap
    accumulation of shifted views of one wrap-padded copy, so the result
    matches a brute-force double loop bit-for-bit (same accumulation order).
    """
    x = as_grids(x)
    k = as_kernel(k)
    h, w = x.shape[-2:]
    check_kernel_fits(k, h, w)
    c = k.shape[0] // 2
    # tap (a, b) reads x rolled by (a - c, b - c): a view into the padded copy
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(c, c), (c, c)], mode="wrap")
    out = np.zeros_like(x)
    for a in range(k.shape[0]):
        for b in range(k.shape[1]):
            out += k[a, b] * xp[..., 2 * c - a : 2 * c - a + h, 2 * c - b : 2 * c - b + w]
    return out


def transfer(k, h: int, w: int) -> np.ndarray:
    """Transfer function of a kernel on an h x w periodic grid.

    Zero-pads the taps, circularly centers them at the origin, and takes the
    *unnormalized* DFT, which makes the convolution theorem hold exactly under
    the package's unitary FFT convention:

        fft2(conv2_periodic(x, k)) == transfer(k, h, w) * fft2(x)

    Identity kernel -> all-ones transfer; any normalized blur -> DC term 1.
    """
    k = as_kernel(k)
    if h < 1 or w < 1:
        raise DimensionError(f"target grid must be non-empty, got {(h, w)}")
    check_kernel_fits(k, h, w)
    c = k.shape[0] // 2
    pad = np.zeros((h, w))
    pad[: k.shape[0], : k.shape[1]] = k
    pad = np.roll(pad, (-c, -c), axis=(0, 1))
    return np.fft.fft2(pad)


def identity_kernel(size: int = 1) -> np.ndarray:
    """Odd-sized kernel with a single unit center tap."""
    k = np.zeros((size, size))
    k[size // 2, size // 2] = 1.0
    return as_kernel(k)


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized isotropic Gaussian taps on an odd size x size support."""
    if sigma <= 0:
        raise DimensionError(f"gaussian sigma must be positive, got {sigma}")
    c = size // 2
    ax = np.arange(size, dtype=np.float64) - c
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma * sigma))
    return as_kernel(g / g.sum())


# ---------------------------------------------------------------------------
# FGRID container: one or more records back to back, each
# "FGRID <height> <width>\n" + row-major little-endian float64
# ---------------------------------------------------------------------------

_FGRID_HEADER = b"FGRID %d %d\n"
_FGRID_HEADER_TEXT = re.compile(rb"FGRID ([1-9][0-9]*) ([1-9][0-9]*)\n")  # as %d writes h, w >= 1


def write_fgrids(path, grids) -> None:
    """Write each grid as one FGRID record, in order; records may differ in shape."""
    grids = [as_grid(x) for x in grids]
    with open(path, "wb") as fh:
        for x in grids:
            fh.write(_FGRID_HEADER % x.shape)
            fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())


def write_fgrid(path, x) -> None:
    write_fgrids(path, [x])


def read_fgrids(path, count: int | None = None) -> list:
    """The grids write_fgrids wrote, read a record at a time; an empty file holds none.

    A header spelt other than write_fgrids spells it, a payload cut short, NaN or infinite
    pixels, or a count other than `count` (if given) raise NumericIntegrityError.
    """
    grids = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while header := fh.readline():
            where = f"{path}: record {len(grids)}"
            if not (m := _FGRID_HEADER_TEXT.fullmatch(header)):
                raise NumericIntegrityError(f"{where}: malformed FGRID header {header!r}")
            h, w = int(m[1]), int(m[2])
            left = size - fh.tell()
            if 8 * h * w > left:  # checked before allocating what the header claims
                raise NumericIntegrityError(
                    f"{where}: FGRID payload is {left} bytes, expected {8 * h * w}"
                )
            x = np.empty((h, w), dtype="<f8")
            fh.readinto(x)
            if not np.all(np.isfinite(x)):
                raise NumericIntegrityError(f"{where}: FGRID holds NaN or infinite pixels")
            grids.append(x.astype(np.float64, copy=False))
    if count is not None and len(grids) != count:
        raise NumericIntegrityError(f"{path}: {len(grids)} FGRID records, expected {count}")
    return grids


def read_fgrid(path) -> np.ndarray:
    """The grid write_fgrid wrote: a file of exactly one FGRID record."""
    return read_fgrids(path, 1)[0]
