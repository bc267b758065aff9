"""Synthetic degradations, image metrics, and paired dataset assembly.

Five parametric degradation kinds (all deterministic per seed, outputs clamped
to [0, 1]):

  noise     additive white Gaussian, std `sigma`
  blur      periodic Gaussian blur with kernel std `kernel_sigma`
  haze      I = t0 * J + (1 - t0) * airlight   (atmospheric veil)
  lowlight  I = scale * J ** gamma             (gamma-darkened exposure)
  rain      `count` additive bright streaks at `angle_deg` with `intensity`

Datasets pair each clean image with each degradation spec and carry stratified
train/validation/test splits (equal validation counts per kind).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, NumericIntegrityError
from .grids import (
    as_grid,
    as_grids,
    conv2_periodic,
    gaussian_kernel,
    hermitian_flip,
    read_fgrid,
    read_fgrids,
    write_fgrids,
)
from .util import STACK_PIXELS, read_records, stacks, write_records

# kind -> the DegradationSpec fields it reads; every other field keeps its default
KIND_FIELDS = {
    "noise": ("sigma", "seed"),
    "blur": ("kernel_sigma", "seed"),
    "haze": ("t0", "airlight", "seed"),
    "lowlight": ("gamma", "scale", "seed"),
    "rain": ("count", "angle_deg", "intensity", "seed"),
}
KINDS = tuple(KIND_FIELDS)

PSNR_CAP_DB = 99.0


@dataclass(frozen=True)
class DegradationSpec:
    kind: str
    seed: int = 0
    sigma: float = 0.0  # noise
    kernel_sigma: float = 0.0  # blur
    t0: float = 1.0  # haze transmission
    airlight: float = 1.0  # haze veil intensity
    gamma: float = 1.0  # lowlight exponent
    scale: float = 1.0  # lowlight multiplier
    count: int = 0  # rain streak count
    angle_deg: float = 60.0  # rain streak angle
    intensity: float = 0.0  # rain streak brightness

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown degradation kind {self.kind!r}")
        for f in fields(self)[1:]:  # every field after `kind`
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if f.type == "int" else numbers.Real
            ):
                raise ConfigError(f"{self.kind} {f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{self.kind} {f.name} must be finite, got {value}")
            if f.name not in KIND_FIELDS[self.kind] and value != f.default:
                raise ConfigError(f"unknown parameter {f.name!r} for kind {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"{self.kind} seed must be >= 0, got {self.seed}")
        if self.kind == "noise" and not self.sigma > 0:
            raise ConfigError(f"noise sigma must be > 0, got {self.sigma}")
        if self.kind == "blur":
            # gaussian_kernel divides by 2σ²: 0 gives NaN taps, and inf has no kernel size
            sigma = self.kernel_sigma
            if not (sigma > 0 and 0.0 < 2.0 * sigma * sigma < math.inf):
                raise ConfigError(f"blur kernel_sigma must be > 0, 2σ² finite and > 0, got {sigma}")
        if self.kind == "haze":
            if not 0.0 <= self.t0 <= 1.0:
                raise ConfigError(f"haze t0 must be in [0,1], got {self.t0}")
            if not 0.0 <= self.airlight <= 1.0:
                raise ConfigError(f"haze airlight must be in [0,1], got {self.airlight}")
        if self.kind == "lowlight":
            if not self.gamma > 0:
                raise ConfigError(f"lowlight gamma must be > 0, got {self.gamma}")
            if not 0.0 < self.scale <= 1.0:
                raise ConfigError(f"lowlight scale must be in (0,1], got {self.scale}")
        if self.kind == "rain":
            if self.count < 1:
                raise ConfigError(f"rain count must be >= 1, got {self.count}")
            if not 0.0 < self.intensity <= 1.0:
                raise ConfigError(f"rain intensity must be in (0,1], got {self.intensity}")


def _blur_kernel_for(sigma: float, h: int, w: int) -> np.ndarray:
    size = 2 * int(math.ceil(3.0 * sigma)) + 1
    largest = min(h, w)
    if largest % 2 == 0:
        largest -= 1
    return gaussian_kernel(min(size, largest), sigma)


def _check_clean(clean: np.ndarray) -> None:
    if not (clean.min() >= 0.0 and clean.max() <= 1.0):  # NaN fails both
        raise NumericIntegrityError(
            f"clean image must lie in [0,1], got [{clean.min():.4g}, {clean.max():.4g}]"
        )


def apply_degradation(clean, spec: DegradationSpec) -> np.ndarray:
    """Degrade a clean [0,1] grid; deterministic in spec.seed, result clamped."""
    clean = as_grid(clean)
    _check_clean(clean)
    spec.validate()
    return _degrade(clean[None], spec, [spec.seed])[0]


def _degrade(clean: np.ndarray, spec: DegradationSpec, seeds) -> np.ndarray:
    """Degrade grid n of a checked (N, H, W) stack by a valid spec with seed seeds[n].

    Each grid gets the bytes it gets alone. Rain adds its streak samples at
    most STACK_PIXELS at a time, so its memory does not grow with its count.
    """
    h, w = clean.shape[1:]
    if spec.kind == "noise":
        out = np.stack([np.random.default_rng(s).normal(0.0, spec.sigma, (h, w)) for s in seeds])
        out += clean  # noise + clean: the bits of clean + noise
    elif spec.kind == "blur":
        out = conv2_periodic(clean, _blur_kernel_for(spec.kernel_sigma, h, w))
    elif spec.kind == "haze":
        out = spec.t0 * clean + (1.0 - spec.t0) * spec.airlight
    elif spec.kind == "lowlight":
        out = spec.scale * np.power(clean, spec.gamma)
    else:  # rain
        out = clean.copy()
        theta = math.radians(spec.angle_deg)
        length = max(3, int(0.25 * min(h, w)))
        steps = np.arange(-length // 2, length // 2 + 1, dtype=np.float64)
        block = max(1, STACK_PIXELS // steps.size)  # streaks per np.add.at call
        for grid, seed in zip(out, seeds):
            rng = np.random.default_rng(seed)
            for first in range(0, spec.count, block):
                drawn = [_streak(rng, h, w, theta) for _ in range(min(block, spec.count - first))]
                ci, cj, di, dj = np.array(drawn).T[..., None]
                ii = np.rint(ci + steps * di).astype(np.intp) % h  # rint rounds as round()
                jj = np.rint(cj + steps * dj).astype(np.intp) % w
                np.add.at(grid.reshape(-1), (ii * w + jj).ravel(), spec.intensity)
    return np.clip(out, 0.0, 1.0, out=out)


def _streak(rng, h: int, w: int, theta: float) -> tuple:
    """One rain streak's centre (row, column) and unit direction, from three scalar draws."""
    ci, cj = h * rng.random(), w * rng.random()
    angle = theta + math.radians(2.0 * rng.standard_normal())
    return ci, cj, math.cos(angle), math.sin(angle)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def psnr(pred, target):
    """PSNR in dB for unit dynamic range; +inf sentinel for identical inputs.

    A grid gives a float; a stack of grids (N, H, W) gives one value per grid.
    """
    pred = as_grids(pred)
    target = as_grids(target)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {target.shape}")
    mse = np.mean((pred - target) ** 2, axis=(-2, -1))
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(1.0 / mse)
    return float(db) if pred.ndim == 2 else db


# ---------------------------------------------------------------------------
# Synthetic clean images (bundled procedural sources)
# ---------------------------------------------------------------------------


# (u, v, amplitude divisor 1 + r^2) of a synthetic image's Fourier terms, 0 < r = hypot(u, v) <= 5
_TERMS = [
    (u, v, 1.0 + r * r) for u in range(-5, 6) for v in range(-5, 6)
    if 0.0 < (r := math.hypot(u, v)) <= 5.0
]


def synthetic_clean_images(n: int, height: int, width: int, seed: int = 0) -> list:
    """Deterministic clean test images: smooth random fields with geometry mixed in."""
    if n < 1:
        raise ConfigError(f"need n >= 1 images, got {n}")
    if height < 3 or width < 3:
        raise ConfigError(f"synthetic images need height and width >= 3, got {height}x{width}")
    if seed < 0:
        raise ConfigError(f"image seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    ii = np.arange(height)[:, None] / height
    jj = np.arange(width)[None, :] / width
    # a term's cell is (u % height, v % width); a later term in a shared cell replaces an earlier
    cells = {(u % height, v % width): t for t, (u, v, _) in enumerate(_TERMS)}
    (rows, cols), kept = np.array(list(cells)).T, list(cells.values())
    divisors = np.array(_TERMS)[kept, 2]
    images = []
    for _ in range(n):
        # smooth random field via low-frequency Fourier synthesis, two draws per term
        draws = np.array([(rng.standard_normal(), 2 * math.pi * rng.random()) for _ in _TERMS])
        amp, phase = draws[kept].T
        spec = np.zeros((height, width), dtype=np.complex128)
        spec[rows, cols] = amp / divisors * np.exp(1j * phase)
        spec = 0.5 * (spec + np.conj(hermitian_flip(spec)))
        base = np.fft.ifft2(spec, norm="ortho").real

        # geometric accents: a couple of rectangles and a disc
        for _ in range(2):
            i0 = rng.integers(0, height // 2)
            j0 = rng.integers(0, width // 2)
            di = int(rng.integers(height // 8, height // 3))
            dj = int(rng.integers(width // 8, width // 3))
            base[i0 : i0 + di, j0 : j0 + dj] += rng.uniform(-0.6, 0.6)
        ci, cj = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
        rad = rng.uniform(0.08, 0.22)
        disc = (ii - ci) ** 2 + (jj - cj) ** 2 <= rad * rad
        base[disc] += rng.uniform(-0.5, 0.5)

        lo, hi = base.min(), base.max()
        span = hi - lo if hi > lo else 1.0
        images.append(0.05 + 0.9 * (base - lo) / span)
    return images


# ---------------------------------------------------------------------------
# PGM (P5, 8- or 16-bit) input images
# ---------------------------------------------------------------------------


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5) -> float grid in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        if data[i : i + 1].isspace():
            i += 1
            continue
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise NumericIntegrityError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise NumericIntegrityError(f"{path}: bad PGM header {tokens[1:]!r}") from exc
    if not (w > 0 and h > 0 and 0 < maxval < 65536):
        raise NumericIntegrityError(f"{path}: bad PGM header {w}x{h} maxval {maxval}")
    i += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    if len(data) - i < w * h * dtype.itemsize:
        raise NumericIntegrityError(f"{path}: truncated PGM payload")
    raw = np.frombuffer(data, dtype=dtype, count=w * h, offset=i)
    if raw.max() > maxval:
        raise NumericIntegrityError(f"{path}: PGM sample {raw.max()} above maxval {maxval}")
    return raw.reshape(h, w).astype(np.float64) / maxval


def write_pgm(path, grid, maxval: int = 255) -> None:
    grid = as_grid(grid)
    if maxval not in (255, 65535):
        raise ConfigError(f"maxval must be 255 or 65535, got {maxval}")
    q = np.clip(np.rint(np.clip(grid, 0.0, 1.0) * maxval), 0, maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (grid.shape[1], grid.shape[0], maxval))
        fh.write(q.astype(dtype).tobytes())


def read_image(path) -> np.ndarray:
    """Dispatch on extension: .pgm -> PGM, anything else -> a one-record FGRID file."""
    if str(path).lower().endswith(".pgm"):
        return read_pgm(path)
    return read_fgrid(path)


# ---------------------------------------------------------------------------
# Paired dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitConfig:
    val_fraction: float = 0.2
    test_fraction: float = 0.0
    split_seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0,1), got {self.val_fraction}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in [0,1), got {self.test_fraction}"
            )
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ConfigError("val_fraction + test_fraction must leave training data")
        if self.split_seed < 0:
            raise ConfigError(f"split seed must be >= 0, got {self.split_seed}")


@dataclass
class PairRow:
    index: int
    kind: str
    seed: int
    clean: np.ndarray
    degraded: np.ndarray


@dataclass
class PairedDataset:
    pairs: list  # list[PairRow]
    train_idx: tuple
    val_idx: tuple
    test_idx: tuple

    def __post_init__(self):
        tr, va, te = set(self.train_idx), set(self.val_idx), set(self.test_idx)
        if (tr & va) or (tr & te) or (va & te):
            raise ConfigError("train/val/test splits overlap")
        if tr | va | te != set(range(len(self.pairs))):
            raise ConfigError("splits do not cover the dataset exactly")

    def rows(self, split: str) -> list:
        """The PairRows of one split ("train", "val" or "test"), in index order."""
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}
        if split not in idx:
            raise ConfigError(f"unknown split {split!r}")
        return [self.pairs[i] for i in idx[split]]

    def restoration_pairs(self, split: str = "val"):
        """(degraded, clean) tuples for the given split, in index order."""
        return [(r.degraded, r.clean) for r in self.rows(split)]


def _stratified_split(kinds: list, split: SplitConfig):
    """Per-kind seeded shuffles; equal validation (and test) counts per kind."""
    by_kind: dict = {}
    for i, k in enumerate(kinds):
        by_kind.setdefault(k, []).append(i)
    rng = np.random.default_rng(split.split_seed)
    train, val, test = [], [], []
    for k in sorted(by_kind):
        idx = np.array(by_kind[k])
        order = rng.permutation(len(idx))
        n_val = int(round(split.val_fraction * len(idx)))
        n_test = int(round(split.test_fraction * len(idx)))
        if n_val + n_test >= len(idx):
            raise ConfigError(
                f"kind {k!r}: {len(idx)} pairs cannot supply {n_val} val + {n_test} test"
            )
        shuffled = idx[order]
        val.extend(shuffled[:n_val])
        test.extend(shuffled[n_val : n_val + n_test])
        train.extend(shuffled[n_val + n_test :])
    return tuple(sorted(train)), tuple(sorted(val)), tuple(sorted(test))


def build_dataset(source_images, specs, split: SplitConfig) -> PairedDataset:
    """Degrade every source image with every spec; stratified seeded splits.

    The per-pair seed is spec.seed + image index, so two pairs of the same
    kind never share a noise realization yet everything stays reproducible.
    Consecutive same-shape images are degraded a util.stacks stack at a time,
    each pair to the bytes apply_degradation gives it.
    """
    source_images = [as_grid(im) for im in source_images]
    specs = list(specs)
    if not source_images:
        raise ConfigError("no source images supplied")
    if not specs:
        raise ConfigError("no degradation specs supplied")
    split.validate()
    for spec in specs:
        spec.validate()
    for img in source_images:
        _check_clean(img)
    rows = []
    for spec in specs:
        first = 0  # index of the stack's first image
        for (stack,) in stacks(source_images):
            seeds = [spec.seed + first + n for n in range(len(stack))]
            for n, out in enumerate(_degrade(stack, spec, seeds)):
                rows.append(PairRow(len(rows), spec.kind, seeds[n], source_images[first + n], out))
            first += len(stack)
    train, val, test = _stratified_split([r.kind for r in rows], split)
    return PairedDataset(rows, train, val, test)


@dataclass
class ManifestRow:
    """One line of manifest.txt: a pair, and the record of its clean grid in clean.fgrid."""

    index: int
    kind: str
    seed: int
    clean: int


def write_dataset(out_dir, dataset: PairedDataset) -> str:
    """Write manifest.txt, clean.fgrid and degraded.fgrid whole into out_dir, made if missing.

    clean.fgrid holds each distinct clean array (by identity: build_dataset
    shares one per source image) once, in order of first use; degraded.fgrid
    one record per pair, in index order. Row k of the manifest is pair k.
    """
    os.makedirs(out_dir, exist_ok=True)
    firsts = {id(r.clean): r.clean for r in dataset.pairs}  # keys in order of first use
    number = {key: n for n, key in enumerate(firsts)}
    write_fgrids(os.path.join(out_dir, "clean.fgrid"), firsts.values())
    write_fgrids(os.path.join(out_dir, "degraded.fgrid"), [r.degraded for r in dataset.pairs])
    rows = [ManifestRow(r.index, r.kind, r.seed, number[id(r.clean)]) for r in dataset.pairs]
    manifest = os.path.join(out_dir, "manifest.txt")
    write_records(manifest, ManifestRow, rows)
    return manifest


def load_dataset(manifest_path, split: SplitConfig) -> PairedDataset:
    """Rebuild what write_dataset wrote, with splits from `split`; errors name the row or record.

    Row k must carry index k and name clean records in order of first use, the
    record files hold exactly the records the rows name, and each pair's two
    grids one shape. Rows naming one clean record share its array.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = read_records(manifest_path, ManifestRow)
    used = 0  # clean records named so far
    for k, m in enumerate(manifest):
        if m.index != k:
            raise NumericIntegrityError(
                f"{manifest_path}: row {k} carries index {m.index}, expected {k}"
            )
        if not 0 <= m.clean <= used:  # numbered in order of first use
            raise NumericIntegrityError(
                f"{manifest_path}: row {k} names clean record {m.clean}, expected 0 to {used}"
            )
        used += m.clean == used
    cleans = read_fgrids(os.path.join(base, "clean.fgrid"), used)
    degradeds = read_fgrids(os.path.join(base, "degraded.fgrid"), len(manifest))
    rows = []
    for m, degraded in zip(manifest, degradeds):
        clean = cleans[m.clean]
        if clean.shape != degraded.shape:
            raise DimensionError(
                f"{manifest_path}: row {m.index}: clean record {m.clean} is {clean.shape}, "
                f"degraded record {m.index} is {degraded.shape}"
            )
        rows.append(PairRow(m.index, m.kind, m.seed, clean, degraded))
    split.validate()
    train, val, test = _stratified_split([r.kind for r in rows], split)
    return PairedDataset(rows, train, val, test)
