"""Frequency-gated restoration operator and its exact analytic gradients.

The operator splits an input grid into complementary bands with a learnable
lowpass kernel, refines the low band with a sigmoid-bounded mask applied in
the frequency domain, refines the high band with a sigmoid-bounded mask
applied in the spatial domain, and sums the two refined branches:

    X    = rfft2(x)                       # half-spectrum of the input
    U    = T_K * X                        # low band's half-spectrum (learnable taps K)
    x_h  = irfft2(X - U)                  # high band
    x_l' = irfft2(M_spec * U)             # spectral gate, M_spec in (0,1)
    x_h' = M_spat * x_h                   # spatial gate, M_spat in (0,1)
    y    = x_l' + x_h'

T_K is the transfer of the taps on the half-spectrum (columns 0..W//2),
Eh @ K @ Ew^T with Eh[u, a] = exp(-2 pi i u (a - c) / H) and Ew alike, so the
low band x_l = x - x_h is the circular convolution `grids.conv2_periodic(x, K)`
up to rounding, and an identity kernel (T_K = 1 exactly) leaves a high band of
exact zeros. The split reuses the spectrum the spectral gate needs anyway,
and x_l itself is never materialised: the gate and the backward read U instead.

The operator runs on one grid (H, W) or on a stack of grids (N, H, W); the
parameters are shared across the stack. The backward pass (`GradSums`) adds
each grid's gradient terms to running sums one grid at a time, in grid order,
and turns the sums into parameter gradients once, so a batch gives the same
gradient bits however it is cut into stacks. Every spectral mask is real and
Hermitian-symmetric, so the gate and its adjoint run on the real half-spectrum
(columns 0..W//2) with the mask's matching columns.

Every gradient is derived by hand from the adjoint of each stage; there is no
autodiff anywhere. The kernel gradient couples through BOTH branches because
x_h depends on K through the band split.

Spectral mask parameterizations:
  * ``per_frequency`` — one logit per DFT coefficient; logits are averaged
    with their Hermitian mirror before the sigmoid so the materialized mask
    is real-symmetric and maps real grids to real grids,
  * ``radial_bins`` — one logit per radial frequency band (shift-invariant,
    shape-agnostic).

Spatial mask parameterizations:
  * ``per_pixel`` — one logit per pixel,
  * ``gap_affine`` — scalar gate sigmoid(a * mean(|x_h|) + b) per grid with
    two learnable scalars (a global-average-pooling affine head).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericIntegrityError
from .grids import as_grids, as_kernel, check_kernel_fits, gaussian_kernel, hermitian_flip
from .util import add_in_order

MASK_PER_FREQUENCY = "per_frequency"
MASK_RADIAL_BINS = "radial_bins"
SPATIAL_PER_PIXEL = "per_pixel"
SPATIAL_GAP_AFFINE = "gap_affine"

# The parameter blocks, by the names `prepare(train=...)` takes.
BLOCKS = ("lowpass", "spectral", "spatial")


def sigmoid(x):
    """Numerically stable logistic; min(x, -x) is -|x| and keeps a NaN's sign bit."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


_BIN_CACHE: dict = {}


def radial_bin_map(h: int, w: int, n_bins: int) -> np.ndarray:
    """Integer map assigning each DFT coefficient to a radial frequency bin.

    Radii use wrapped (signed) integer frequencies; bins partition [0, r_max]
    into n_bins contiguous equal-width intervals, the last one closed.
    """
    key = (h, w, n_bins)
    cached = _BIN_CACHE.get(key)
    if cached is not None:
        return cached
    fu = np.fft.fftfreq(h, d=1.0 / h)  # signed integer frequencies
    fv = np.fft.fftfreq(w, d=1.0 / w)
    r = np.hypot(fu[:, None], fv[None, :])
    r_max = np.hypot(h // 2, w // 2)
    bins = np.minimum((r / r_max * n_bins).astype(np.int64), n_bins - 1)
    _BIN_CACHE[key] = bins
    return bins


@dataclass
class FmmParams:
    """Learnable parameters: lowpass taps + one logit block per gate."""

    lowpass: np.ndarray  # (s, s), s odd
    mask_mode: str  # per_frequency | radial_bins
    spectral_logits: np.ndarray  # (H, W) or (n_bins,)
    spatial_mode: str  # per_pixel | gap_affine
    spatial_logits: np.ndarray  # (H, W) or (2,) = [a, b]

    def copy(self) -> "FmmParams":
        return FmmParams(
            self.lowpass.copy(),
            self.mask_mode,
            self.spectral_logits.copy(),
            self.spatial_mode,
            self.spatial_logits.copy(),
        )


@dataclass
class FmmGrads:
    """Gradients matching FmmParams block shapes; None for a block not trained."""

    lowpass: np.ndarray | None
    spectral_logits: np.ndarray | None
    spatial_logits: np.ndarray | None


@dataclass
class FmmActivations:
    """Forward-pass record: what fmm_backward reads, plus the output y_hat."""

    x_spec: np.ndarray  # rfft2(x), the half-spectrum shaped (..., H, W//2 + 1)
    x_h: np.ndarray  # high band, shaped like the input
    u_l: np.ndarray  # T_K * x_spec, the low band's half-spectrum
    spatial_mask: np.ndarray  # (H, W) mask, or the gate value per grid shaped (..., 1, 1)
    gap_mean: np.ndarray | None  # mean(|x_h|) per grid, shaped (..., 1, 1), in gap_affine mode
    y_hat: np.ndarray


@dataclass(frozen=True)
class Prepared:
    """The operator's arrays that depend only on the parameters and the grid shape.

    Every stack of a training step or a validation pass shares one parameter
    set, so `prepare` builds these once; the three forward stages and the
    backward read them. `train` names the blocks whose gradient the backward
    forms.
    """

    shape: tuple  # the (H, W) they were built for
    transfer: np.ndarray  # T_K on the half-spectrum, (H, W//2 + 1)
    spectral_mask: np.ndarray  # materialized (H, W) real mask
    spectral_half: np.ndarray  # its columns 0..W//2, which the gate and its adjoint apply
    spatial_mask: np.ndarray | None  # the per_pixel sigmoid (H, W); None in gap_affine mode
    train: frozenset  # names from BLOCKS


def default_params(
    height: int,
    width: int,
    *,
    mask_mode: str = MASK_PER_FREQUENCY,
    spatial_mode: str = SPATIAL_PER_PIXEL,
    kernel_size: int = 5,
    n_bins: int = 8,
) -> FmmParams:
    """Fresh parameters: unit-sigma Gaussian lowpass init, all logits zero (masks 0.5)."""
    grid = (height, width)
    p = FmmParams(
        gaussian_kernel(kernel_size, 1.0),
        mask_mode,
        np.zeros(grid if mask_mode == MASK_PER_FREQUENCY else n_bins),
        spatial_mode,
        np.zeros(grid if spatial_mode == SPATIAL_PER_PIXEL else 2),
    )
    validate_params(p, height, width)
    return p


def validate_params(p: FmmParams, h: int | None = None, w: int | None = None) -> None:
    """Check the modes and block shapes of `p`; the per-element blocks against (h, w) if given.

    The one statement of which modes exist and what shape each block has:
    default_params, prepare and the FMMP writer and parser call it.
    Raises ConfigError for an unknown mode and DimensionError for a bad shape.
    """
    as_kernel(p.lowpass)
    if p.mask_mode == MASK_PER_FREQUENCY:
        _check_grid_block("per_frequency", p.spectral_logits, h, w)
    elif p.mask_mode == MASK_RADIAL_BINS:
        if p.spectral_logits.ndim != 1 or p.spectral_logits.shape[0] < 2:
            raise DimensionError(
                f"radial_bins logits must be a vector of >= 2 bins, got {p.spectral_logits.shape}"
            )
    else:
        raise ConfigError(f"unknown mask_mode {p.mask_mode!r}")
    if p.spatial_mode == SPATIAL_PER_PIXEL:
        _check_grid_block("per_pixel", p.spatial_logits, h, w)
    elif p.spatial_mode == SPATIAL_GAP_AFFINE:
        if p.spatial_logits.shape != (2,):
            raise DimensionError(
                f"gap_affine logits must be shape (2,), got {p.spatial_logits.shape}"
            )
    else:
        raise ConfigError(f"unknown spatial_mode {p.spatial_mode!r}")


def prepare(p: FmmParams, h: int, w: int, train=BLOCKS) -> Prepared:
    """Validate `p` against (h, w) and build its parameter-only arrays once.

    `train` names the blocks (from BLOCKS) a `GradSums` on this Prepared
    differentiates; the others' gradient terms are never formed.
    """
    validate_params(p, h, w)
    train = frozenset(train)
    if not train <= set(BLOCKS):
        raise ConfigError(f"unknown parameter blocks {sorted(train - set(BLOCKS))}")
    transfer = half_transfer(p.lowpass, h, w)
    mask = spectral_mask(p, h, w)
    return Prepared(
        (h, w),
        transfer,
        mask,
        np.ascontiguousarray(mask[:, : w // 2 + 1]),
        sigmoid(p.spatial_logits) if p.spatial_mode == SPATIAL_PER_PIXEL else None,
        train,
    )


def _check_shape(prep: Prepared, h: int, w: int) -> None:
    if prep.shape != (h, w):
        raise DimensionError(f"operator prepared for {prep.shape} grids, got {(h, w)}")


def _check_grid_block(mode: str, logits: np.ndarray, h, w) -> None:
    """A per-element logit block is 2-D, and shaped like the grid when one is given."""
    if logits.ndim != 2 or (h is not None and logits.shape != (h, w)):
        grid = "(H, W)" if h is None else (h, w)
        raise DimensionError(f"{mode} logits shape {logits.shape} != grid {grid}")


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def spectral_mask(p: FmmParams, h: int, w: int) -> np.ndarray:
    """Materialize the (H, W) real spectral mask in (0, 1).

    per_frequency logits are symmetrized (averaged with the Hermitian mirror)
    before the sigmoid, so the mask commutes with conjugate symmetry and the
    gated spectrum stays Hermitian. radial_bins masks are symmetric already.
    """
    if p.mask_mode == MASK_PER_FREQUENCY:
        sym = 0.5 * (p.spectral_logits + hermitian_flip(p.spectral_logits))
        return sigmoid(sym)
    bins = radial_bin_map(h, w, p.spectral_logits.shape[0])
    return sigmoid(p.spectral_logits)[bins]


def spectral_mask_grad_to_logits(
    p: FmmParams, h: int, w: int, mask: np.ndarray, g_mask: np.ndarray
) -> np.ndarray:
    """Chain dL/dmask back to the logit block (adjoint of the materialization)."""
    dsig = mask * (1.0 - mask)
    if p.mask_mode == MASK_PER_FREQUENCY:
        t = g_mask * dsig
        # symmetrization S = (I + flip)/2 is self-adjoint
        return 0.5 * (t + hermitian_flip(t))
    bins = radial_bin_map(h, w, p.spectral_logits.shape[0])
    return np.bincount(
        bins.ravel(), weights=(g_mask * dsig).ravel(), minlength=p.spectral_logits.shape[0]
    )


_PHASE_CACHE: dict = {}


def _tap_phases(n: int, s: int) -> np.ndarray:
    """(n, s) DFT phases exp(-2 pi i u (a - c) / n) of the s tap offsets a - c, c = s // 2.

    u (a - c) is reduced mod n before the exponential, so every entry is the
    same root of unity however large u grows.
    """
    key = (n, s)
    cached = _PHASE_CACHE.get(key)
    if cached is None:
        r = np.outer(np.arange(n), np.arange(s) - s // 2) % n
        cached = _PHASE_CACHE[key] = np.exp(-2j * np.pi * r / n)
    return cached


def half_transfer(k, h: int, w: int) -> np.ndarray:
    """Transfer of the taps on the half-spectrum: `grids.transfer(k, h, w)[:, :w//2+1]`.

    Built as Eh @ K @ Ew^T from the cached tap phases; K * x has half-spectrum
    half_transfer(K) * rfft2(x). A kernel larger than the grid raises
    DimensionError rather than wrapping its taps around.
    """
    k = as_kernel(k)
    check_kernel_fits(k, h, w)
    s = k.shape[0]
    return _tap_phases(h, s) @ k @ _tap_phases(w, s)[: w // 2 + 1].T


def band_split(x, prep: Prepared):
    """Split into (high, X, U): U = T_K * X is the low band's half-spectrum.

    X = rfft2(x) and high = irfft2(X - U); the low band x - high is left to
    the caller. An identity kernel gives a high band of exact zeros. T_K is
    `prep.transfer`.
    """
    x = as_grids(x)
    _check_shape(prep, *x.shape[-2:])
    X = np.fft.rfft2(x, norm="ortho")
    U = prep.transfer * X
    high = np.fft.irfft2(X - U, s=prep.shape, norm="ortho")
    return high, X, U


def spectral_gate(u, prep: Prepared):
    """Gate the low band given its half-spectrum `u`: irfft2(mask[:, :W//2+1] * u).

    `spectral_mask` is Hermitian-symmetric by construction, so its half
    columns (`prep.spectral_half`) define the whole gate.
    """
    return np.fft.irfft2(prep.spectral_half * u, s=prep.shape, norm="ortho")


def spatial_gate(high, p: FmmParams, prep: Prepared):
    """Gate the high band in the spatial domain (no FFT on this branch).

    Returns (refined, mask, gap_mean): in per_pixel mode the (H, W) mask of
    `prep` and None; in gap_affine mode the gate value and mean(|high|) of
    each grid, shaped (..., 1, 1).
    """
    high = as_grids(high)
    if p.spatial_mode == SPATIAL_PER_PIXEL:
        m = prep.spatial_mask
        return m * high, m, None
    a, b = p.spatial_logits
    g = np.mean(np.abs(high), axis=(-2, -1), keepdims=True)
    m = sigmoid(a * g + b)
    return m * high, m, g


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def fmm_forward(x, p: FmmParams, prep: Prepared | None = None) -> FmmActivations:
    """Run the operator; y_hat is the gate's output with the spatial branch added in place.

    `prep` is `prepare(p, H, W)`, built here when not given; callers that run
    many stacks with one parameter set build it once and pass it.
    """
    x = as_grids(x)
    prep = prepare(p, *x.shape[-2:]) if prep is None else prep
    x_h, x_spec, u_l = band_split(x, prep)
    y = spectral_gate(u_l, prep)
    x_h_ref, pmask, gap_mean = spatial_gate(x_h, p, prep)
    y += x_h_ref
    return FmmActivations(
        x_spec=x_spec, x_h=x_h, u_l=u_l, spatial_mask=pmask, gap_mean=gap_mean, y_hat=y,
    )


def fmm_backward(
    acts: FmmActivations, p: FmmParams, grad_out, prep: Prepared | None = None
) -> FmmGrads:
    """Exact dL/d(params) given dL/dy: `GradSums` over one stack, finished at once.

    `prep` is the `prepare(p, H, W)` the forward pass used, built here when
    not given, so every block's gradient is formed. For a stack, L is the sum
    of the per-grid losses whose gradients grad_out holds, so the parameter
    gradients are summed over it.
    """
    sums = GradSums(p, prepare(p, *acts.y_hat.shape[-2:]) if prep is None else prep)
    sums.add(acts, grad_out)
    return sums.finish()


class GradSums:
    """The backward pass in two stages, so a batch can run as several stacks.

    `add` takes one stack's activations and dL/dy and adds each grid's terms
    to per-step sums, one grid at a time in grid order, so the sums do not
    depend on how the batch was cut into stacks. `finish` turns the sums into
    FmmGrads once; every step it takes is linear, so it commutes with the sum.

    Spectral path:  dL/dmask(xi) = Re[conj(G)(xi) * u_l(xi)] with G =
    rfft2(grad_out), summed on the half-spectrum; `finish` mirrors the sum
    to the full (H, W) grid (it is Hermitian-symmetric, like the mask) and
    takes it through the sigmoid/symmetrization (or bin pooling) to the
    logits. The gate is self-adjoint: it sends G back to M_half * G.
    Spatial path:   per_pixel sums grad_out * x_h and `finish` multiplies by
    m(1-m); gap_affine chains each grid's scalar gate through its GAP
    statistic and sums the two scalar terms.
    Kernel path:    G_l = M_half * G - rfft2(dL/dx_h) is the spectrum of dL/dx_l:
    the spectral-branch adjoint minus the high-branch feedback (x_h = x - K*x);
    both couplings are mandatory. dL/dK is the adjoint of the transfer map
    K -> T_K = Eh @ K @ Ew^T applied to P = the sum of conj(G_l) * X:
    Re(Eh^T @ (P * w_v) @ Ew), where w_v = 2 on the half-spectrum columns that
    stand for a mirrored pair of full-spectrum columns, and 1 on column 0 and
    (even W) the Nyquist column W/2.

    Only the blocks `prep.train` names are summed, and `finish` gives None
    for the others. A frozen block's terms are formed only where a trained
    block reads them: the kernel path reads the gap_affine gate's per-grid
    dt, and the spectral and kernel paths share G.
    """

    def __init__(self, p: FmmParams, prep: Prepared):
        h, w = prep.shape
        self.p, self.prep = p, prep
        self.spectral = self.kernel = self.spatial = None
        if "spectral" in prep.train:
            self.spectral = np.zeros((h, w // 2 + 1))  # sum of Re(conj(G) * u_l)
        if "lowpass" in prep.train:
            self.kernel = np.zeros((h, w // 2 + 1), dtype=complex)  # sum of conj(G_l) * X
        if "spatial" in prep.train:
            # sum of grad_out * x_h (per_pixel), or of [dt * mean|x_h|, dt] (gap_affine)
            self.spatial = np.zeros((h, w) if p.spatial_mode == SPATIAL_PER_PIXEL else 2)

    def add(self, acts: FmmActivations, grad_out) -> None:
        """Add the terms of each grid of one stack (or of one grid), in grid order."""
        gy = as_grids(grad_out)
        if gy.shape != acts.y_hat.shape:
            raise DimensionError(f"grad_out shape {gy.shape} != output {acts.y_hat.shape}")
        h, w = gy.shape[-2:]
        _check_shape(self.prep, h, w)
        kernel = self.kernel is not None

        if kernel or self.spectral is not None:
            G = np.fft.rfft2(gy, norm="ortho")
        if self.spectral is not None:
            add_in_order(self.spectral, (np.conj(G) * acts.u_l).real)

        m = acts.spatial_mask
        if self.p.spatial_mode == SPATIAL_PER_PIXEL:
            if self.spatial is not None:
                add_in_order(self.spatial, gy * acts.x_h)
            g_xh = gy * m if kernel else None
        elif kernel or self.spatial is not None:
            a = float(self.p.spatial_logits[0])
            s = np.sum(gy * acts.x_h, axis=(-2, -1), keepdims=True)
            dt = s * m * (1.0 - m)  # dL/d(pre-sigmoid scalar), per grid
            if self.spatial is not None:
                add_in_order(self.spatial, np.stack([dt * acts.gap_mean, dt], axis=-1))
            g_xh = m * gy + (dt * a / (h * w)) * np.sign(acts.x_h) if kernel else None

        if kernel:
            G_l = self.prep.spectral_half * G
            G_l -= np.fft.rfft2(g_xh, norm="ortho")
            add_in_order(self.kernel, np.multiply(np.conj(G_l, out=G_l), acts.x_spec, out=G_l))

    def finish(self) -> FmmGrads:
        """The parameter gradients of every grid added so far; the sums are left as they are."""
        p, prep = self.p, self.prep
        h, w = prep.shape
        g_taps = g_spectral = g_spatial = None
        if self.spectral is not None:
            g_mask = _mirror_half_spectrum(self.spectral, w)
            g_spectral = spectral_mask_grad_to_logits(p, h, w, prep.spectral_mask, g_mask)
        if self.spatial is not None and p.spatial_mode == SPATIAL_PER_PIXEL:
            m = prep.spatial_mask
            g_spatial = self.spatial * m * (1.0 - m)
        elif self.spatial is not None:
            g_spatial = self.spatial.copy()
        if self.kernel is not None:
            P = self.kernel.copy()
            P[:, 1 : (w + 1) // 2] *= 2.0  # w_v: these columns stand for a mirrored pair
            size = p.lowpass.shape[0]
            g_taps = (_tap_phases(h, size).T @ P @ _tap_phases(w, size)[: w // 2 + 1]).real
        return FmmGrads(g_taps, g_spectral, g_spatial)


def _mirror_half_spectrum(half: np.ndarray, w: int) -> np.ndarray:
    """Full (H, W) Hermitian-symmetric array from its columns 0..W//2.

    Column j > W//2 is the half's row (-i) % H, column W - j.
    """
    h, k = half.shape
    full = np.empty((h, w))
    full[:, :k] = half
    rows = -np.arange(h) % h
    full[:, k:] = half[rows, w - k : 0 : -1]
    return full


def apply_update(p: FmmParams, g: FmmGrads, lr: float) -> FmmParams:
    """Plain gradient-descent step on every block whose gradient is not None."""
    q = p.copy()
    for name in ("lowpass", "spectral_logits", "spatial_logits"):
        grad = getattr(g, name)
        if grad is not None:
            getattr(q, name)[...] -= lr * grad
    return q


# ---------------------------------------------------------------------------
# FMMP serialization: versioned ASCII header + little-endian float64 blocks
# in declaration order (lowpass, spectral, spatial). Bit-exact round trip.
# ---------------------------------------------------------------------------

FMMP_VERSION = 1


def _fmmp_header(p: FmmParams) -> bytes:
    """The FMMP header of `p` through its DATA line, the one spelling the format has."""
    spec_shape = " ".join(str(d) for d in p.spectral_logits.shape)
    spat_shape = " ".join(str(d) for d in p.spatial_logits.shape)
    return (
        f"FMMP {FMMP_VERSION}\n"
        f"mask_mode {p.mask_mode}\n"
        f"spatial_mode {p.spatial_mode}\n"
        f"kernel {p.lowpass.shape[0]}\n"
        f"spectral {spec_shape}\n"
        f"spatial {spat_shape}\n"
        f"DATA\n"
    ).encode("ascii")


def params_to_bytes(p: FmmParams) -> bytes:
    validate_params(p)
    blocks = (p.lowpass, p.spectral_logits, p.spatial_logits)
    return _fmmp_header(p) + b"".join(
        np.ascontiguousarray(block, dtype="<f8").tobytes() for block in blocks
    )


def params_from_bytes(data: bytes) -> FmmParams:
    """Parse an FMMP payload; any malformed bytes raise NumericIntegrityError."""
    try:
        return _parse_fmmp(data)
    except NumericIntegrityError:
        raise
    except (KeyError, IndexError, ValueError) as exc:  # incl. UnicodeDecodeError
        raise NumericIntegrityError(f"malformed FMMP payload: {exc!r}") from exc


def _parse_fmmp(data: bytes) -> FmmParams:
    """Read the fields that size the blocks, then require the header params_to_bytes writes."""
    head, sep, payload = data.partition(b"DATA\n")
    if not sep:
        raise NumericIntegrityError("FMMP payload missing DATA marker")
    fields = dict(line.partition(" ")[::2] for line in head.decode("ascii").splitlines())
    ksize = int(fields["kernel"])
    spec_shape = tuple(int(v) for v in fields["spectral"].split())
    spat_shape = tuple(int(v) for v in fields["spatial"].split())
    if not (ksize >= 1 and ksize % 2 == 1) or not all(
        1 <= len(s) <= 2 and min(s) >= 1 for s in (spec_shape, spat_shape)
    ):
        raise NumericIntegrityError(
            f"FMMP header has bad block sizes {ksize}, {spec_shape}, {spat_shape}"
        )
    counts = [ksize * ksize, math.prod(spec_shape), math.prod(spat_shape)]
    if len(payload) != 8 * sum(counts):
        raise NumericIntegrityError(
            f"FMMP payload is {len(payload)} bytes, expected {8 * sum(counts)}"
        )
    blocks = []
    off = 0
    for count, shape in zip(counts, [(ksize, ksize), spec_shape, spat_shape]):
        blocks.append(
            np.frombuffer(payload, dtype="<f8", count=count, offset=off)
            .reshape(shape)
            .astype(np.float64)
        )
        off += count * 8
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise NumericIntegrityError("FMMP payload holds NaN or infinite values")
    p = FmmParams(blocks[0], fields["mask_mode"], blocks[1], fields["spatial_mode"], blocks[2])
    validate_params(p)  # a ConfigError or DimensionError is wrapped by params_from_bytes
    if _fmmp_header(p) != head + sep:
        raise NumericIntegrityError(f"FMMP header {head!r} is not the one its writer writes")
    return p


def save_params(path, p: FmmParams) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(p))


def load_params(path) -> FmmParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
