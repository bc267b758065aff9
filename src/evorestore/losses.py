"""Training losses with analytic gradients: Charbonnier and multi-scale SSIM.

Both losses return (value, dvalue/dpred) computed by hand — the MS-SSIM
gradient chains through the Gaussian windowed moments at every scale and the
2x2-average downsampling between scales. Windowing is circular (periodic),
consistent with the package-wide periodic convolution convention, which makes
the window operator exactly self-adjoint.

Each loss takes one grid (H, W) or a stack (N, H, W). A grid gives a float
value; a stack gives one value per grid, shaped (N,), and the gradient of
each grid's value with respect to that grid. At each scale the four windowed
moments of a whole stack (x, y, x^2 + y^2, xy) go through the separable
window: along each axis a cached circulant matrix, or on long axes one
banded block product (_wfilt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .grids import as_grids

DEFAULT_CHARBONNIER_EPS = 1e-3

# Canonical multi-scale exponent weights (finest -> coarsest, 5 dyadic scales).
MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)

# Stability constants for a unit dynamic range.
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2

# Gaussian SSIM window: taps and standard deviation.
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5

# Means of the per-scale maps are clamped at this floor before the fractional
# powers combine them; degenerate anti-correlated inputs would otherwise feed
# a negative base to a fractional exponent.
_MEAN_FLOOR = 1e-8


@dataclass(frozen=True)
class WeightPair:
    """Convex pair (alpha, beta) weighting fidelity vs perceptual loss."""

    alpha: float
    beta: float


@dataclass
class LossValue:
    """Loss terms: floats for one grid, (N,) arrays for a stack."""

    fidelity: float | np.ndarray
    perceptual: float | np.ndarray
    combined: float | np.ndarray


def _pair(pred, target):
    pred = as_grids(pred)
    target = as_grids(target)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {target.shape}")
    return pred, target


def _grid_mean(a: np.ndarray) -> np.ndarray:
    """Mean of each grid, shaped (..., 1, 1) to broadcast against the grids."""
    return np.mean(a, axis=(-2, -1), keepdims=True)


def _per_grid(v: np.ndarray):
    """(..., 1, 1) per-grid values -> a float for one grid, an (N,) array for a stack."""
    return v.item() if v.ndim == 2 else v.reshape(-1)


def charbonnier_eps_squared(eps: float) -> float:
    """eps^2 for a valid Charbonnier eps: eps > 0 and eps * eps a positive finite float.

    Outside that range eps^2 overflows to inf (every loss is inf) or
    underflows to 0 (the gradient is 0/0 = NaN wherever pred == target).
    """
    eps2 = eps * eps
    if not (eps > 0 and 0.0 < eps2 < math.inf):
        raise ConfigError(
            f"charbonnier eps must be > 0 with eps * eps a positive finite float, got {eps}"
        )
    return eps2


def _charbonnier_mean(sq: np.ndarray, eps: float):
    """Charbonnier's value from diff^2 in `sq`, which becomes sqrt(diff^2 + eps^2) in place."""
    np.sqrt(np.add(sq, charbonnier_eps_squared(eps), out=sq), out=sq)
    return _per_grid(_grid_mean(sq))


def charbonnier(pred, target, eps: float = DEFAULT_CHARBONNIER_EPS):
    """Smooth L1 fidelity: mean(sqrt(diff^2 + eps^2)) and its exact gradient."""
    pred, target = _pair(pred, target)
    diff = pred - target
    root = diff * diff
    value = _charbonnier_mean(root, eps)
    root *= diff.shape[-2] * diff.shape[-1]
    return value, np.divide(diff, root, out=diff)


def charbonnier_value(pred, target, eps: float = DEFAULT_CHARBONNIER_EPS):
    """Charbonnier's value alone, the same bits as charbonnier's, from one buffer."""
    pred, target = _pair(pred, target)
    diff = pred - target
    return _charbonnier_mean(np.multiply(diff, diff, out=diff), eps)


# ---------------------------------------------------------------------------
# MS-SSIM
# ---------------------------------------------------------------------------


def _weights_for(scales: int) -> tuple:
    if not 1 <= scales <= len(MS_SSIM_WEIGHTS):
        raise ConfigError(f"scales must be in 1..{len(MS_SSIM_WEIGHTS)}, got {scales}")
    w = np.array(MS_SSIM_WEIGHTS[:scales])
    return tuple(w / w.sum())


@dataclass(frozen=True)
class MsSsimConfig:
    scales: int = 3
    weights: tuple = field(init=False)  # exponent weights, renormalized over `scales`

    def __post_init__(self):
        object.__setattr__(self, "weights", _weights_for(self.scales))

    def validate_shape(self, h: int, w: int) -> None:
        coarse = min(h, w) >> (self.scales - 1)
        if coarse < WINDOW_SIZE:
            raise ConfigError(
                f"grid {h}x{w} too small for {self.scales} dyadic scales with a "
                f"{WINDOW_SIZE}-tap window (coarsest side {coarse})"
            )

    @classmethod
    def for_shape(cls, h: int, w: int) -> "MsSsimConfig":
        """5 scales for large grids, 3-scale renormalized fallback under 176 px."""
        scales = 5 if min(h, w) >= 176 else 3
        while scales > 1 and (min(h, w) >> (scales - 1)) < WINDOW_SIZE:
            scales -= 1
        cfg = cls(scales=scales)
        cfg.validate_shape(h, w)
        return cfg


_TAPS = np.exp(-((np.arange(WINDOW_SIZE) - WINDOW_SIZE // 2) ** 2) / (2.0 * WINDOW_SIGMA**2))
_TAPS /= _TAPS.sum()
_WINDOW_CACHE: dict = {}

# Axes at least this long are filtered as a banded block product, shorter ones
# by their circulant, whose n multiply-adds per pixel win below ~80 px (README).
BAND_MIN_AXIS = 96
_PAD = WINDOW_SIZE // 2
_BLOCK = 32
# _BAND[i, j] = taps[i - j]: output j of a block from samples j .. j + 10 of the
# block's (_BLOCK + 2 * _PAD)-sample window of the circularly padded axis.
_BAND = np.stack([np.pad(_TAPS, (j, _BLOCK - 1 - j)) for j in range(_BLOCK)], axis=1)


def _window(h: int, w: int) -> tuple:
    """(ch, cw): the window's operator along axis -2 (h) and axis -1 (w) of a grid.

    An axis shorter than BAND_MIN_AXIS gets its circulant matrix, cached per
    length (ch @ x @ cw filters x); it is symmetric since the taps are, and
    n >= WINDOW_SIZE (validate_shape), so each entry holds at most one tap.
    A longer axis gets the shared band matrix _BAND.
    """
    for n in (h, w):
        if n not in _WINDOW_CACHE and n < BAND_MIN_AXIS:
            row = np.pad(_TAPS, (0, n - WINDOW_SIZE))
            _WINDOW_CACHE[n] = row[(np.arange(n) - np.arange(n)[:, None] + _PAD) % n]
    return tuple(_WINDOW_CACHE.get(n, _BAND) for n in (h, w))


def _wfilt(x: np.ndarray, win: tuple) -> np.ndarray:
    """Circular correlation of every grid in x with the window, in place; self-adjoint.

    Filters the caller's stack x in place, one slab of its leading axis at a
    time, and returns it; each temporary holds one slab, not a second stack.
    Axis -2 is filtered first, then axis -1, each by the route _window gave it:

    - circulant: slab s becomes (ch @ s) @ cw, n multiply-adds per pixel on
      an axis of length n;
    - banded: the axis is padded circularly by 5 samples at each end and cut
      into blocks of 32 outputs plus one shorter last block; each block's
      42-sample window times _BAND gives its outputs, 42 multiply-adds per
      pixel whatever n is.

    The circulants beat a real FFT pair up to ~160 px, and the banded route
    beats them from ~80 px: 2.5x at 128 px (README, "MS-SSIM").
    """
    ch, cw = win
    for slab in x if x.ndim > 2 else (x,):
        if cw is not _BAND:
            np.matmul(_filter_h(slab, ch), cw, out=slab)
            continue
        w = slab.shape[-1]
        p = np.empty(slab.shape[:-1] + (w + 2 * _PAD,))
        _filter_h(slab, ch, out=p[..., _PAD : w + _PAD])  # straight into the padded buffer
        p[..., :_PAD] = p[..., w : w + _PAD]
        p[..., w + _PAD :] = p[..., _PAD : 2 * _PAD]
        _band_product(p.reshape(-1, w + 2 * _PAD), slab.reshape(-1, w, copy=False), -1)
    return x


def _filter_h(s: np.ndarray, ch: np.ndarray, out=None) -> np.ndarray:
    """The window along axis -2 of each grid of s (ch @ s), into out or a new array."""
    if ch is not _BAND:
        return np.matmul(ch, s, out=out)
    h, w = s.shape[-2:]
    out = np.empty(s.shape) if out is None else out
    g = s.reshape(-1, h, w)
    p = np.empty((len(g), h + 2 * _PAD, w))
    p[:, _PAD : h + _PAD] = g
    p[:, :_PAD] = g[:, h - _PAD :]
    p[:, h + _PAD :] = g[:, :_PAD]
    _band_product(p, out.reshape(-1, h, w, copy=False), -2)
    return out


def _band_product(p: np.ndarray, out: np.ndarray, axis: int) -> None:
    """out = the window along `axis` of p, which pads out's n samples there by _PAD at each end.

    axis -2: p is (N, n + 2 * _PAD, w) and out (N, n, w); axis -1: p is
    (R, n + 2 * _PAD) and out (R, n). The full blocks take one batched matmul
    over a view of p whose block windows overlap, the shorter last block one more.
    """
    n = out.shape[1]
    nb, size, step = n // _BLOCK, _BLOCK + 2 * _PAD, p.strides[1]
    o = out[:, : nb * _BLOCK]
    if axis == -2:
        g, _, w = p.shape
        strides = (p.strides[0], _BLOCK * step, step, p.itemsize)
        blocks = np.ndarray((g, nb, size, w), p.dtype, p, 0, strides)
        np.matmul(_BAND.T, blocks, out=o.reshape((g, nb, _BLOCK, w), copy=False))
    else:
        r = len(p)
        blocks = np.ndarray((nb, r, size), p.dtype, p, 0, (_BLOCK * step, p.strides[0], step))
        np.matmul(blocks, _BAND, out=o.reshape((r, nb, _BLOCK), copy=False).swapaxes(0, 1))
    k = n - nb * _BLOCK
    if k:
        band, tail, o = _BAND[: k + 2 * _PAD, :k], p[:, nb * _BLOCK :], out[:, nb * _BLOCK :]
        np.matmul(band.T, tail, out=o) if axis == -2 else np.matmul(tail, band, out=o)


def _downsample2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling of each grid; trailing odd row/column is dropped."""
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    v = x[..., : 2 * h2, : 2 * w2]
    return 0.25 * (
        v[..., 0::2, 0::2] + v[..., 1::2, 0::2] + v[..., 0::2, 1::2] + v[..., 1::2, 1::2]
    )


def _upsample_adjoint(g: np.ndarray, shape) -> np.ndarray:
    """Exact adjoint of _downsample2 onto the given finer shape."""
    out = np.zeros(shape)
    h2, w2 = g.shape[-2:]
    q = 0.25 * g
    out[..., 0 : 2 * h2 : 2, 0 : 2 * w2 : 2] = q
    out[..., 1 : 2 * h2 : 2, 0 : 2 * w2 : 2] = q
    out[..., 0 : 2 * h2 : 2, 1 : 2 * w2 : 2] = q
    out[..., 1 : 2 * h2 : 2, 1 : 2 * w2 : 2] = q
    return out


def _ssim_parts(x, y, win, with_luminance, for_backward):
    """Windowed SSIM maps of two stacks, built in place on one buffer of the four moments.

    Only q = sxx + syy + c2 needs the variances, and the window is linear, so
    x^2 + y^2 is filtered once in place of x^2 and y^2. Without a backward
    nothing reads q once cs is formed, so the luminance's denominator s takes
    its buffer.
    """
    moments = np.empty((4,) + x.shape)
    mx, my, ess, exy = moments
    mx[...], my[...] = x, y
    np.add(np.multiply(x, x, out=ess), np.multiply(y, y, out=exy), out=ess)
    np.multiply(x, y, out=exy)
    _wfilt(moments, win)
    t = mx * my
    sxy = np.subtract(exy, t, out=exy)
    q = np.subtract(ess, np.multiply(mx, mx, out=t), out=ess)
    q -= np.multiply(my, my, out=t)
    q += SSIM_C2  # ess - mx mx - my my + c2
    cs = np.add(np.multiply(sxy, 2.0, out=sxy), SSIM_C2, out=sxy)
    cs /= q  # (2 sxy + c2) / q
    parts = {"x": x, "y": y, "mx": mx, "my": my, "q": q, "cs": cs, "win": win}
    if with_luminance:
        s = np.multiply(mx, mx, out=None if for_backward else q)
        np.add(np.add(s, np.multiply(my, my, out=t), out=s), SSIM_C1, out=s)
        l = np.add(np.multiply(np.multiply(mx, 2.0, out=t), my, out=t), SSIM_C1, out=t)
        parts["s"], parts["l"] = s, np.divide(l, s, out=l)  # (2 mx my + c1) / s
    return parts


def _ssim_scale_backward(parts, g_cs_mean, g_l_mean):
    """dJ/dx for one scale given per-grid grads on mean(cs) (and mean(l) at the coarsest)."""
    x, y = parts["x"], parts["y"]
    n = x.shape[-2] * x.shape[-1]
    u = g_cs_mean / n
    adj = np.empty((3,) + x.shape)
    a_sxx, a_sxy, mean_term = adj
    np.multiply(np.divide(2.0, parts["q"], out=a_sxy), u, out=a_sxy)  # u (2 / q)
    np.divide(np.negative(parts["cs"], out=a_sxx), parts["q"], out=a_sxx)
    a_sxx *= u  # u (-cs / q)
    np.multiply(np.multiply(a_sxx, 2.0, out=mean_term), parts["mx"], out=mean_term)
    t = a_sxy * parts["my"]
    mean_term += t  # 2 a_sxx mx + a_sxy my
    if g_l_mean is not None:
        b_mx = np.subtract(parts["my"], np.multiply(parts["l"], parts["mx"], out=t), out=t)
        b_mx *= (g_l_mean / n) * 2.0
        mean_term -= np.divide(b_mx, parts["s"], out=b_mx)  # (g_l / n) 2 (my - l mx) / s
    f_sxx, f_sxy, f_mean = _wfilt(adj, parts["win"])
    g = np.multiply(np.multiply(x, 2.0, out=t), f_sxx, out=t)
    g += np.multiply(y, f_sxy, out=f_sxy)
    return np.subtract(g, f_mean, out=g)  # 2 x f_sxx + y f_sxy - f_mean


def _ms_ssim_core(pred, target, cfg: MsSsimConfig, want_grad: bool, want_ssim: bool = False):
    """MS-SSIM of a grid or of each grid of a stack.

    Returns (values, grads or None, SSIM values or None); the values are
    shaped (..., 1, 1). The SSIM values are the single-scale index at the
    finest scale, from the same windowed moments; want_ssim needs want_grad
    false, as the index is formed in the luminance map's buffer. The value
    path lets go of each scale's maps once it has their means.
    """
    cfg.validate_shape(*pred.shape[-2:])
    x, y, ssim = pred, target, None
    parts_all, cs_means = [], []
    for j in range(cfg.scales):
        if j:
            x, y = _downsample2(x), _downsample2(y)
        coarsest = j == cfg.scales - 1
        finest_ssim = want_ssim and j == 0
        parts = _ssim_parts(x, y, _window(*x.shape[-2:]), coarsest or finest_ssim, want_grad)
        cs_means.append(np.maximum(_grid_mean(parts["cs"]), _MEAN_FLOOR))
        if coarsest:
            l_mean = np.maximum(_grid_mean(parts["l"]), _MEAN_FLOOR)
        if finest_ssim:  # l * cs into l's buffer: every mean of l is taken
            ssim = _grid_mean(np.multiply(parts["l"], parts["cs"], out=parts["l"]))
        if want_grad:
            parts_all.append(parts)
        del parts

    w = cfg.weights
    value = l_mean ** w[-1]
    for j in range(cfg.scales):
        value = value * cs_means[j] ** w[j]

    if not want_grad:
        return value, None, ssim

    # Scalar chain per grid: value = prod_j csm_j^{w_j} * lm^{w_last}
    g_cs = [value * w[j] / cs_means[j] for j in range(cfg.scales)]
    g_l = value * w[-1] / l_mean
    # Walk coarse -> fine, pushing through the downsampling adjoint.
    g = None
    for j in range(cfg.scales - 1, -1, -1):
        parts = parts_all[j]
        dx = _ssim_scale_backward(parts, g_cs[j], g_l if j == cfg.scales - 1 else None)
        g = dx if g is None else np.add(dx, _upsample_adjoint(g, parts["x"].shape), out=dx)
    return value, g, ssim


def _ms_ssim_call(pred, target, cfg, want_grad, want_ssim=False):
    pred, target = _pair(pred, target)
    if cfg is None:
        cfg = MsSsimConfig.for_shape(*pred.shape[-2:])
    value, grad, ssim = _ms_ssim_core(pred, target, cfg, want_grad, want_ssim)
    return _per_grid(value), grad, (None if ssim is None else _per_grid(ssim))


def ms_ssim(pred, target, cfg: MsSsimConfig | None = None):
    """Multi-scale SSIM in [0, 1] and its exact gradient wrt pred.

    cs terms contribute at every scale, the luminance term only at the
    coarsest, each raised to its (renormalized) canonical exponent weight.
    """
    return _ms_ssim_call(pred, target, cfg, want_grad=True)[:2]


def ms_ssim_value(pred, target, cfg: MsSsimConfig | None = None):
    """Value-only MS-SSIM (skips the backward bookkeeping)."""
    return _ms_ssim_call(pred, target, cfg, want_grad=False)[0]


def ssim_and_ms_ssim(pred, target):
    """(single-scale SSIM, MS-SSIM) in one pass, from the same windowed moments.

    MS-SSIM takes the scales `MsSsimConfig.for_shape` picks for the grids.
    """
    value, _, ssim = _ms_ssim_call(pred, target, None, want_grad=False, want_ssim=True)
    return ssim, value


def combined_loss(
    pred,
    target,
    weights: WeightPair,
    eps: float = DEFAULT_CHARBONNIER_EPS,
    ms_cfg: MsSsimConfig | None = None,
):
    """alpha * Charbonnier + beta * (1 - MS-SSIM); returns (LossValue, grad).

    At beta == 0.0 (the fidelity vertex of the simplex) MS-SSIM is still
    valued, so both terms are logged, but its backward is skipped. With a
    finite MS-SSIM gradient the result differs from a g_fid - b g_ms only in
    the sign of a zero.
    """
    a, b = weights.alpha, weights.beta
    fid, g_fid = charbonnier(pred, target, eps)
    if b == 0.0:
        perc = 1.0 - ms_ssim_value(pred, target, ms_cfg)
        grad = np.multiply(g_fid, a, out=g_fid)
    else:
        ms, g_ms = ms_ssim(pred, target, ms_cfg)
        perc = 1.0 - ms
        g_fid *= a
        grad = np.subtract(g_fid, np.multiply(g_ms, b, out=g_ms), out=g_fid)  # a g_fid - b g_ms
    combined = a * fid + b * perc
    return LossValue(fid, perc, combined), grad
