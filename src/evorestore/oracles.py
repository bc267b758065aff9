"""Independent verification routines: every numerical claim gets a second route.

Each check here deliberately avoids the implementation path it validates:

* circular convolution  -> brute-force double loop over output pixels/taps;
* band split            -> `fmm.band_split`, the operator's own split, checked
                           coefficient by coefficient against the transfer-
                           function identity under the full unitary DFT;
* analytic gradients    -> central finite differences;
* simplex projection    -> generic sort-based projection algorithm;
* learned spectral mask -> closed-form per-frequency MMSE (Wiener) solution
                           S / (S + sigma^2), with S the unitary-DFT power
                           spectrum of the clean image and sigma^2 the white
                           noise variance (unitary DFTs keep white noise
                           variance per coefficient, so no extra H*W factor).

`run_all` powers the CLI `oracle` subcommand; the acceptance suite reuses the
same routines with its own pinned tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fmm
from .degrade import psnr
from .errors import ConfigError
from .grids import conv2_periodic, fft2, hermitian_flip, identity_kernel, transfer
from .losses import MsSsimConfig, charbonnier, ms_ssim
from .util import stacks


@dataclass
class OracleResult:
    name: str
    error: float
    tol: float
    passed: bool
    detail: str = ""


def _result(name, error, tol, detail="") -> OracleResult:
    return OracleResult(name, float(error), float(tol), bool(error <= tol), detail)


# ---------------------------------------------------------------------------
# Convolution / band split
# ---------------------------------------------------------------------------


def brute_conv2(x, k) -> np.ndarray:
    """Double-loop circular convolution; accumulation order matches conv2_periodic."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    hh, ww = x.shape
    s = k.shape[0]
    c = s // 2
    out = np.zeros_like(x)
    for a in range(s):
        for b in range(s):
            t = k[a, b]
            for i in range(hh):
                for j in range(ww):
                    out[i, j] += t * x[(i - (a - c)) % hh, (j - (b - c)) % ww]
    return out


def check_conv_bruteforce(trials: int = 8, seed: int = 101) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        h = int(rng.integers(5, 12))
        w = int(rng.integers(5, 12))
        s = int(rng.choice([1, 3, 5]))
        x = rng.random((h, w))
        k = rng.normal(size=(s, s))
        worst = max(worst, float(np.max(np.abs(conv2_periodic(x, k) - brute_conv2(x, k)))))
    return _result("conv2_bruteforce", worst, 0.0, f"{trials} random instances, exact match")


def check_split_equivalence(trials: int = 50, seed: int = 303) -> OracleResult:
    """The operator's band split vs its frequency-domain transfer identity.

    For each seeded (image, kernel) pair runs `fmm.band_split` with the kernel
    as lowpass, takes low = x - high, and checks it by the frequency route and
    the high band by the spatial route (a periodic convolution):
      max |fft2(low) - transfer(k) * fft2(x)|  and  max |high - (x - conv2_periodic(x, k))|.
    Returns the worse of the two maxima relative to their tolerances.
    """
    rng = np.random.default_rng(seed)
    worst_spec = 0.0
    worst_spatial = 0.0
    for _ in range(trials):
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        x = rng.random((h, w))
        k = rng.normal(size=(int(rng.choice([3, 5, 7])),) * 2)
        k /= max(np.sum(np.abs(k)), 1e-9)
        p = fmm.default_params(h, w)
        p.lowpass = k
        high = fmm.band_split(x, fmm.prepare(p, h, w))[0]
        low = x - high
        worst_spec = max(worst_spec, float(np.max(np.abs(fft2(low) - transfer(k, h, w) * fft2(x)))))
        spatial = np.max(np.abs(high - (x - conv2_periodic(x, k))))
        worst_spatial = max(worst_spatial, float(spatial))
    detail = f"spectral {worst_spec:.2e} <= 1e-9, spatial {worst_spatial:.2e} <= 1e-12"
    # normalized worst-case: <=1 iff both pass
    score = max(worst_spec / 1e-9, worst_spatial / 1e-12)
    return OracleResult("band_split_equivalence", score, 1.0, score <= 1.0, detail)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def fd_gradient(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x0, component by component."""
    g = np.zeros_like(x0, dtype=np.float64)
    flat = x0.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        fp = f(x0)
        flat[i] = keep - step
        fm = f(x0)
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative disagreement of two gradients."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    denom = max(na, nb, 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def _loss_through_params(x, target, p: fmm.FmmParams) -> float:
    y = fmm.fmm_forward(x, p).y_hat
    return float(np.mean((y - target) ** 2))


def _param_grads(x, target, p: fmm.FmmParams) -> fmm.FmmGrads:
    acts = fmm.fmm_forward(x, p)
    g_out = 2.0 * (acts.y_hat - target) / target.size
    return fmm.fmm_backward(acts, p, g_out)


def _random_params(rng, h, w, mask_mode, spatial_mode) -> fmm.FmmParams:
    p = fmm.default_params(
        h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, kernel_size=5, n_bins=4
    )
    p.lowpass = p.lowpass + 0.05 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(scale=0.7, size=p.spectral_logits.shape)
    p.spatial_logits = rng.normal(scale=0.7, size=p.spatial_logits.shape)
    return p


FMM_GRAD_CLASSES = (
    ("lowpass", "per_frequency", "per_pixel"),
    ("spectral_per_frequency", "per_frequency", "per_pixel"),
    ("spectral_radial_bins", "radial_bins", "per_pixel"),
    ("spatial_per_pixel", "per_frequency", "per_pixel"),
    ("spatial_gap_affine", "per_frequency", "gap_affine"),
    ("lowpass_gap_affine", "radial_bins", "gap_affine"),
)


def check_fmm_gradients(
    trials: int = 20, size: int = 12, step: float = 1e-5, seed: int = 404
) -> list:
    """Central-FD verification of every parameter-block gradient class."""
    results = []
    for class_idx, (name, mask_mode, spatial_mode) in enumerate(FMM_GRAD_CLASSES):
        rng = np.random.default_rng(seed + 131 * class_idx)
        block = "lowpass" if name.startswith("lowpass") else (
            "spectral_logits" if name.startswith("spectral") else "spatial_logits"
        )
        worst = 0.0
        for _ in range(trials):
            x = rng.random((size, size))
            target = rng.random((size, size))
            p = _random_params(rng, size, size, mask_mode, spatial_mode)
            analytic = getattr(_param_grads(x, target, p), block)
            arr = getattr(p, block)
            fd = fd_gradient(lambda _a: _loss_through_params(x, target, p), arr, step)
            worst = max(worst, rel_error(analytic, fd))
        results.append(_result(f"fd_{name}", worst, 1e-4, f"{trials} trials @ {size}x{size}"))
    return results


def check_charbonnier_gradient(
    trials: int = 20, size: int = 12, step: float = 1e-5, seed: int = 505
) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pred = rng.random((size, size))
        target = rng.random((size, size))
        _, g = charbonnier(pred, target)
        fd = fd_gradient(lambda a: charbonnier(a, target)[0], pred, step)
        worst = max(worst, rel_error(g, fd))
    return _result("fd_charbonnier", worst, 1e-4, f"{trials} trials @ {size}x{size}")


def check_ms_ssim_gradient(
    trials: int = 20,
    size: int = 48,
    step: float = 1e-5,
    seed: int = 606,
    components: int = 10,
    directions: int = 2,
) -> OracleResult:
    """FD check of the MS-SSIM gradient: sampled components + random directions.

    A full component sweep at 48x48 would need ~92k loss evaluations; sampled
    coordinates plus directional derivatives test the same gradient field at a
    fraction of the cost.
    """
    rng = np.random.default_rng(seed)
    cfg = MsSsimConfig(scales=3)
    worst = 0.0
    for _ in range(trials):
        base = rng.random((size, size))
        target = np.clip(base + 0.1 * rng.normal(size=base.shape), 0.0, 1.0)
        pred = np.clip(base + 0.1 * rng.normal(size=base.shape), 0.0, 1.0)
        _, g = ms_ssim(pred, target, cfg)
        flat = pred.ravel()
        for i in rng.choice(pred.size, size=components, replace=False):
            keep = flat[i]
            flat[i] = keep + step
            fp = ms_ssim(pred, target, cfg)[0]
            flat[i] = keep - step
            fm = ms_ssim(pred, target, cfg)[0]
            flat[i] = keep
            fd_i = (fp - fm) / (2.0 * step)
            gi = g.ravel()[i]
            worst = max(worst, abs(fd_i - gi) / max(abs(fd_i), abs(gi), 1e-7))
        for _ in range(directions):
            d = rng.normal(size=pred.shape)
            d /= np.linalg.norm(d)
            fp = ms_ssim(pred + step * d, target, cfg)[0]
            fm = ms_ssim(pred - step * d, target, cfg)[0]
            fd_dir = (fp - fm) / (2.0 * step)
            an_dir = float(np.sum(g * d))
            worst = max(worst, abs(fd_dir - an_dir) / max(abs(fd_dir), abs(an_dir), 1e-9))
    return _result("fd_ms_ssim", worst, 1e-3, f"{trials} trials @ {size}x{size}")


# ---------------------------------------------------------------------------
# Simplex projection
# ---------------------------------------------------------------------------


def simplex_projection_oracle(v) -> np.ndarray:
    """Generic sort-based Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def check_simplex_projection(n: int = 1000, seed: int = 707) -> OracleResult:
    from .eos import project_simplex

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a, b = rng.uniform(-2.0, 3.0, size=2)
        got = project_simplex(float(a), float(b))
        want = simplex_projection_oracle([a, b])
        worst = max(worst, abs(got.alpha - want[0]), abs(got.beta - want[1]))
        if got.alpha < 0 or got.beta < 0 or abs(got.alpha + got.beta - 1.0) > 1e-12:
            return OracleResult(
                "simplex_projection", math.inf, 1e-12, False, f"invariant broken at ({a}, {b})"
            )
    return _result("simplex_projection", worst, 1e-12, f"{n} random points vs sort-based oracle")


# ---------------------------------------------------------------------------
# Wiener / MMSE mask recovery
# ---------------------------------------------------------------------------


def make_spectral_test_image(
    height: int = 64,
    width: int = 64,
    seed: int = 11,
    r_lo: float = 2.0,
    r_hi: float = 3.0,
) -> np.ndarray:
    """Clean image with a known two-level power spectrum.

    Unit-magnitude coefficients with random (Hermitian-symmetrized) phases on
    a thin annulus of wrapped integer frequencies, zero everywhere else, then
    affinely normalized to [0.15, 0.85].  Two properties matter for the mask
    recovery check: every populated coefficient sits far above the noise
    floor (so the checked set has no gray zone where the finite-sample
    optimum wobbles), and all populated coefficients share one amplitude (so
    gradient descent converges uniformly across the checked set).
    """
    rng = np.random.default_rng(seed)
    fu = np.fft.fftfreq(height, d=1.0 / height)
    fv = np.fft.fftfreq(width, d=1.0 / width)
    r = np.hypot(fu[:, None], fv[None, :])
    support = (r >= r_lo) & (r <= r_hi)
    spec = np.where(
        support, np.exp(1j * rng.uniform(0, 2 * math.pi, size=(height, width))), 0.0
    )
    spec = 0.5 * (spec + np.conj(hermitian_flip(spec)))
    # symmetrizing random phases would randomize magnitudes too; keep only the
    # symmetric phase and pin every support coefficient back to magnitude one
    spec = np.where(support, np.exp(1j * np.angle(spec)), 0.0)
    img = np.fft.ifft2(spec, norm="ortho").real
    lo, hi = img.min(), img.max()
    return 0.15 + 0.70 * (img - lo) / (hi - lo)


def wiener_mask_oracle(clean, sigma: float) -> np.ndarray:
    """Closed-form per-frequency MMSE mask for white noise of std sigma.

    Computed straight from numpy's unitary DFT, independent of the package's
    grid/mask machinery.
    """
    u = np.fft.fft2(np.asarray(clean, dtype=np.float64), norm="ortho")
    s = np.abs(u) ** 2
    return s / (s + sigma * sigma)


@dataclass
class WienerReport:
    mask_linf: float
    checked: int
    psnr_noisy: float
    psnr_denoised: float
    gain_db: float
    iterations: int


def wiener_recovery(
    height: int = 64,
    width: int = 64,
    sigma: float = 25.0 / 255.0,
    n_train: int = 64,
    iterations: int = 1600,
    lr: float = 100.0,
    seed: int = 11,
) -> WienerReport:
    """Train a per-frequency spectral mask on noisy copies of one clean image.

    Mask-only training of the micro restoration operator: the lowpass kernel
    is pinned to the 1x1 identity (so the high branch is exactly zero and the
    spectral mask is the only active block) and plain full-batch GD runs on
    the fidelity (Charbonnier) loss alone — the alpha=1 vertex of the weight
    pair. The learned mask is then compared with the closed-form MMSE oracle
    over every frequency whose signal power exceeds the noise floor sigma^2,
    and the trained model must denoise a held-out realization by >= 3 dB.

    The noisy copies are deliberately NOT clipped to the display range: the
    closed-form target assumes exactly white Gaussian noise, and clipping
    would bias the empirical optimum away from it.
    """
    clean = make_spectral_test_image(height, width, seed=seed)
    rng = np.random.default_rng(seed + 1)
    noisy = [clean + rng.normal(0.0, sigma, clean.shape) for _ in range(n_train)]
    holdout = clean + rng.normal(0.0, sigma, clean.shape)

    p = fmm.FmmParams(
        lowpass=identity_kernel(1),
        mask_mode=fmm.MASK_PER_FREQUENCY,
        spectral_logits=np.zeros((height, width)),
        spatial_mode=fmm.SPATIAL_GAP_AFFINE,
        spatial_logits=np.zeros(2),
    )
    # util.stacks' default budget holds 8 grids of 64 px per call.
    batches = list(stacks(noisy, [clean] * n_train))
    for _ in range(iterations):
        sums = fmm.GradSums(p, fmm.prepare(p, height, width, train=("spectral",)))
        for x, target in batches:
            acts = fmm.fmm_forward(x, p, sums.prep)
            sums.add(acts, charbonnier(acts.y_hat, target)[1])
        p = fmm.apply_update(p, sums.finish(), lr / n_train)

    learned = fmm.spectral_mask(p, height, width)
    target = wiener_mask_oracle(clean, sigma)
    s_power = np.abs(np.fft.fft2(clean, norm="ortho")) ** 2
    checked = s_power > sigma * sigma
    mask_linf = float(np.max(np.abs(learned - target)[checked]))

    restored = fmm.fmm_forward(holdout, p).y_hat
    p_noisy = psnr(holdout, clean)
    p_out = psnr(restored, clean)
    return WienerReport(
        mask_linf=mask_linf,
        checked=int(np.sum(checked)),
        psnr_noisy=p_noisy,
        psnr_denoised=p_out,
        gain_db=p_out - p_noisy,
        iterations=iterations,
    )


def check_wiener(fast: bool = False) -> OracleResult:
    if fast:
        rep = wiener_recovery(height=32, width=32, n_train=32, iterations=500, lr=40.0)
    else:
        rep = wiener_recovery()
    detail = (
        f"mask Linf {rep.mask_linf:.4f} over {rep.checked} coeffs; "
        f"PSNR {rep.psnr_noisy:.2f} -> {rep.psnr_denoised:.2f} dB (gain {rep.gain_db:.2f})"
    )
    score = max(rep.mask_linf / 0.05, 3.0 / max(rep.gain_db, 1e-9))
    return OracleResult("wiener_mask_recovery", score, 1.0, score <= 1.0, detail)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def run_all(only: str | None = None, fast: bool = False) -> list:
    # (names the group will emit, thunk) — groups whose names all miss the
    # `only` filter are skipped entirely, so cheap checks stay cheap to select
    groups = (
        (("conv2_bruteforce",), lambda: [check_conv_bruteforce()]),
        (("band_split_equivalence",), lambda: [check_split_equivalence(10 if fast else 50)]),
        (("simplex_projection",), lambda: [check_simplex_projection()]),
        (
            tuple(f"fd_{name}" for name, _, _ in FMM_GRAD_CLASSES),
            lambda: check_fmm_gradients(3 if fast else 10),
        ),
        (("fd_charbonnier",), lambda: [check_charbonnier_gradient(5 if fast else 20)]),
        (("fd_ms_ssim",), lambda: [check_ms_ssim_gradient(3 if fast else 10)]),
        (("wiener_mask_recovery",), lambda: [check_wiener(fast)]),
    )
    results: list[OracleResult] = []
    for names, thunk in groups:
        if only is not None and not any(only in n for n in names):
            continue
        results.extend(r for r in thunk() if only is None or only in r.name)
    if only is not None and not results:
        raise ConfigError(f"no oracle matches {only!r}")
    return results
