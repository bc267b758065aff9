"""Output checks for the benchmark, written against the benchmark's own numpy.

Each check raises CheckFailed with a message that names what differed. The
reference computations here (FFT convolutions, the operator in the frequency
domain, PSNR, Charbonnier, SSIM and MS-SSIM) are re-derived from the
definitions in the package's docstrings, not imported from the package, so a
change that breaks the package's arithmetic shows up as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

# Definitions the package documents: SSIM constants for unit range, the
# canonical MS-SSIM exponents, the floor on per-scale means, the window.
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
MEAN_FLOOR = 1e-8
WINDOW_SIZE, WINDOW_SIGMA = 11, 1.5
CHARBONNIER_EPS = 1e-3

OPERATOR_TOL = 1e-9  # reference operator and blur vs the package
METRIC_TOL = 1e-9  # recomputed evaluate() means vs the table
CLOSED_FORM_TOL = 1e-12  # haze and lowlight: one multiply-add per pixel
GRAD_STEP = 1e-5  # central-difference step per element (RMS), as in the oracle suite
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-10


class CheckFailed(Exception):
    """An output of the package disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------


def sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=np.float64)))


def gaussian_taps(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size, dtype=np.float64) - size // 2
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def kernel_spectrum(taps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Unnormalised DFT of the taps placed with their centre on the origin."""
    s = taps.shape[0]
    pad = np.zeros((h, w))
    off = np.arange(s) - s // 2
    pad[np.ix_(off % h, off % w)] = taps
    return np.fft.fft2(pad)


def circular_filter(x: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(np.fft.fft2(x) * spectrum).real


def blur_reference(clean: np.ndarray, kernel_sigma: float) -> np.ndarray:
    """Circular Gaussian blur: 2*ceil(3 sigma)+1 taps, capped at the largest odd side."""
    h, w = clean.shape
    size = 2 * math.ceil(3.0 * kernel_sigma) + 1
    largest = min(h, w) if min(h, w) % 2 else min(h, w) - 1
    taps = gaussian_taps(min(size, largest), kernel_sigma)
    return np.clip(circular_filter(clean, kernel_spectrum(taps, h, w)), 0.0, 1.0)


def radial_bins(h: int, w: int, n_bins: int) -> np.ndarray:
    fu = np.fft.fftfreq(h) * h
    fv = np.fft.fftfreq(w) * w
    r = np.hypot(fu[:, None], fv[None, :]) / np.hypot(h // 2, w // 2)
    return np.minimum(np.floor(r * n_bins).astype(np.int64), n_bins - 1)


def spectral_mask_reference(params, h: int, w: int) -> np.ndarray:
    logits = params.spectral_logits
    if params.mask_mode == "per_frequency":
        mirror = logits[np.ix_(-np.arange(h) % h, -np.arange(w) % w)]
        return sigmoid(0.5 * (logits + mirror))
    return sigmoid(logits)[radial_bins(h, w, logits.shape[0])]


def operator_reference(params, x: np.ndarray) -> np.ndarray:
    """y = ifft2(M T_K X) + m (x - ifft2(T_K X)), built from the logits."""
    h, w = x.shape
    tk_x = kernel_spectrum(params.lowpass, h, w) * np.fft.fft2(x)
    low = np.fft.ifft2(tk_x).real
    high = x - low
    refined_low = np.fft.ifft2(spectral_mask_reference(params, h, w) * tk_x).real
    if params.spatial_mode == "per_pixel":
        m = sigmoid(params.spatial_logits)
    else:
        a, b = params.spatial_logits
        m = sigmoid(a * np.mean(np.abs(high)) + b)
    return refined_low + m * high


def psnr_db(y: np.ndarray, clean: np.ndarray) -> float:
    return 10.0 * math.log10(1.0 / float(np.mean((y - clean) ** 2)))


def charbonnier_mean(y: np.ndarray, clean: np.ndarray, eps: float = CHARBONNIER_EPS) -> float:
    d = y - clean
    return float(np.mean(np.sqrt(d * d + eps * eps)))


def _ssim_maps(x, y):
    spec = kernel_spectrum(gaussian_taps(WINDOW_SIZE, WINDOW_SIGMA), *x.shape)
    mx, my = circular_filter(x, spec), circular_filter(y, spec)
    sxx = circular_filter(x * x, spec) - mx * mx
    syy = circular_filter(y * y, spec) - my * my
    sxy = circular_filter(x * y, spec) - mx * my
    cs = (2.0 * sxy + SSIM_C2) / (sxx + syy + SSIM_C2)
    lum = (2.0 * mx * my + SSIM_C1) / (mx * mx + my * my + SSIM_C1)
    return lum, cs


def ssim_reference(x, y) -> float:
    lum, cs = _ssim_maps(x, y)
    return float(np.mean(lum * cs))


def ms_ssim_reference(x, y) -> float:
    """MS-SSIM with 2x2 mean pooling: 5 scales from 176 px, else as many of 3 as fit."""
    side = min(x.shape)
    scales = 5 if side >= 176 else 3
    while scales > 1 and (side >> (scales - 1)) < WINDOW_SIZE:
        scales -= 1
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    value = 1.0
    for j in range(scales):
        lum, cs = _ssim_maps(x, y)
        value *= max(float(np.mean(cs)), MEAN_FLOOR) ** weights[j]
        if j == scales - 1:
            value *= max(float(np.mean(lum)), MEAN_FLOOR) ** weights[j]
        else:
            x, y = _pool2(x), _pool2(y)
    return value


def _pool2(x):
    h, w = x.shape[0] // 2 * 2, x.shape[1] // 2 * 2
    v = x[:h, :w]
    return 0.25 * (v[0::2, 0::2] + v[1::2, 0::2] + v[0::2, 1::2] + v[1::2, 1::2])


def model_bytes(params) -> bytes:
    blocks = (params.lowpass, params.spectral_logits, params.spatial_logits)
    head = f"{params.mask_mode} {params.spatial_mode} {[b.shape for b in blocks]}"
    return head.encode() + b"".join(np.ascontiguousarray(b, "<f8").tobytes() for b in blocks)


def validation_means(params, pairs, eps: float = CHARBONNIER_EPS):
    """Mean (Charbonnier, 1 - MS-SSIM) over (degraded, clean) pairs, by reference."""
    fid = perc = 0.0
    for degraded, clean in pairs:
        y = operator_reference(params, degraded)
        fid += charbonnier_mean(y, clean, eps)
        perc += 1.0 - ms_ssim_reference(y, clean)
    return fid / len(pairs), perc / len(pairs)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def check_roundtrip(built, loaded) -> None:
    """The dataset read back from its manifest is the one that was written."""
    require(len(built.pairs) == len(loaded.pairs), "pair count changed on reload")
    for a, b in zip(built.pairs, loaded.pairs):
        require((a.index, a.kind, a.seed) == (b.index, b.kind, b.seed),
                f"pair {a.index}: header changed on reload")
        for field in ("clean", "degraded"):
            x, y = getattr(a, field), getattr(b, field)
            require(x.dtype == y.dtype == np.float64 and x.shape == y.shape
                    and x.tobytes() == y.tobytes(),
                    f"pair {a.index}: {field} image not bit-identical after reload")
    for split in ("train_idx", "val_idx", "test_idx"):
        require(tuple(getattr(built, split)) == tuple(getattr(loaded, split)),
                f"{split} changed on reload")


def check_counts(dataset, n_images: int, kinds) -> None:
    require(len(dataset.pairs) == n_images * len(kinds),
            f"{len(dataset.pairs)} pairs, expected {n_images} x {len(kinds)} kinds")
    per_kind = {k: sum(r.kind == k for r in dataset.pairs) for k in kinds}
    require(set(per_kind.values()) == {n_images}, f"pairs per kind {per_kind}")
    val = [dataset.pairs[i].kind for i in dataset.val_idx]
    val_counts = {k: val.count(k) for k in kinds}
    require(len(set(val_counts.values())) == 1 and val,
            f"validation counts per kind differ or are empty: {val_counts}")


def check_degradations(pairs, fields_by_kind) -> None:
    """Closed forms for blur, haze and lowlight; rain only brightens; all in [0, 1]."""
    for row in pairs:
        d, clean = row.degraded, row.clean
        require(bool(np.all(np.isfinite(d))) and d.min() >= 0.0 and d.max() <= 1.0,
                f"pair {row.index}: degraded pixels non-finite or outside [0, 1]")
        f = fields_by_kind[row.kind]
        if row.kind == "blur":
            ref, tol = blur_reference(clean, f["kernel_sigma"]), OPERATOR_TOL
        elif row.kind == "haze":
            ref = np.clip(f["t0"] * clean + (1.0 - f["t0"]) * f["airlight"], 0.0, 1.0)
            tol = CLOSED_FORM_TOL
        elif row.kind == "lowlight":
            ref, tol = np.clip(f["scale"] * clean ** f["gamma"], 0.0, 1.0), CLOSED_FORM_TOL
        elif row.kind == "rain":
            require(bool(np.all(d >= clean)) and bool(np.any(d > clean)),
                    f"pair {row.index}: rain must brighten some pixels and darken none")
            continue
        else:
            continue
        err = float(np.max(np.abs(d - ref)))
        require(err <= tol, f"pair {row.index} ({row.kind}): max |error| {err:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _on_simplex(alpha: float, beta: float) -> bool:
    """Exactly on the segment: project_simplex returns (a, 1 - a), and a + (1 - a) == 1."""
    return alpha >= 0.0 and beta >= 0.0 and alpha + beta == 1.0


def check_train(trace, cfg) -> None:
    rows = trace.rows
    require(len(rows) == cfg.iterations, f"{len(rows)} trace rows for {cfg.iterations} iterations")
    for r in rows:
        values = (r.loss_fid, r.loss_perc, r.loss_combined, r.alpha, r.beta, r.lr)
        require(all(math.isfinite(v) for v in values), f"iteration {r.iteration}: non-finite row")
        require(_on_simplex(r.alpha, r.beta),
                f"iteration {r.iteration}: weights ({r.alpha}, {r.beta}) off the simplex")
    expected = (cfg.iterations - 1) // cfg.eos.trigger_interval
    require(len(trace.eos_traces) == expected,
            f"{len(trace.eos_traces)} search triggers, expected {expected}")
    require(len(trace.weight_timeline) == expected + 1, "weight timeline length")
    for t in trace.eos_traces:
        require(_on_simplex(t.winner.alpha, t.winner.beta),
                f"trigger {t.trigger_index}: winner {t.winner} off the simplex")
        _require_monotone(t.best_per_generation, t.trigger_index)
    tenth = max(1, cfg.iterations // 10)
    first = float(np.mean([r.loss_combined for r in rows[:tenth]]))
    last = float(np.mean([r.loss_combined for r in rows[-tenth:]]))
    require(last < first, f"combined loss did not fall: first tenth {first:.6g}, last {last:.6g}")


def check_params_roundtrip(er, params, path) -> None:
    er.save_params(path, params)
    back = er.load_params(path)
    require(model_bytes(back) == model_bytes(params),
            "parameters changed across save_params/load_params")


def check_gradient(er, params, degraded, clean, seed: int) -> None:
    """fmm_backward's directional derivative per block vs a central difference."""
    weights = er.WeightPair(0.5, 0.5)
    ms_cfg = er.MsSsimConfig.for_shape(*clean.shape)

    def loss(p):
        y = er.fmm_forward(degraded, p).y_hat
        return er.combined_loss(y, clean, weights, CHARBONNIER_EPS, ms_cfg)[0].combined

    acts = er.fmm_forward(degraded, params)
    _, g_out = er.combined_loss(acts.y_hat, clean, weights, CHARBONNIER_EPS, ms_cfg)
    grads = er.fmm_backward(acts, params, g_out)
    rng = np.random.default_rng(seed)
    for block in ("lowpass", "spectral_logits", "spatial_logits"):
        v = rng.standard_normal(getattr(params, block).shape)
        v /= np.linalg.norm(v)
        # A unit direction over n elements moves each by ~1/sqrt(n); scale the
        # step so dense blocks are not lost in the loss's rounding noise.
        h = GRAD_STEP * math.sqrt(v.size)
        plus, minus = params.copy(), params.copy()
        getattr(plus, block)[...] += h * v
        getattr(minus, block)[...] -= h * v
        numeric = (loss(plus) - loss(minus)) / (2.0 * h)
        analytic = float(np.sum(getattr(grads, block) * v))
        err = abs(numeric - analytic)
        require(err <= GRAD_RTOL * max(abs(numeric), abs(analytic)) + GRAD_ATOL,
                f"{block}: directional derivative {analytic:.9e} vs central difference "
                f"{numeric:.9e}")


# ---------------------------------------------------------------------------
# Operator and evaluation
# ---------------------------------------------------------------------------


def check_operator(er, params, pairs) -> None:
    for k, (degraded, _) in enumerate(pairs):
        y = er.fmm_forward(degraded, params).y_hat
        err = float(np.max(np.abs(y - operator_reference(params, degraded))))
        require(err <= OPERATOR_TOL, f"validation pair {k}: y_hat off the reference by {err:.3e}")


def check_evaluate(table, rows, params, eps: float = CHARBONNIER_EPS) -> None:
    """The per-kind and `all` rows against per-pair recomputation from the reference."""
    by_kind = {}
    for row in rows:
        y = operator_reference(params, row.degraded)
        by_kind.setdefault(row.kind, []).append(
            (psnr_db(y, row.clean), ssim_reference(y, row.clean),
             charbonnier_mean(y, row.clean, eps), 1.0 - ms_ssim_reference(y, row.clean))
        )
    by_kind["all"] = [v for k in sorted(by_kind) for v in by_kind[k]]
    kinds = [r.kind for r in table]
    require(kinds == sorted(by_kind.keys() - {"all"}) + ["all"], f"table rows {kinds}")
    require(sum(r.count for r in table[:-1]) == len(rows) == table[-1].count,
            f"table counts {[r.count for r in table]} for a split of {len(rows)}")
    for r in table:
        vals = np.array(by_kind[r.kind])
        require(r.count == len(vals) and r.capped == 0, f"{r.kind}: count/capped")
        for name, ref in zip(("psnr_mean", "ssim_mean", "fid_mean", "perc_mean"), vals.mean(axis=0)):
            got = getattr(r, name)
            require(abs(got - ref) <= METRIC_TOL,
                    f"{r.kind}: {name} {got!r} vs recomputed {float(ref)!r}")


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _require_monotone(best, trigger) -> None:
    require(all(b2 >= b1 for b1, b2 in zip(best, best[1:])),
            f"trigger {trigger}: best fitness fell across generations {best}")


def check_search(winner, trace, warm_start, means, bytes_before: bytes, bytes_after: bytes) -> None:
    """Simplex, monotone best, warm start <= winner <= better vertex, model untouched."""
    mean_fid, mean_perc = means
    require(_on_simplex(winner.alpha, winner.beta), f"winner {winner} off the simplex")
    _require_monotone(trace.best_per_generation, trace.trigger_index)
    for rec in trace.records:
        ref = -(rec.alpha * mean_fid + rec.beta * mean_perc)
        require(abs(rec.fitness - ref) <= METRIC_TOL,
                f"generation {rec.generation} candidate {rec.candidate}: fitness "
                f"{rec.fitness!r} vs recomputed {ref!r}")
    first = trace.records[0]
    require((first.alpha, first.beta) == (warm_start.alpha, warm_start.beta),
            "first candidate is not the warm start")
    won = [r for r in trace.records if r.is_winner]
    require(len(won) == 1 and (won[0].alpha, won[0].beta) == (winner.alpha, winner.beta),
            "winner record does not match the returned winner")
    best_vertex = max(-mean_fid, -mean_perc)
    require(first.fitness <= won[0].fitness <= best_vertex + METRIC_TOL,
            f"winner fitness {won[0].fitness!r} outside [warm start {first.fitness!r}, "
            f"better vertex {best_vertex!r}]")
    require(bytes_before == bytes_after, "the search changed the model")
