import numpy as np
import pytest

from evorestore import losses
from evorestore.degrade import DegradationSpec, apply_degradation
from evorestore.errors import ConfigError
from evorestore.grids import gaussian_kernel, transfer
from evorestore.losses import (
    DEFAULT_CHARBONNIER_EPS,
    MsSsimConfig,
    WeightPair,
    _wfilt,
    _window,
    charbonnier,
    charbonnier_value,
    combined_loss,
    ms_ssim,
    ms_ssim_value,
    ssim_and_ms_ssim,
)

# frozen closed-form value: constant-0 vs constant-1 images have zero variance
# everywhere, so every contrast factor is exactly 1 and only the coarsest-scale
# luminance term (C1 / (1 + C1)) ** w_last survives
ZEROS_VS_ONES_3SCALE = 0.012476521661246964
ZEROS_VS_ONES_2SCALE = 0.00034860638919947175


def test_charbonnier_identical_inputs_floor():
    x = np.full((7, 9), 0.4)
    val, grad = charbonnier(x, x)
    assert abs(val - DEFAULT_CHARBONNIER_EPS) < 1e-15
    assert np.max(np.abs(grad)) == 0.0


def test_charbonnier_three_four_five():
    x = np.zeros((5, 5))
    y = np.full((5, 5), 3e-3)
    val, _ = charbonnier(x, y, eps=4e-3)
    assert abs(val - 5e-3) < 1e-15


def test_charbonnier_gradient_finite_difference():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (6, 6))
    y = rng.uniform(0, 1, (6, 6))
    _, grad = charbonnier(x, y)
    step = 1e-6
    for idx in [(0, 0), (3, 4), (5, 5)]:
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        fd = (charbonnier(xp, y)[0] - charbonnier(xm, y)[0]) / (2 * step)
        assert abs(fd - grad[idx]) < 1e-8


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf"), 1e200, 1e-200])
def test_charbonnier_rejects_eps_whose_square_is_not_positive_finite(eps):
    # 1e-200 squares to 0: the gradient was 0/0 = NaN wherever pred == target
    x = np.zeros((16, 16))
    y = x.copy()
    y[3, 5] = 0.5
    with pytest.raises(ConfigError):
        charbonnier(x, y, eps=eps)


def test_charbonnier_tiny_and_huge_eps_stay_finite():
    x = np.zeros((16, 16))
    y = x.copy()
    y[3, 5] = 0.5
    for eps in (1e-150, 1e150):
        val, grad = charbonnier(x, y, eps=eps)
        assert np.isfinite(val) and np.all(np.isfinite(grad))


def test_ms_ssim_identical_is_one():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (48, 48))
    val, grad = ms_ssim(x, x)
    assert abs(val - 1.0) < 1e-12
    assert np.max(np.abs(grad)) < 1e-9


def test_ms_ssim_constant_extremes_frozen_values():
    z = np.zeros((48, 48))
    o = np.ones((48, 48))
    assert abs(ms_ssim_value(z, o) - ZEROS_VS_ONES_3SCALE) < 1e-12
    z24 = np.zeros((24, 24))
    o24 = np.ones((24, 24))
    assert abs(ms_ssim_value(z24, o24) - ZEROS_VS_ONES_2SCALE) < 1e-12


def test_ms_ssim_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0, 1, (48, 48))
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
        a = ms_ssim_value(x, y)
        b = ms_ssim_value(y, x)
        assert abs(a - b) < 1e-12
        assert 0.0 < a <= 1.0


def test_ms_ssim_orders_by_distortion():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 0.8, (48, 48))
    mild = np.clip(x + rng.normal(0, 0.02, x.shape), 0, 1)
    harsh = np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1)
    assert ms_ssim_value(x, mild) > ms_ssim_value(x, harsh)


def test_ms_ssim_config_shape_rules():
    assert MsSsimConfig.for_shape(176, 176).scales == 5
    assert MsSsimConfig.for_shape(48, 48).scales == 3
    assert MsSsimConfig.for_shape(24, 24).scales == 2
    assert MsSsimConfig.for_shape(12, 12).scales == 1
    with pytest.raises(ConfigError):
        MsSsimConfig.for_shape(8, 8)
    with pytest.raises(ConfigError):
        MsSsimConfig(scales=3).validate_shape(16, 16)


def test_ms_ssim_weights_renormalized():
    cfg = MsSsimConfig(scales=3)
    assert abs(sum(cfg.weights) - 1.0) < 1e-12
    cfg5 = MsSsimConfig(scales=5)
    assert abs(sum(cfg5.weights) - 1.0) < 1e-12
    # published table sums to 1.0001; after renormalization the first entry
    # is 0.0448 / 1.0001
    assert abs(cfg5.weights[0] - 0.0448 / 1.0001) < 1e-15


def test_ms_ssim_gradient_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 0.8, (24, 24))
    y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1)
    cfg = MsSsimConfig.for_shape(24, 24)
    _, grad = ms_ssim(x, y, cfg)
    step = 1e-5
    rel_errs = []
    for idx in [(0, 0), (5, 11), (12, 3), (23, 23), (7, 19)]:
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        fd = (ms_ssim_value(xp, y, cfg) - ms_ssim_value(xm, y, cfg)) / (2 * step)
        rel_errs.append(abs(fd - grad[idx]) / max(1e-8, abs(fd)))
    assert max(rel_errs) < 1e-3


def test_ms_ssim_gradient_finite_difference_non_square():
    # 24x26 runs 2 scales (24x26, 12x13): the row and column windows differ in
    # size at each, so a swapped ch/cw anywhere in the backward pass would show
    rng = np.random.default_rng(14)
    x = rng.uniform(0.2, 0.8, (24, 26))
    y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1)
    cfg = MsSsimConfig.for_shape(24, 26)
    assert cfg.scales == 2
    _assert_gradient_matches_central_differences(
        x, y, cfg, [(0, 0), (0, 25), (23, 0), (11, 13), (6, 20), (23, 25)]
    )


def test_ms_ssim_gradient_finite_difference_banded():
    # 100x130 filters both axes of the finest scale as a banded block product
    # (130 = 4 blocks of 32 and a last block of 2), then 50x65 and 25x32 as circulants
    rng = np.random.default_rng(15)
    x = rng.uniform(0.2, 0.8, (100, 130))
    y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1)
    cfg = MsSsimConfig.for_shape(100, 130)
    assert cfg.scales == 3 and 100 >= losses.BAND_MIN_AXIS
    _assert_gradient_matches_central_differences(
        x, y, cfg, [(0, 0), (0, 129), (99, 0), (31, 32), (64, 127), (99, 129)]
    )


def _assert_gradient_matches_central_differences(x, y, cfg, indices, step=1e-5):
    _, grad = ms_ssim(x, y, cfg)
    for idx in indices:
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        fd = (ms_ssim_value(xp, y, cfg) - ms_ssim_value(xm, y, cfg)) / (2 * step)
        assert abs(fd - grad[idx]) <= 1e-5 * max(1e-8, abs(fd))


def test_window_matrices_are_symmetric_and_normalised():
    for n in (11, 12, 13, 24, 45, 50):
        ch, cw = _window(n, n + 1)
        for m in (ch, cw):
            assert np.array_equal(m, m.T)
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-15
            assert np.count_nonzero(m[0]) == 11


# (96, 96) on, (64, 200) and (128, 40) across, the banded switch; 130 and 97
# end on short blocks
@pytest.mark.parametrize(
    "shape",
    [(45, 50), (12, 13), (3, 2, 24, 26), (96, 96), (128, 128), (130, 97), (64, 200),
     (2, 3, 128, 256), (128, 40)],
)
def test_wfilt_matches_the_transfer_route(shape):
    # the 2D window through the package's transfer function and a real FFT pair
    h, w = shape[-2:]
    x = np.random.default_rng(21).uniform(0, 1, shape)
    t = transfer(gaussian_kernel(11, 1.5), h, w)[:, : w // 2 + 1].real
    ref = np.fft.irfft2(np.fft.rfft2(x) * t, s=(h, w))
    assert np.max(np.abs(_wfilt(x, _window(h, w)) - ref)) <= 1e-13


@pytest.mark.parametrize("shape", [(48, 48), (64, 64), (45, 50), (2, 3, 95, 64)])
def test_wfilt_below_the_switch_is_the_circulant_product_exactly(shape):
    x = np.random.default_rng(22).uniform(0, 1, shape)
    ch, cw = _window(*shape[-2:])
    assert ch.shape == (shape[-2],) * 2 and cw.shape == (shape[-1],) * 2
    assert np.array_equal(_wfilt(x.copy(), (ch, cw)), ch @ x @ cw)


@pytest.mark.parametrize("shape", [(128, 128), (3, 128, 100), (2, 96, 64)])
def test_banded_wfilt_is_self_adjoint(shape):
    rng = np.random.default_rng(23)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    win = _window(*shape[-2:])
    lhs = np.vdot(_wfilt(a.copy(), win), b)
    rhs = np.vdot(a, _wfilt(b.copy(), win))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_ssim_index_basics():
    # SSIM(x, x) = 1, symmetric, < 1 on a noisy copy (clipped noise and the noise degradation)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (32, 32))

    def ssim(a, b):
        return ssim_and_ms_ssim(a, b)[0]

    assert abs(ssim(x, x) - 1.0) < 1e-12
    for y in (np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1),
              apply_degradation(x, DegradationSpec("noise", sigma=0.1, seed=1))):
        assert abs(ssim(x, y) - ssim(y, x)) < 1e-12
        assert ssim(x, y) < 1.0


@pytest.mark.parametrize("h,w", [(48, 48), (45, 50)])
def test_stack_matches_per_image(h, w):
    # 45x50 exercises non-square windows (45x45 and 50x50 matrices, then
    # 22x25, 11x12) and the dropped odd row/column
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (3, h, w))
    y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    fid, g_fid = charbonnier(x, y)
    ms, g_ms = ms_ssim(x, y)
    ss, ms_too = ssim_and_ms_ssim(x, y)
    assert fid.shape == ms.shape == ss.shape == (3,)
    assert np.array_equal(charbonnier_value(x, y), fid)
    assert np.array_equal(ms_value := ms_ssim_value(x, y), ms) and np.array_equal(ms_too, ms)
    for n in range(3):
        f, gf = charbonnier(x[n], y[n])
        m, gm = ms_ssim(x[n], y[n])
        assert isinstance(f, float) and isinstance(m, float)
        assert abs(fid[n] - f) <= 1e-12 and abs(ms_value[n] - m) <= 1e-12
        assert charbonnier_value(x[n], y[n]) == f
        assert abs(ss[n] - ssim_and_ms_ssim(x[n], y[n])[0]) <= 1e-12
        assert np.max(np.abs(g_fid[n] - gf)) <= 1e-12
        assert np.max(np.abs(g_ms[n] - gm)) <= 1e-12


def _window_spatial(a, size=11, sigma=1.5):
    """Circular Gaussian-window mean of a grid, summed tap by tap in the pixel domain."""
    c = size // 2
    g = np.exp(-((np.arange(size) - c) ** 2) / (2.0 * sigma * sigma))
    k = np.outer(g, g) / np.outer(g, g).sum()
    out = np.zeros_like(a)
    for i in range(size):
        for j in range(size):
            out += k[i, j] * np.roll(a, (c - i, c - j), axis=(0, 1))
    return out


def _reference_maps(x, y, c1=0.01**2, c2=0.03**2):
    """(luminance, contrast-structure) maps from the five moments, each filtered alone."""
    mx, my = _window_spatial(x), _window_spatial(y)
    sxx = _window_spatial(x * x) - mx * mx
    syy = _window_spatial(y * y) - my * my
    sxy = _window_spatial(x * y) - mx * my
    return (2 * mx * my + c1) / (mx * mx + my * my + c1), (2 * sxy + c2) / (sxx + syy + c2)


def _reference_ms_ssim(x, y, weights):
    w = np.array(weights) / np.sum(weights)
    value = 1.0
    for j in range(len(w)):
        lum, cs = _reference_maps(x, y)
        value *= max(np.mean(cs), 1e-8) ** w[j]
        if j == len(w) - 1:
            value *= max(np.mean(lum), 1e-8) ** w[j]
        else:
            h, wd = x.shape[0] // 2 * 2, x.shape[1] // 2 * 2
            x = x[:h, :wd].reshape(h // 2, 2, wd // 2, 2).mean(axis=(1, 3))
            y = y[:h, :wd].reshape(h // 2, 2, wd // 2, 2).mean(axis=(1, 3))
    return value


def test_ssim_and_ms_ssim_match_a_spatial_five_moment_reference():
    # 24x26 runs 2 MS-SSIM scales: 24x26 and 12x13
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, (24, 26))
    y = np.clip(0.8 * x + 0.1 + rng.normal(0, 0.08, x.shape), 0, 1)
    lum, cs = _reference_maps(x, y)
    assert abs(ssim_and_ms_ssim(x, y)[0] - np.mean(lum * cs)) <= 1e-12
    assert MsSsimConfig.for_shape(24, 26).scales == 2
    ref = _reference_ms_ssim(x, y, (0.0448, 0.2856))
    assert abs(ms_ssim_value(x, y) - ref) <= 1e-12
    assert abs(ms_ssim(x, y)[0] - ref) <= 1e-12
    ss, ms = ssim_and_ms_ssim(np.stack([x, y]), np.stack([y, x]))
    assert np.max(np.abs(ss - np.mean(lum * cs))) <= 1e-12
    assert np.max(np.abs(ms - ref)) <= 1e-12


def test_combined_loss_is_exact_affine_mix():
    rng = np.random.default_rng(6)
    pred = rng.uniform(0, 1, (48, 48))
    target = np.clip(pred + rng.normal(0, 0.05, pred.shape), 0, 1)
    w = WeightPair(0.8, 0.2)
    lv, grad = combined_loss(pred, target, w)
    fid, g_fid = charbonnier(pred, target)
    ms, g_ms = ms_ssim(pred, target)
    assert lv.fidelity == fid
    assert lv.perceptual == 1.0 - ms
    assert abs(lv.combined - (0.8 * fid + 0.2 * (1.0 - ms))) < 1e-15
    assert np.max(np.abs(grad - (0.8 * g_fid - 0.2 * g_ms))) == 0.0


def test_combined_loss_skips_the_zero_weighted_gradient(monkeypatch):
    rng = np.random.default_rng(7)
    pred = rng.uniform(0, 1, (2, 48, 48))
    target = np.clip(pred + rng.normal(0, 0.05, pred.shape), 0, 1)
    fid, g_fid = charbonnier(pred, target)
    ms, g_ms = ms_ssim(pred, target)
    mixed = combined_loss(pred, target, WeightPair(0.8, 0.2))[0]
    # alpha == 0 takes the general a g_fid - b g_ms; only beta == 0 skips a backward
    lv, grad = combined_loss(pred, target, WeightPair(0.0, 1.0))
    assert np.array_equal(grad, -g_ms)
    assert np.array_equal(lv.fidelity, mixed.fidelity)  # the dead loss is still logged
    assert np.array_equal(lv.combined, 0.0 * fid + 1.0 * (1.0 - ms))

    def no_backward(*args):
        raise AssertionError("MS-SSIM's backward ran at beta == 0")

    monkeypatch.setattr(losses, "ms_ssim", no_backward)
    lv, grad = combined_loss(pred, target, WeightPair(1.0, 0.0))
    assert np.array_equal(grad, g_fid)
    assert np.array_equal(lv.perceptual, mixed.perceptual)
    assert np.array_equal(lv.combined, 1.0 * fid + 0.0 * (1.0 - ms))


# Out-of-place reference of the MS-SSIM scale maps and their adjoint: every
# map a fresh array, the window filtering a copy, Charbonnier's and the
# combined gradient formed by plain expressions. The package builds the same
# values in place, in the same order, so the two must agree bit for bit.


def _ref_wfilt(x, win):
    return losses._wfilt(x.copy(), win)


def _ref_ssim_parts(x, y, win, with_luminance, for_backward, c1=0.01**2, c2=0.03**2):
    mx, my, ess, exy = _ref_wfilt(np.stack([x, y, x * x + y * y, x * y]), win)
    sxy = exy - mx * my
    q = ess - mx * mx - my * my + c2
    cs = (2.0 * sxy + c2) / q
    parts = {"x": x, "y": y, "mx": mx, "my": my, "q": q, "cs": cs, "win": win}
    if with_luminance:
        s = mx * mx + my * my + c1
        parts["s"] = s
        parts["l"] = (2.0 * mx * my + c1) / s
    return parts


def _ref_ssim_scale_backward(parts, g_cs_mean, g_l_mean):
    x, y = parts["x"], parts["y"]
    n = x.shape[-2] * x.shape[-1]
    u = g_cs_mean / n
    a_sxy = u * (2.0 / parts["q"])
    a_sxx = u * (-parts["cs"] / parts["q"])
    mean_term = 2.0 * a_sxx * parts["mx"] + a_sxy * parts["my"]
    if g_l_mean is not None:
        b_mx = (g_l_mean / n) * 2.0 * (parts["my"] - parts["l"] * parts["mx"]) / parts["s"]
        mean_term = mean_term - b_mx
    f_sxx, f_sxy, f_mean = _ref_wfilt(np.stack([a_sxx, a_sxy, mean_term]), parts["win"])
    return 2.0 * x * f_sxx + y * f_sxy - f_mean


def _ref_charbonnier_grad(pred, target, eps=DEFAULT_CHARBONNIER_EPS):
    diff = pred - target
    root = np.sqrt(diff * diff + eps * eps)
    return diff / (root * (pred.shape[-2] * pred.shape[-1]))


@pytest.mark.parametrize("size", [48, 64, 128])
def test_in_place_maps_equal_the_out_of_place_reference_exactly(size, monkeypatch):
    rng = np.random.default_rng(size)
    x = rng.uniform(0, 1, (3, size, size))
    y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    w = WeightPair(0.8, 0.2)
    ms, g_ms = ms_ssim(x, y)
    ss, ms_v = ssim_and_ms_ssim(x, y)
    lv, grad = combined_loss(x, y, w)
    monkeypatch.setattr(losses, "_ssim_parts", _ref_ssim_parts)
    monkeypatch.setattr(losses, "_ssim_scale_backward", _ref_ssim_scale_backward)
    ref_ms, ref_g_ms = ms_ssim(x, y)
    ref_ss, ref_ms_v = ssim_and_ms_ssim(x, y)
    assert np.array_equal(ms, ref_ms) and np.array_equal(ms_v, ref_ms_v)
    assert np.array_equal(ss, ref_ss)
    assert np.array_equal(g_ms, ref_g_ms)
    ref_grad = 0.8 * _ref_charbonnier_grad(x, y) - 0.2 * ref_g_ms
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(lv.perceptual, 1.0 - ref_ms)


@pytest.mark.parametrize("size,grids,bound", [(48, 3, 5.5), (128, 2, 6.5)])
def test_value_paths_hold_one_scale_at_a_time(size, grids, bound, peak_arrays):
    # the value path lets go of each scale's maps once it has their means, and
    # builds the SSIM luminance in buffers the scale holds: 9.0 stacks before
    rng = np.random.default_rng(size)
    x = rng.uniform(0, 1, (grids, size, size))
    y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    assert peak_arrays(lambda: ssim_and_ms_ssim(x, y), x.shape) <= bound
    assert peak_arrays(lambda: ms_ssim_value(x, y), x.shape) <= bound
    assert peak_arrays(lambda: charbonnier_value(x, y), x.shape) <= 1.1
