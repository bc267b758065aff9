"""Forward/backward behavior of the frequency-gated restoration operator."""

import itertools

import numpy as np
import pytest

from evorestore import fmm, grids, oracles
from evorestore.errors import ConfigError, DimensionError, NumericIntegrityError
from evorestore.grids import fft2, gaussian_kernel, identity_kernel, transfer
from evorestore.util import STACK_PIXELS

PAIRS = [
    (fmm.MASK_PER_FREQUENCY, fmm.SPATIAL_PER_PIXEL),
    (fmm.MASK_RADIAL_BINS, fmm.SPATIAL_GAP_AFFINE),
]


def rand_image(rng, h=12, w=12):
    return rng.uniform(0.1, 0.9, size=(h, w))


def test_band_split_spectral_identity():
    # the low band computed by spatial convolution must agree with the
    # transfer-function route in the frequency domain
    rng = np.random.default_rng(1)
    p = fmm.default_params(16, 16)
    p.lowpass = gaussian_kernel(5, 1.3)
    x = rand_image(rng, 16, 16)
    low = x - fmm.band_split(x, fmm.prepare(p, 16, 16))[0]
    g = transfer(p.lowpass, 16, 16)
    assert np.max(np.abs(fft2(low) - g * fft2(x))) < 1e-9


def test_split_oracle_fails_when_band_split_is_broken(monkeypatch):
    # the oracle must run the operator's own split, not a reference of it
    assert oracles.check_split_equivalence(5).passed
    split = fmm.band_split

    def broken(x, prep):
        high, X, U = split(x, prep)
        return high * (1 + 1e-6), X, U

    monkeypatch.setattr(fmm, "band_split", broken)
    assert not oracles.check_split_equivalence(5).passed


def test_saturated_gates_give_identity_model():
    # 1x1 identity kernel puts everything in the low band; a saturated
    # spectral gate passes it through untouched
    rng = np.random.default_rng(2)
    x = rand_image(rng)
    p = fmm.FmmParams(
        lowpass=identity_kernel(1),
        mask_mode=fmm.MASK_PER_FREQUENCY,
        spectral_logits=np.full((12, 12), 500.0),
        spatial_mode=fmm.SPATIAL_GAP_AFFINE,
        spatial_logits=np.zeros(2),
    )
    acts = fmm.fmm_forward(x, p)
    assert np.max(np.abs(acts.y_hat - x)) < 1e-12
    assert np.max(np.abs(acts.x_h)) == 0.0


def test_spectral_gate_saturation():
    rng = np.random.default_rng(3)
    x = rand_image(rng)
    p = fmm.default_params(12, 12)
    p.spectral_logits[:] = -500.0
    mask = fmm.spectral_mask(p, 12, 12)
    assert np.max(mask) < 1e-100
    p.spectral_logits[:] = 500.0
    assert np.min(fmm.spectral_mask(p, 12, 12)) > 1.0 - 1e-12


@pytest.mark.parametrize("mask_mode", [fmm.MASK_PER_FREQUENCY, fmm.MASK_RADIAL_BINS])
@pytest.mark.parametrize("h,w", [(9, 13), (13, 7), (10, 14), (45, 50)])
def test_spectral_mask_is_exactly_hermitian_symmetric(mask_mode, h, w):
    # spectral_gate skips the symmetry check because of this, so pin it exactly
    rng = np.random.default_rng(4)
    p = fmm.default_params(h, w, mask_mode=mask_mode, n_bins=5)
    p.spectral_logits = rng.normal(size=p.spectral_logits.shape)
    mask = fmm.spectral_mask(p, h, w)
    assert np.max(np.abs(mask - fmm.hermitian_flip(mask))) == 0.0


def test_gaussian_lowpass_full_reconstruction():
    # with both gates wide open the operator reduces to x_l + x_h = x
    rng = np.random.default_rng(5)
    x = rand_image(rng, 16, 16)
    p = fmm.FmmParams(
        lowpass=gaussian_kernel(5, 1.0),
        mask_mode=fmm.MASK_PER_FREQUENCY,
        spectral_logits=np.full((16, 16), 500.0),
        spatial_mode=fmm.SPATIAL_PER_PIXEL,
        spatial_logits=np.full((16, 16), 500.0),
    )
    acts = fmm.fmm_forward(x, p)
    assert np.max(np.abs(acts.y_hat - x)) < 1e-9


def test_radial_bins_select_frequency_bands():
    h = w = 16
    p = fmm.default_params(h, w, mask_mode=fmm.MASK_RADIAL_BINS, n_bins=2)
    # open the low bin, close the high bin
    p.spectral_logits[:] = (500.0, -500.0)
    # a pure low-frequency cosine lives in bin 0 and must pass
    i = np.arange(h)[:, None]
    lowfreq = np.cos(2 * np.pi * i / h) * np.ones((1, w))
    prep = fmm.prepare(p, h, w)
    refined = fmm.spectral_gate(np.fft.rfft2(lowfreq, norm="ortho"), prep)
    assert np.max(np.abs(refined - lowfreq)) < 1e-9
    # Nyquist checkerboard lives in the top bin and must vanish
    checker = np.cos(np.pi * (np.arange(h)[:, None] + np.arange(w)[None, :]))
    refined = fmm.spectral_gate(np.fft.rfft2(checker, norm="ortho"), prep)
    assert np.max(np.abs(refined)) < 1e-9


def test_radial_bin_map_layout():
    bins = fmm.radial_bin_map(16, 16, 4)
    assert bins.shape == (16, 16)
    assert bins[0, 0] == 0
    assert bins[8, 8] == 3  # wrapped Nyquist corner has the largest radius
    assert bins.min() == 0 and bins.max() == 3


def test_gap_affine_neutral_setting_halves_high_band():
    rng = np.random.default_rng(6)
    x = rand_image(rng)
    p = fmm.default_params(12, 12, spatial_mode=fmm.SPATIAL_GAP_AFFINE)
    acts = fmm.fmm_forward(x, p)
    # a = b = 0 -> sigmoid(0) = 0.5 regardless of the pooled magnitude
    assert abs(acts.spatial_mask - 0.5) < 1e-15
    x_h_refined = fmm.spatial_gate(acts.x_h, p, fmm.prepare(p, 12, 12))[0]
    assert np.max(np.abs(x_h_refined - 0.5 * acts.x_h)) < 1e-15


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
@pytest.mark.parametrize("h,w", [(12, 12), (45, 50)])
def test_stack_matches_per_image(mask_mode, spatial_mode, h, w):
    rng = np.random.default_rng(10)
    xs = rand_image(rng, h, w)[None] + rng.normal(0, 0.1, (3, h, w))
    targets = rng.uniform(0.1, 0.9, (3, h, w))
    p = fmm.default_params(h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=4)
    p.lowpass = p.lowpass + 0.01 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)

    acts = fmm.fmm_forward(xs, p)
    grads = fmm.fmm_backward(acts, p, acts.y_hat - targets)
    per_image = []
    for n in range(3):
        one = fmm.fmm_forward(xs[n], p)
        assert np.max(np.abs(acts.y_hat[n] - one.y_hat)) <= 1e-12
        per_image.append(fmm.fmm_backward(one, p, one.y_hat - targets[n]))
    for name in ("lowpass", "spectral_logits", "spatial_logits"):
        got = getattr(grads, name)
        want = sum(getattr(g, name) for g in per_image)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


ALL_MODES = [
    (mask_mode, spatial_mode)
    for mask_mode in (fmm.MASK_PER_FREQUENCY, fmm.MASK_RADIAL_BINS)
    for spatial_mode in (fmm.SPATIAL_PER_PIXEL, fmm.SPATIAL_GAP_AFFINE)
]
CUTS = (0, 2, 3, 5)  # a batch of five grids as stacks of 2, 1 and 2


def _summed_over_stacks(xs, targets, p, train=fmm.BLOCKS):
    """GradSums over the batch cut at CUTS, for the loss sum of 0.5 * |y - target|^2."""
    prep = fmm.prepare(p, *xs.shape[-2:], train=train)
    sums = fmm.GradSums(p, prep)
    for a, b in zip(CUTS, CUTS[1:]):
        acts = fmm.fmm_forward(xs[a:b], p, prep)
        sums.add(acts, acts.y_hat - targets[a:b])
    return sums.finish()


@pytest.mark.parametrize("mask_mode,spatial_mode", ALL_MODES)
def test_sums_over_stacks_match_one_stack(mask_mode, spatial_mode):
    rng = np.random.default_rng(19)
    h, w = 45, 50
    xs = rng.uniform(0.1, 0.9, (5, h, w))
    targets = rng.uniform(0.1, 0.9, (5, h, w))
    p = _random_params(rng, h, w, mask_mode, spatial_mode)
    acts = fmm.fmm_forward(xs, p)
    whole = fmm.fmm_backward(acts, p, acts.y_hat - targets)
    cut = _summed_over_stacks(xs, targets, p)
    for name in ("lowpass", "spectral_logits", "spatial_logits"):
        got, want = getattr(cut, name), getattr(whole, name)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name


@pytest.mark.parametrize("mask_mode,spatial_mode", ALL_MODES)
def test_sums_form_only_the_trained_blocks(mask_mode, spatial_mode):
    rng = np.random.default_rng(23)
    h, w = 20, 18
    xs = rng.uniform(0.1, 0.9, (5, h, w))
    targets = rng.uniform(0.1, 0.9, (5, h, w))
    p = _random_params(rng, h, w, mask_mode, spatial_mode)
    every = _summed_over_stacks(xs, targets, p)
    names = ("lowpass", "spectral_logits", "spatial_logits")
    for k in range(len(fmm.BLOCKS) + 1):
        for train in itertools.combinations(fmm.BLOCKS, k):
            got = _summed_over_stacks(xs, targets, p, train)
            for block, name in zip(fmm.BLOCKS, names):
                g = getattr(got, name)
                if block in train:
                    assert g.tobytes() == getattr(every, name).tobytes(), (train, name)
                else:
                    assert g is None, (train, name)
    with pytest.raises(ConfigError):
        fmm.prepare(p, h, w, train=("lowpass", "bias"))


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
def test_sums_over_stacks_match_finite_differences(mask_mode, spatial_mode):
    rng = np.random.default_rng(20)
    h, w = 45, 50
    xs = rng.uniform(0.1, 0.9, (5, h, w))
    targets = rng.uniform(0.1, 0.9, (5, h, w))
    p = _random_params(rng, h, w, mask_mode, spatial_mode)
    grads = _summed_over_stacks(xs, targets, p)
    step = 1e-6
    for name in ("lowpass", "spectral_logits", "spatial_logits"):
        flat, g = getattr(p, name).ravel(), getattr(grads, name).ravel()
        # every entry of the small blocks; a seeded sample of a per-element block's 2,250
        picks = range(flat.size) if flat.size <= 25 else rng.choice(flat.size, 12, replace=False)
        for idx in picks:
            keep = flat[idx]
            flat[idx] = keep + step
            up = fd_loss(xs, p, targets)
            flat[idx] = keep - step
            dn = fd_loss(xs, p, targets)
            flat[idx] = keep
            fd = (up - dn) / (2 * step)
            assert abs(fd - g[idx]) < 1e-5 * max(1.0, abs(fd)), (name, idx)


def _complex_gate(low, mask):
    """Reference gate on the full complex spectrum; its imaginary residue is kept."""
    return np.fft.ifft2(mask * fft2(low), norm="ortho")


def _complex_backward(x, p, grad_out):
    """Reference fmm_backward: the spectral adjoint on the full complex spectrum."""
    h, w = x.shape[-2:]
    prep = fmm.prepare(p, h, w)
    x_h = fmm.band_split(x, prep)[0]
    x_l = x - x_h
    mask = fmm.spectral_mask(p, h, w)
    _, m, gap = fmm.spatial_gate(x_h, p, prep)
    G = fft2(grad_out)
    g_mask = (np.conj(G) * fft2(x_l)).real.reshape(-1, h, w).sum(axis=0)
    g_spectral = fmm.spectral_mask_grad_to_logits(p, h, w, mask, g_mask)
    g_xl = np.fft.ifft2(mask * G, norm="ortho")
    if p.spatial_mode == fmm.SPATIAL_PER_PIXEL:
        g_spatial = (grad_out * x_h).reshape(-1, h, w).sum(axis=0) * m * (1.0 - m)
        g_xh = grad_out * m
    else:
        dt = np.sum(grad_out * x_h, axis=(-2, -1), keepdims=True) * m * (1.0 - m)
        g_spatial = np.array([np.sum(dt * gap), np.sum(dt)])
        g_xh = m * grad_out + (dt * p.spatial_logits[0] / (h * w)) * np.sign(x_h)
    g = g_xl - g_xh
    size = p.lowpass.shape[0]
    c = size // 2
    g_taps = np.array(
        [
            [np.vdot(g, np.roll(x, (a - c, b - c), axis=(-2, -1))) for b in range(size)]
            for a in range(size)
        ]
    )
    return g_taps, g_spectral, g_spatial


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
@pytest.mark.parametrize("h,w", [(12, 12), (13, 7), (8, 9), (45, 50)])
@pytest.mark.parametrize("stack", [False, True])
def test_half_spectrum_matches_complex_route(mask_mode, spatial_mode, h, w, stack):
    rng = np.random.default_rng(13)
    shape = (3, h, w) if stack else (h, w)
    x = rng.uniform(0.1, 0.9, shape)
    target = rng.uniform(0.1, 0.9, shape)
    p = fmm.default_params(h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=4)
    p.lowpass = p.lowpass + 0.01 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)

    acts = fmm.fmm_forward(x, p)
    assert acts.u_l.shape == shape[:-1] + (w // 2 + 1,)
    x_h_refined = fmm.spatial_gate(acts.x_h, p, fmm.prepare(p, h, w))[0]
    want_y = _complex_gate(x - acts.x_h, fmm.spectral_mask(p, h, w)) + x_h_refined
    assert np.max(np.abs(acts.y_hat - want_y)) <= 1e-12
    grads = fmm.fmm_backward(acts, p, acts.y_hat - target)
    want = _complex_backward(x, p, acts.y_hat - target)
    for got, ref in zip((grads.lowpass, grads.spectral_logits, grads.spatial_logits), want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
@pytest.mark.parametrize("stack", [False, True])
def test_output_is_exactly_the_gate_plus_the_spatial_branch(mask_mode, spatial_mode, stack):
    # y_hat is built in place; it must equal irfft2(M * U) + m * x_h bit for bit
    rng = np.random.default_rng(15)
    h, w = 13, 10
    x = rng.uniform(0.1, 0.9, (3, h, w) if stack else (h, w))
    p = fmm.default_params(h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=4)
    p.lowpass = p.lowpass + 0.01 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)
    prep = fmm.prepare(p, h, w)
    x_h, _, U = fmm.band_split(x, prep)
    M = fmm.spectral_mask(p, h, w)
    m = fmm.spatial_gate(x_h, p, prep)[1]
    want = np.fft.irfft2(M[:, : w // 2 + 1] * U, s=(h, w), norm="ortho") + m * x_h
    assert np.array_equal(fmm.fmm_forward(x, p).y_hat, want)


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
def test_no_complex_transform_in_forward_or_backward(monkeypatch, mask_mode, spatial_mode):
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called in the operator")

    for name in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    # the band split and the tap gradient run in the Fourier domain too
    monkeypatch.setattr(grids, "conv2_periodic", refuse)
    monkeypatch.setattr(fmm, "conv2_periodic", refuse, raising=False)
    monkeypatch.setattr(np, "vdot", refuse)
    rng = np.random.default_rng(14)
    x = rng.uniform(0.1, 0.9, (3, 10, 11))
    p = fmm.default_params(10, 11, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=3)
    acts = fmm.fmm_forward(x, p)
    fmm.fmm_backward(acts, p, acts.y_hat - 0.5)


KERNEL_SIZES = (1, 3, 5, 7)
GRID_SHAPES = [(12, 12), (13, 7), (8, 9), (45, 50)]


@pytest.mark.parametrize("size", KERNEL_SIZES)
@pytest.mark.parametrize("h,w", GRID_SHAPES)
def test_half_transfer_matches_zero_padded_transfer(size, h, w):
    k = np.random.default_rng(16).normal(size=(size, size))
    want = transfer(k, h, w)[:, : w // 2 + 1]
    assert np.max(np.abs(fmm.half_transfer(k, h, w) - want)) <= 1e-13


@pytest.mark.parametrize("size", KERNEL_SIZES)
@pytest.mark.parametrize("h,w", GRID_SHAPES)
@pytest.mark.parametrize("stack", [False, True])
def test_band_split_matches_spatial_convolution(size, h, w, stack):
    rng = np.random.default_rng(17)
    x = rng.uniform(0.1, 0.9, (3, h, w) if stack else (h, w))
    p = fmm.default_params(h, w, kernel_size=size)
    p.lowpass = p.lowpass + 0.1 * rng.normal(size=p.lowpass.shape)
    low = x - fmm.band_split(x, fmm.prepare(p, h, w))[0]
    assert np.max(np.abs(low - grids.conv2_periodic(x, p.lowpass))) <= 1e-12


@pytest.mark.parametrize("stack", [False, True])
def test_kernel_larger_than_grid_raises(stack):
    x = np.full((2, 5, 6) if stack else (5, 6), 0.5)
    p = fmm.default_params(5, 6, kernel_size=7)
    with pytest.raises(DimensionError, match="kernel size 7 exceeds"):
        fmm.fmm_forward(x, p)


def _random_params(rng, h, w, mask_mode, spatial_mode):
    p = fmm.default_params(h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=4)
    p.lowpass = p.lowpass + 0.01 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)
    return p


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
@pytest.mark.parametrize("stack", [False, True])
def test_prepared_operator_matches_unprepared_bit_for_bit(mask_mode, spatial_mode, stack):
    rng = np.random.default_rng(16)
    h, w = 13, 10
    x = rng.uniform(0.1, 0.9, (3, h, w) if stack else (h, w))
    p = _random_params(rng, h, w, mask_mode, spatial_mode)
    prep = fmm.prepare(p, h, w)
    plain, prepared = fmm.fmm_forward(x, p), fmm.fmm_forward(x, p, prep)
    for name in ("x_spec", "x_h", "u_l", "spatial_mask", "gap_mean", "y_hat"):
        a, b = getattr(plain, name), getattr(prepared, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    g_out = plain.y_hat - 0.5
    for a, b in zip(
        vars(fmm.fmm_backward(plain, p, g_out)).values(),
        vars(fmm.fmm_backward(prepared, p, g_out, prep)).values(),
    ):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(DimensionError, match="prepared for"):
        fmm.fmm_forward(rng.uniform(0.1, 0.9, (h + 1, w)), p, prep)


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
def test_validate_matches_unprepared_stacks_bit_for_bit(monkeypatch, mask_mode, spatial_mode):
    from evorestore import eos

    rng = np.random.default_rng(17)
    h, w = 45, 50
    per_stack = STACK_PIXELS // (h * w)
    p = _random_params(rng, h, w, mask_mode, spatial_mode)
    shapes = [(h, w)] * (2 * per_stack + 1)  # two full stacks and a stack of one
    if spatial_mode == fmm.SPATIAL_GAP_AFFINE:  # a shape-free model also takes other shapes
        shapes[per_stack:per_stack] = [(12, 16)] * 2
    pairs = [(rng.uniform(0.1, 0.9, s), rng.uniform(0.1, 0.9, s)) for s in shapes]
    prepared = eos.validate(p, pairs)
    monkeypatch.setattr(eos, "prepare", lambda *args: None)  # every stack builds its own
    plain = eos.validate(p, pairs)
    for col in ("psnr", "ssim", "fid", "perc"):
        assert getattr(prepared, col).tobytes() == getattr(plain, col).tobytes(), col


def fd_loss(x, p, target):
    acts = fmm.fmm_forward(x, p)
    return 0.5 * float(np.sum((acts.y_hat - target) ** 2))


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
def test_backward_matches_finite_differences(mask_mode, spatial_mode):
    rng = np.random.default_rng(8)
    h = w = 8
    x = rand_image(rng, h, w)
    target = rand_image(rng, h, w)
    p = fmm.default_params(h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=3)
    p.lowpass = p.lowpass + 0.01 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)

    acts = fmm.fmm_forward(x, p)
    grads = fmm.fmm_backward(acts, p, acts.y_hat - target)

    step = 1e-6
    for arr, g in (
        (p.lowpass, grads.lowpass),
        (p.spectral_logits, grads.spectral_logits),
        (p.spatial_logits, grads.spatial_logits),
    ):
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = fd_loss(x, p, target)
            flat[idx] = keep - step
            dn = fd_loss(x, p, target)
            flat[idx] = keep
            fd = (up - dn) / (2 * step)
            assert abs(fd - gflat[idx]) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize(
    "mask_mode,h,w", [(fmm.MASK_PER_FREQUENCY, 6, 7), (fmm.MASK_RADIAL_BINS, 7, 10)]
)
def test_spectral_logits_match_finite_differences_off_square(mask_mode, h, w):
    # the half-spectrum mask gradient is mirrored to full width: an odd width
    # has no Nyquist column, an even one does
    rng = np.random.default_rng(15)
    x = rand_image(rng, h, w)
    target = rand_image(rng, h, w)
    p = fmm.default_params(h, w, mask_mode=mask_mode, n_bins=4)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    acts = fmm.fmm_forward(x, p)
    g = fmm.fmm_backward(acts, p, acts.y_hat - target).spectral_logits.ravel()
    flat = p.spectral_logits.ravel()
    step = 1e-6
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + step
        up = fd_loss(x, p, target)
        flat[idx] = keep - step
        dn = fd_loss(x, p, target)
        flat[idx] = keep
        fd = (up - dn) / (2 * step)
        assert abs(fd - g[idx]) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("h,w", [(8, 9), (9, 8)])
def test_lowpass_grad_matches_finite_differences(mask_mode, spatial_mode, size, h, w):
    # the tap gradient weighs half-spectrum columns by 2, except column 0 and,
    # at an even width, the Nyquist column
    rng = np.random.default_rng(18)
    x = rng.uniform(0.1, 0.9, (2, h, w))
    target = rng.uniform(0.1, 0.9, (2, h, w))
    p = fmm.default_params(
        h, w, mask_mode=mask_mode, spatial_mode=spatial_mode, kernel_size=size, n_bins=3
    )
    p.lowpass = p.lowpass + 0.05 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)
    acts = fmm.fmm_forward(x, p)
    g = fmm.fmm_backward(acts, p, acts.y_hat - target).lowpass.ravel()
    flat = p.lowpass.ravel()
    step = 1e-6
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + step
        up = fd_loss(x, p, target)
        flat[idx] = keep - step
        dn = fd_loss(x, p, target)
        flat[idx] = keep
        fd = (up - dn) / (2 * step)
        assert abs(fd - g[idx]) < 1e-5 * max(1.0, abs(fd))


def test_apply_update_leaves_a_none_block_untouched():
    p = fmm.default_params(8, 8, spatial_mode=fmm.SPATIAL_GAP_AFFINE)
    ones = [np.ones_like(b) for b in (p.lowpass, p.spectral_logits, p.spatial_logits)]
    before = p.lowpass.copy()
    q = fmm.apply_update(p, fmm.FmmGrads(None, *ones[1:]), 0.5)
    assert np.array_equal(q.lowpass, before) and q.lowpass is not p.lowpass
    assert np.all(q.spectral_logits == -0.5)
    assert np.all(q.spatial_logits == -0.5)
    # the input is left untouched (the step is functional, not in-place)
    assert np.all(p.spectral_logits == 0.0)
    r = fmm.apply_update(p, fmm.FmmGrads(*ones), 0.5)
    assert np.all(r.lowpass == before - 0.5)
    s = fmm.apply_update(p, fmm.FmmGrads(None, None, None), 0.5)
    assert fmm.params_to_bytes(s) == fmm.params_to_bytes(p)


def test_wiener_recovery_report_is_the_in_place_step_bits(monkeypatch):
    # A3 steps through apply_update, a copy; its report keeps the bits of the in-place step
    args = dict(height=16, width=16, n_train=8, iterations=40, lr=40.0)
    report = oracles.wiener_recovery(**args)

    def in_place(p, g, lr):
        p.spectral_logits -= lr * g.spectral_logits
        return p

    monkeypatch.setattr(fmm, "apply_update", in_place)
    assert oracles.wiener_recovery(**args) == report


def test_params_bytes_round_trip_exact():
    rng = np.random.default_rng(9)
    for mask_mode, spatial_mode in (
        (fmm.MASK_PER_FREQUENCY, fmm.SPATIAL_PER_PIXEL),
        (fmm.MASK_RADIAL_BINS, fmm.SPATIAL_GAP_AFFINE),
    ):
        p = fmm.default_params(6, 10, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=4)
        p.lowpass = rng.normal(size=p.lowpass.shape)
        p.spectral_logits = rng.normal(size=p.spectral_logits.shape)
        p.spatial_logits = rng.normal(size=p.spatial_logits.shape)
        blob = fmm.params_to_bytes(p)
        q = fmm.params_from_bytes(blob)
        assert q.mask_mode == p.mask_mode and q.spatial_mode == p.spatial_mode
        assert np.array_equal(q.lowpass, p.lowpass)
        assert np.array_equal(q.spectral_logits, p.spectral_logits)
        assert np.array_equal(q.spatial_logits, p.spatial_logits)
        # serialization is canonical: same params -> same bytes
        assert fmm.params_to_bytes(q) == blob


def test_params_file_round_trip(tmp_path):
    p = fmm.default_params(8, 8)
    path = tmp_path / "model.fmmp"
    fmm.save_params(path, p)
    q = fmm.load_params(path)
    assert fmm.params_to_bytes(q) == fmm.params_to_bytes(p)


def test_params_from_bytes_rejects_malformed():
    p = fmm.default_params(6, 6)
    blob = fmm.params_to_bytes(p)
    with pytest.raises(NumericIntegrityError):
        fmm.params_from_bytes(b"JUNK" + blob[4:])
    with pytest.raises(NumericIntegrityError):
        fmm.params_from_bytes(blob[:-8])  # truncated payload
    with pytest.raises(NumericIntegrityError):
        fmm.params_from_bytes(blob.replace(b"FMMP 1", b"FMMP 9", 1))
    with pytest.raises(NumericIntegrityError):
        fmm.params_from_bytes(blob.replace(b"FMMP 1", b"FMMP x", 1))  # version not an int
    with pytest.raises(NumericIntegrityError):
        fmm.params_from_bytes(b"FMMP\xff 1\n" + blob[7:])  # header not ASCII


def _two_branch_sigmoid(x):
    """The former boolean-mask formula, kept as the bit-exact reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    nan = np.float64(np.nan)
    special = [0.0, -0.0, np.inf, -np.inf, nan, -nan, 700.0, -700.0, 745.0, -745.0,
               5e-324, -5e-324]
    x = np.concatenate([special, np.random.default_rng(3).normal(0.0, 30.0, 4000)])
    assert fmm.sigmoid(x).tobytes() == _two_branch_sigmoid(x).tobytes()
    grid = np.random.default_rng(4).normal(0.0, 3.0, (2, 16, 16))
    assert fmm.sigmoid(grid).tobytes() == _two_branch_sigmoid(grid).tobytes()
    assert fmm.sigmoid(grid).shape == grid.shape


def test_validate_params_rejects_shape_mismatch():
    p = fmm.default_params(8, 8)
    with pytest.raises(DimensionError):
        fmm.validate_params(p, 10, 10)
    with pytest.raises(ConfigError):
        fmm.default_params(8, 8, mask_mode="nope")
