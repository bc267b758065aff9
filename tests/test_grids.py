import numpy as np
import pytest

from evorestore.errors import DimensionError, NumericIntegrityError
from evorestore.grids import (
    as_kernel,
    conv2_periodic,
    fft2,
    gaussian_kernel,
    identity_kernel,
    read_fgrid,
    transfer,
    wrap_pad,
    write_fgrid,
)
from evorestore.oracles import brute_conv2


def test_impulse_has_flat_spectrum():
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    u = fft2(x)
    assert np.allclose(np.abs(u), 0.25, atol=1e-15)


def test_constant_image_is_pure_dc():
    c = 0.37
    u = fft2(np.full((8, 6), c))
    assert abs(u[0, 0] - c * np.sqrt(48)) < 1e-12
    rest = u.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_fft_round_trip_and_parseval():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=(13, 7))
        u = fft2(x)
        assert np.max(np.abs(np.fft.ifft2(u, norm="ortho") - x)) < 1e-12
        assert abs(np.sum(np.abs(u) ** 2) - np.sum(x**2)) < 1e-9


def test_conv_matches_brute_force_bit_for_bit():
    # same accumulation order as the double-loop reference -> exact equality
    rng = np.random.default_rng(11)
    for size in (1, 3, 5):
        k = rng.normal(size=(size, size))
        x = rng.normal(size=(8, 9))
        assert np.array_equal(conv2_periodic(x, k), brute_conv2(x, k))
        xs = rng.normal(size=(2, 8, 9))
        got = conv2_periodic(xs, k)
        for g, xi in zip(got, xs):
            assert np.array_equal(g, brute_conv2(xi, k))


@pytest.mark.parametrize("shape", [(5, 7), (45, 50), (3, 5, 7), (2, 45, 50)])
def test_wrap_pad_matches_np_pad(shape):
    x = np.random.default_rng(12).normal(size=shape)
    for c in range(4):
        want = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(c, c), (c, c)], mode="wrap")
        got = wrap_pad(x, c)
        assert got.shape == want.shape and np.array_equal(got, want)
    with pytest.raises(DimensionError):
        wrap_pad(x, min(shape[-2:]) + 1)


def test_conv_identity_kernel_is_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6))
    assert np.array_equal(conv2_periodic(x, identity_kernel(1)), x)
    assert np.max(np.abs(conv2_periodic(x, identity_kernel(5)) - x)) < 1e-15


def test_transfer_matches_conv_theorem():
    rng = np.random.default_rng(19)
    for shape in ((16, 16), (12, 20)):
        x = rng.normal(size=shape)
        k = rng.normal(size=(5, 5))
        g = transfer(k, *shape)
        lhs = fft2(conv2_periodic(x, k))
        rhs = g * fft2(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transfer_dc_equals_kernel_sum():
    k = np.array([[0.1, 0.2, 0.1], [0.2, 0.3, 0.2], [0.1, 0.2, 0.1]])
    g = transfer(k, 8, 8)
    assert abs(g[0, 0] - k.sum()) < 1e-14


def test_gaussian_kernel_normalized_and_symmetric():
    k = gaussian_kernel(5, 1.0)
    assert abs(k.sum() - 1.0) < 1e-12
    assert np.array_equal(k, k[::-1, ::-1])
    assert k[2, 2] == k.max()


def test_kernel_validation():
    with pytest.raises(DimensionError):
        as_kernel(np.ones((2, 2)))  # even
    with pytest.raises(DimensionError):
        as_kernel(np.ones((3, 5)))  # not square
    with pytest.raises(DimensionError):
        conv2_periodic(np.ones((3, 3)), np.ones((5, 5)))  # kernel larger than grid


def test_fgrid_round_trip_exact(tmp_path):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(9, 5))
    path = tmp_path / "g.fgrid"
    write_fgrid(path, x)
    back = read_fgrid(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_fgrid_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.fgrid"
    bad.write_bytes(b"NOTAGRID 3 3\n" + b"\x00" * 72)
    with pytest.raises(NumericIntegrityError):
        read_fgrid(bad)
    trunc = tmp_path / "short.fgrid"
    trunc.write_bytes(b"FGRID 3 3\n" + b"\x00" * 10)
    with pytest.raises(NumericIntegrityError):
        read_fgrid(trunc)
