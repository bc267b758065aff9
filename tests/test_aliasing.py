"""The operator, the losses and validation write only into arrays they own.

They build their results with in-place arithmetic, so an output that shares
memory with an input, with the parameters or with another call's output would
silently corrupt it. Each call here must leave its inputs byte-identical, and
a first call's outputs must survive a second call unchanged.
"""

import dataclasses

import numpy as np
import pytest

from evorestore import fmm
from evorestore.eos import validate
from evorestore.losses import (
    WeightPair,
    charbonnier,
    combined_loss,
    ms_ssim,
    ms_ssim_value,
    ssim_and_ms_ssim,
)

PAIRS = [
    (fmm.MASK_PER_FREQUENCY, fmm.SPATIAL_PER_PIXEL),
    (fmm.MASK_RADIAL_BINS, fmm.SPATIAL_GAP_AFFINE),
]


def snapshot(obj):
    """Bytes, shapes and dtypes of every array in a nested result, plus its scalars."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return tuple(snapshot(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(snapshot(v) for v in obj)
    return repr(obj)


def inputs(size, stack, mask_mode, spatial_mode):
    rng = np.random.default_rng(size + 3 * stack)
    shape = (3, size, size) if stack else (size, size)
    x = rng.uniform(0.1, 0.9, shape)
    target = np.clip(x + rng.normal(0, 0.1, shape), 0, 1)
    p = fmm.default_params(size, size, mask_mode=mask_mode, spatial_mode=spatial_mode, n_bins=6)
    p.lowpass = p.lowpass + 0.01 * rng.normal(size=p.lowpass.shape)
    p.spectral_logits = rng.normal(0, 0.5, p.spectral_logits.shape)
    p.spatial_logits = rng.normal(0, 0.5, p.spatial_logits.shape)
    return x, target, p


def check_call(fn, *args):
    """fn(*args) twice: the arguments stay byte-identical, the first result unchanged."""
    before = snapshot(args)
    first = fn(*args)
    kept = snapshot(first)
    assert snapshot(args) == before
    second = fn(*args)
    assert snapshot(args) == before
    assert snapshot(first) == kept
    assert snapshot(second) == kept
    return first


@pytest.mark.parametrize("mask_mode,spatial_mode", PAIRS)
@pytest.mark.parametrize("size", [48, 64, 128])
@pytest.mark.parametrize("stack", [False, True])
def test_no_call_mutates_its_inputs_or_an_earlier_output(mask_mode, spatial_mode, size, stack):
    x, target, p = inputs(size, stack, mask_mode, spatial_mode)
    acts = check_call(fmm.fmm_forward, x, p)
    grad_out = acts.y_hat - target
    check_call(fmm.fmm_backward, acts, p, grad_out)
    y = acts.y_hat
    check_call(charbonnier, y, target)
    check_call(ms_ssim, y, target)
    check_call(ms_ssim_value, y, target)
    check_call(ssim_and_ms_ssim, y, target)
    check_call(combined_loss, y, target, WeightPair(0.8, 0.2))
    # the record a backward reads survives a later forward on other inputs
    kept = snapshot(acts)
    fmm.fmm_forward(target, p)
    assert snapshot(acts) == kept
    pairs = list(zip(x, target)) if stack else [(x, target)]
    check_call(validate, p, pairs)


def test_loss_gradients_are_fresh_arrays():
    x, target, _ = inputs(48, True, *PAIRS[0])
    for grad in (charbonnier(x, target)[1], ms_ssim(x, target)[1],
                 combined_loss(x, target, WeightPair(1.0, 0.0))[1],
                 combined_loss(x, target, WeightPair(0.0, 1.0))[1]):
        assert not np.shares_memory(grad, x) and not np.shares_memory(grad, target)
