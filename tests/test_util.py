"""The allocator setting made at import: warm passes fault no heap pages back in."""

import ctypes
import platform
import resource

import pytest

from evorestore import eos, fmm, util
from evorestore.degrade import DegradationSpec, SplitConfig, build_dataset, synthetic_clean_images
from evorestore.eos import EosConfig
from evorestore.trainer import TrainConfig, train

GLIBC = platform.libc_ver()[0] == "glibc"


def _third_call_faults(fn):
    """Minor page faults of the process during the third of three fn() calls."""
    for _ in range(2):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.fixture(scope="module")
def dataset_48():
    images = synthetic_clean_images(30, 48, 48, seed=3)
    specs = (
        DegradationSpec("noise", sigma=0.3, seed=30),
        DegradationSpec("blur", kernel_sigma=0.8, seed=40),
    )
    return build_dataset(images, specs, SplitConfig(0.2, 0.0, 7))


@pytest.mark.skipif(not GLIBC, reason="the allocator setting is made on glibc only")
def test_warm_passes_fault_no_heap_pages_in(dataset_48):
    # before the setting, glibc trimmed each pass's freed temporaries and the
    # next pass faulted them in again: 301, 301 and about 3k faults per call
    val = dataset_48.restoration_pairs("val")
    assert len(val) == 12
    p = fmm.default_params(48, 48, mask_mode="radial_bins", spatial_mode="gap_affine")
    assert _third_call_faults(lambda: eos.loss_means(p, val)) <= 32
    assert _third_call_faults(lambda: eos.validate(p, val)) <= 32
    cfg = TrainConfig(iterations=20, batch_size=6, learning_rate=0.1, mask_mode="radial_bins",
                      spatial_mode="gap_affine", eval_every=0,
                      eos=EosConfig(trigger_interval=10**6))
    assert _third_call_faults(lambda: train(dataset_48, cfg)) <= 200


def test_no_allocator_call_off_glibc(monkeypatch):
    loaded = []
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: loaded.append(a))
    util._keep_freed_heap()
    assert loaded == []
