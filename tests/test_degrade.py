import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evorestore import cli, degrade
from evorestore.degrade import (
    DegradationSpec,
    SplitConfig,
    apply_degradation,
    build_dataset,
    load_dataset,
    psnr,
    read_image,
    read_pgm,
    synthetic_clean_images,
    write_dataset,
    write_pgm,
)
from evorestore.errors import ConfigError, DimensionError, NumericIntegrityError
from evorestore.grids import conv2_periodic, hermitian_flip, read_fgrids

MANIFEST_HEADER = "index,kind,seed,clean"
DATASET_FILES = ["clean.fgrid", "degraded.fgrid", "manifest.txt"]


def flat(v=0.5, n=32):
    return np.full((n, n), v)


def test_noise_statistics_and_determinism():
    spec = DegradationSpec("noise", sigma=0.1, seed=3)
    out1 = apply_degradation(flat(n=64), spec)
    out2 = apply_degradation(flat(n=64), spec)
    assert np.array_equal(out1, out2)
    resid = out1 - 0.5
    assert abs(resid.std() - 0.1) < 0.01
    assert out1.min() >= 0.0 and out1.max() <= 1.0
    out3 = apply_degradation(flat(n=64), DegradationSpec("noise", sigma=0.1, seed=4))
    assert not np.array_equal(out1, out3)


def test_blur_preserves_constants_and_mean():
    spec = DegradationSpec("blur", kernel_sigma=1.5, seed=0)
    assert np.max(np.abs(apply_degradation(flat(0.3), spec) - 0.3)) < 1e-12
    rng = np.random.default_rng(5)
    img = rng.uniform(0.1, 0.9, (24, 24))
    out = apply_degradation(img, spec)
    # periodic convolution with a unit-sum kernel keeps the mean
    assert abs(out.mean() - img.mean()) < 1e-12
    assert out.std() < img.std()


def test_haze_formula():
    spec = DegradationSpec("haze", t0=1.0, airlight=0.9, seed=0)
    img = np.random.default_rng(0).uniform(0, 1, (16, 16))
    assert np.max(np.abs(apply_degradation(img, spec) - img)) < 1e-12
    spec = DegradationSpec("haze", t0=0.4, airlight=1.0, seed=0)
    out = apply_degradation(flat(0.5, 16), spec)
    assert np.max(np.abs(out - 0.8)) < 1e-12  # 0.4*0.5 + 0.6*1.0


def test_lowlight_formula():
    spec = DegradationSpec("lowlight", gamma=2.2, scale=0.5, seed=0)
    assert np.max(np.abs(apply_degradation(np.ones((8, 8)), spec) - 0.5)) < 1e-12
    spec = DegradationSpec("lowlight", gamma=2.0, scale=0.8, seed=0)
    assert np.max(np.abs(apply_degradation(flat(0.25, 8), spec) - 0.05)) < 1e-12


def test_rain_adds_deterministic_streaks():
    spec = DegradationSpec("rain", count=12, angle_deg=70.0, intensity=0.3, seed=8)
    img = flat(0.2, 48)
    out1 = apply_degradation(img, spec)
    out2 = apply_degradation(img, spec)
    assert np.array_equal(out1, out2)
    assert out1.mean() > img.mean()  # streaks only brighten
    assert np.min(out1 - img) >= 0.0
    assert out1.max() <= 1.0


def test_degradation_rejects_out_of_range_input():
    with pytest.raises(NumericIntegrityError):
        apply_degradation(flat(1.5), DegradationSpec("noise", sigma=0.1))


def test_spec_validation():
    with pytest.raises(ConfigError):
        DegradationSpec("noise", sigma=-0.1).validate()
    with pytest.raises(ConfigError, match="kernel_sigma must be > 0"):
        apply_degradation(flat(), DegradationSpec("blur", kernel_sigma=-1.2))
    with pytest.raises(ConfigError):
        DegradationSpec("haze", t0=1.4, airlight=0.9).validate()
    with pytest.raises(ConfigError):
        DegradationSpec("rain", count=0, angle_deg=70, intensity=0.3).validate()
    with pytest.raises(ConfigError):
        DegradationSpec("fog", seed=0).validate()


@pytest.mark.parametrize(
    "spec",
    [
        DegradationSpec("blur", kernel_sigma=math.inf),
        DegradationSpec("rain", count=3, angle_deg=math.nan, intensity=0.3),
        DegradationSpec("noise", sigma=math.inf),
        DegradationSpec("lowlight", gamma=math.inf, scale=0.5),
    ],
    ids=["blur-inf", "rain-nan", "noise-inf", "lowlight-inf"],
)
def test_non_finite_spec_is_a_config_error(spec):
    with pytest.raises(ConfigError, match="must be finite"):
        apply_degradation(flat(), spec)
    with pytest.raises(ConfigError, match="must be finite"):
        build_dataset([flat()], [spec], SplitConfig())


@pytest.mark.parametrize(
    "spec",
    [
        DegradationSpec("rain", count=2.5, intensity=0.3),
        DegradationSpec("rain", count=math.inf, intensity=0.3),
        DegradationSpec("rain", count=True, intensity=0.3),
        DegradationSpec("noise", sigma=0.1, seed=1.5),
        DegradationSpec("noise", sigma="0.1"),
        DegradationSpec("noise", sigma=0.1, count=7),
        DegradationSpec("blur", kernel_sigma=1.0, sigma=0.2),
    ],
    ids=["count-float", "count-inf", "count-bool", "seed-float", "sigma-str",
         "noise-count", "blur-sigma"],
)
def test_mistyped_or_foreign_spec_field_is_a_config_error(spec):
    with pytest.raises(ConfigError):
        apply_degradation(flat(), spec)
    with pytest.raises(ConfigError):
        build_dataset([flat()], [spec], SplitConfig())


def test_psnr_reference_points():
    assert abs(psnr(flat(0.5), flat(0.6)) - 20.0) < 1e-12
    assert psnr(flat(0.5), flat(0.5)) == math.inf
    # a stack gives one value per grid
    got = psnr(np.stack([flat(0.5), flat(0.5)]), np.stack([flat(0.6), flat(0.5)]))
    assert got.shape == (2,) and abs(got[0] - 20.0) < 1e-12 and got[1] == math.inf
    with pytest.raises(DimensionError):
        psnr(flat(0.5, 8), flat(0.5, 9))


def test_psnr_monotone_in_noise_level():
    rng = np.random.default_rng(1)
    img = rng.uniform(0.2, 0.8, (32, 32))
    values = []
    for sigma in (0.02, 0.05, 0.1, 0.2):
        out = apply_degradation(img, DegradationSpec("noise", sigma=sigma, seed=2))
        values.append(psnr(out, img))
    assert values == sorted(values, reverse=True)


def test_synthetic_clean_images():
    imgs = synthetic_clean_images(6, 40, 32, seed=11)
    assert len(imgs) == 6
    for img in imgs:
        assert img.shape == (40, 32)
        assert img.min() >= 0.05 - 1e-12 and img.max() <= 0.95 + 1e-12
    again = synthetic_clean_images(6, 40, 32, seed=11)
    assert all(np.array_equal(a, b) for a, b in zip(imgs, again))
    assert not np.array_equal(imgs[0], imgs[1])


def make_dataset(n_images=10, seed=9):
    images = synthetic_clean_images(n_images, 24, 24, seed=1)
    specs = (
        DegradationSpec("noise", sigma=0.1, seed=50),
        DegradationSpec("blur", kernel_sigma=1.0, seed=60),
    )
    return build_dataset(images, specs, SplitConfig(0.2, 0.0, seed))


def test_dataset_counts_and_stratification():
    ds = make_dataset()
    assert len(ds.pairs) == 20
    assert len(ds.val_idx) == 4 and len(ds.train_idx) == 16
    # stratified: two validation pairs from each degradation kind
    val_kinds = [ds.pairs[i].kind for i in ds.val_idx]
    assert val_kinds.count("noise") == 2 and val_kinds.count("blur") == 2
    # deterministic split
    ds2 = make_dataset()
    assert ds.val_idx == ds2.val_idx and ds.train_idx == ds2.train_idx
    ds3 = make_dataset(seed=10)
    assert ds.val_idx != ds3.val_idx


def test_dataset_per_pair_seeds_differ():
    ds = make_dataset()
    noise_seeds = {p.seed for p in ds.pairs if p.kind == "noise"}
    assert len(noise_seeds) == 10  # one distinct stream per source image
    first = ds.pairs[0]
    assert not np.array_equal(first.clean, first.degraded)


def test_dataset_write_load_round_trip(tmp_path):
    ds = make_dataset()
    manifest = write_dataset(tmp_path, ds)
    header = Path(manifest).read_text().splitlines()[0].strip()
    assert header == MANIFEST_HEADER
    back = load_dataset(manifest, SplitConfig(0.2, 0.0, 9))
    assert len(back.pairs) == len(ds.pairs)
    assert back.val_idx == ds.val_idx
    for a, b in zip(ds.pairs, back.pairs):
        assert a.kind == b.kind and a.seed == b.seed
        assert np.array_equal(a.clean, b.clean)
        assert np.array_equal(a.degraded, b.degraded)


def test_dataset_with_a_numpy_seed_round_trips(tmp_path):
    # DegradationSpec accepts any integral seed; the manifest must write it as an integer
    images = synthetic_clean_images(3, 16, 16, seed=1)
    spec = DegradationSpec("noise", sigma=0.1, seed=np.int64(5))
    ds = build_dataset(images, [spec], SplitConfig(0.34, 0.0, 0))
    manifest = write_dataset(tmp_path, ds)
    lines = Path(manifest).read_text().splitlines()
    assert lines[0] == MANIFEST_HEADER
    assert [ln.split(",")[2] for ln in lines[1:]] == ["5", "6", "7"]
    back = load_dataset(manifest, SplitConfig(0.34, 0.0, 0))
    assert [r.seed for r in back.pairs] == [5, 6, 7]
    assert [r.degraded.tobytes() for r in back.pairs] == [r.degraded.tobytes() for r in ds.pairs]


def test_write_dataset_stores_one_clean_record_per_source_image(tmp_path):
    ds = make_dataset()  # 10 images x 2 kinds; image i is pair i and pair i + 10
    manifest = write_dataset(tmp_path, ds)
    cleans = read_fgrids(tmp_path / "clean.fgrid")
    assert [c.tobytes() for c in cleans] == [r.clean.tobytes() for r in ds.pairs[:10]]
    degraded = read_fgrids(tmp_path / "degraded.fgrid")
    assert [d.tobytes() for d in degraded] == [r.degraded.tobytes() for r in ds.pairs]
    rows = [ln.split(",") for ln in Path(manifest).read_text().splitlines()[1:]]
    for i in range(10):
        assert rows[i][3] == rows[i + 10][3] == str(i)


def test_loaded_pairs_of_one_image_share_one_clean_array(tmp_path):
    back = load_dataset(write_dataset(tmp_path, make_dataset()), SplitConfig(0.2, 0.0, 9))
    for i in range(10):
        assert back.pairs[i].clean is back.pairs[i + 10].clean
    assert len({id(r.clean) for r in back.pairs}) == 10
    assert len({id(r.degraded) for r in back.pairs}) == 20


def write_old_layout(root, ds):
    """Write `ds` in the layout of one FGRID file per grid: clean/<pair index>.fgrid and
    degraded/<pair index>.fgrid, named by a clean_path,degraded_path manifest."""
    from evorestore.grids import write_fgrid

    lines = ["index,kind,seed,clean_path,degraded_path"]
    for sub in ("clean", "degraded"):
        (root / sub).mkdir(parents=True)
    for r in ds.pairs:
        cpath, dpath = f"clean/{r.index:05d}.fgrid", f"degraded/{r.index:05d}.fgrid"
        write_fgrid(root / cpath, r.clean)
        write_fgrid(root / dpath, r.degraded)
        lines.append(f"{r.index},{r.kind},{r.seed},{cpath},{dpath}")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")


def test_old_layout_fails_closed_at_the_manifest_header(tmp_path, capsys):
    write_old_layout(tmp_path / "data", make_dataset())
    manifest = str(tmp_path / "data" / "manifest.txt")
    rc = cli.main(["train", "--manifest", manifest, "-o", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 5
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"corrupt or inconsistent input: {manifest}:1: header ")
    assert not (tmp_path / "run").exists()


def test_write_dataset_leaves_exactly_three_files(tmp_path):
    fresh = tmp_path / "new" / "dir"  # made, parents included
    write_dataset(fresh, make_dataset(n_images=3))
    assert sorted(p.name for p in fresh.iterdir()) == DATASET_FILES
    # the files are rewritten whole: a smaller dataset over a larger one leaves no trace of it
    again = tmp_path / "again"
    write_dataset(again, make_dataset())
    write_dataset(again, make_dataset(n_images=3))
    assert {p.name: p.read_bytes() for p in again.iterdir()} == {
        p.name: p.read_bytes() for p in fresh.iterdir()
    }


def test_writing_a_loaded_dataset_again_gives_the_same_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_dataset(a, make_dataset())
    write_dataset(b, load_dataset(a / "manifest.txt", SplitConfig(0.2, 0.0, 9)))

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert sorted(files(a)) == DATASET_FILES
    assert files(a) == files(b)


def test_pgm_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 1, (9, 7))
    p8 = tmp_path / "a.pgm"
    write_pgm(p8, img, maxval=255)
    assert np.max(np.abs(read_pgm(p8) - img)) <= 0.5 / 255 + 1e-12
    p16 = tmp_path / "b.pgm"
    write_pgm(p16, img, maxval=65535)
    assert np.max(np.abs(read_pgm(p16) - img)) <= 0.5 / 65535 + 1e-12


def test_pgm_comment_and_whitespace_handling(tmp_path):
    raw = b"P5\n# a comment line\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert abs(img[0, 1] - 128 / 255) < 1e-12


def test_read_image_dispatch(tmp_path):
    img = np.random.default_rng(4).uniform(0, 1, (6, 6))
    from evorestore.grids import write_fgrid

    fg = tmp_path / "x.fgrid"
    write_fgrid(fg, img)
    assert np.array_equal(read_image(fg), img)
    # non-.pgm paths go through the FGRID reader, whose magic check rejects junk
    junk = tmp_path / "x.png"
    junk.write_bytes(b"\x89PNG\r\n\x1a\nnot really")
    with pytest.raises(NumericIntegrityError):
        read_image(junk)


def test_split_config_validation():
    with pytest.raises(ConfigError):
        SplitConfig(0.7, 0.5, 0).validate()
    with pytest.raises(ConfigError):
        SplitConfig(-0.1, 0.0, 0).validate()


# ---------------------------------------------------------------------------
# The stacked set-up path against the one-grid-at-a-time code it replaced
# ---------------------------------------------------------------------------


def reference_degradation(clean, spec):
    """The one-grid degradation as it was written before stacks, unchanged."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "noise":
        out = clean + rng.normal(0.0, spec.sigma, size=clean.shape)
    elif spec.kind == "blur":
        out = conv2_periodic(clean, degrade._blur_kernel_for(spec.kernel_sigma, *clean.shape))
    elif spec.kind == "haze":
        out = spec.t0 * clean + (1.0 - spec.t0) * spec.airlight
    elif spec.kind == "lowlight":
        out = spec.scale * np.power(clean, spec.gamma)
    else:  # rain
        out = clean.copy()
        h, w = clean.shape
        theta = math.radians(spec.angle_deg)
        length = max(3, int(0.25 * min(h, w)))
        for _ in range(spec.count):
            ci = rng.uniform(0, h)
            cj = rng.uniform(0, w)
            jitter = math.radians(rng.normal(0.0, 2.0))
            di = math.cos(theta + jitter)
            dj = math.sin(theta + jitter)
            for s in range(-length // 2, length // 2 + 1):
                ii = int(round(ci + s * di)) % h
                jj = int(round(cj + s * dj)) % w
                out[ii, jj] += spec.intensity
    return np.clip(out, 0.0, 1.0)


def reference_clean_images(n, height, width, seed):
    """The synthesis loop as it was written with one Python step per Fourier term, unchanged."""
    rng = np.random.default_rng(seed)
    ii = np.arange(height)[:, None] / height
    jj = np.arange(width)[None, :] / width
    images = []
    for idx in range(n):
        spec = np.zeros((height, width), dtype=np.complex128)
        kmax = 5
        for u in range(-kmax, kmax + 1):
            for v in range(-kmax, kmax + 1):
                if u == 0 and v == 0:
                    continue
                r = math.hypot(u, v)
                if r > kmax:
                    continue
                amp = rng.normal() / (1.0 + r * r)
                phase = rng.uniform(0, 2 * math.pi)
                spec[u % height, v % width] = amp * np.exp(1j * phase)
        spec = 0.5 * (spec + np.conj(hermitian_flip(spec)))
        base = np.fft.ifft2(spec, norm="ortho").real
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


ALL_KINDS = (
    DegradationSpec("noise", sigma=0.1, seed=100),
    DegradationSpec("blur", kernel_sigma=1.2, seed=200),
    DegradationSpec("haze", t0=0.6, airlight=0.9, seed=300),
    DegradationSpec("lowlight", gamma=1.8, scale=0.6, seed=400),
    DegradationSpec("rain", count=20, angle_deg=60.0, intensity=0.5, seed=500),
)


def assert_reference_bytes(images, specs, ds):
    expect = [
        (spec.kind, spec.seed + i, reference_degradation(img, replace(spec, seed=spec.seed + i)))
        for spec in specs
        for i, img in enumerate(images)
    ]
    assert len(ds.pairs) == len(expect)
    for row, (kind, seed, degraded) in zip(ds.pairs, expect):
        assert (row.kind, row.seed) == (kind, seed)
        assert row.clean is images[row.index % len(images)]
        assert row.degraded.tobytes() == degraded.tobytes(), (row.index, kind)


@pytest.mark.parametrize("shape", [(48, 48), (17, 23), (33, 31), (40, 56), (3, 3), (10, 7)])
def test_synthetic_images_are_the_per_image_loop_bytes(shape):
    for seed in (0, 3, 11):
        got = synthetic_clean_images(5, *shape, seed=seed)
        want = reference_clean_images(5, *shape, seed)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("shape", [(64, 64), (17, 23), (33, 31), (40, 56)])
def test_build_dataset_is_the_per_pair_bytes_for_every_kind(shape):
    for seed in (1, 2, 7):
        images = synthetic_clean_images(6, *shape, seed=seed)
        specs = [replace(s, seed=s.seed + 10 * seed) for s in ALL_KINDS]
        assert_reference_bytes(images, specs, build_dataset(images, specs, SplitConfig(0.5)))


def test_overlapping_rain_streaks_are_the_per_pair_bytes():
    # 40 streaks at a negative angle on 24 px grids cross and wrap, so pixels take several adds
    images = synthetic_clean_images(4, 24, 24, seed=5)
    spec = DegradationSpec("rain", count=40, angle_deg=-35.0, intensity=0.05, seed=9)
    ds = build_dataset(images, [spec], SplitConfig(0.25))
    assert_reference_bytes(images, [spec], ds)
    steps = np.round((ds.pairs[0].degraded - images[0]) / 0.05)
    assert steps.max() >= 2  # some pixel took more than one streak sample


def test_mixed_shape_sources_are_the_per_pair_bytes():
    rng = np.random.default_rng(2)
    images = [rng.uniform(0.1, 0.9, shape) for shape in ((16, 16), (24, 20), (16, 16))]
    ds = build_dataset(images, ALL_KINDS, SplitConfig(0.34))
    assert_reference_bytes(images, ALL_KINDS, ds)


def test_blur_convolves_a_stack_a_chunk_at_a_time(monkeypatch):
    calls = []

    def counted(x, k):
        calls.append(np.shape(x))
        return conv2_periodic(x, k)

    monkeypatch.setattr(degrade, "conv2_periodic", counted)
    images = synthetic_clean_images(24, 64, 64, seed=4)
    build_dataset(images, [DegradationSpec("blur", kernel_sigma=1.2, seed=3)], SplitConfig(0.25))
    assert len(calls) <= 3
    assert sum(shape[0] for shape in calls) == 24


def test_apply_degradation_is_one_pair_of_build_dataset():
    images = synthetic_clean_images(5, 20, 28, seed=6)
    ds = build_dataset(images, ALL_KINDS, SplitConfig(0.4))
    for row in ds.pairs:
        spec = ALL_KINDS[row.index // len(images)]
        alone = apply_degradation(images[row.index % len(images)], replace(spec, seed=row.seed))
        assert alone.tobytes() == row.degraded.tobytes()


def test_rain_memory_does_not_grow_with_streak_count():
    img = flat(0.2, 16)

    def peak(count):
        spec = DegradationSpec("rain", count=count, angle_deg=-35.0, intensity=0.01, seed=4)
        tracemalloc.start()
        try:
            apply_degradation(img, spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 20,000 streaks already fill several STACK_PIXELS blocks; ten times as many
    # would hold 8 MB of sample indices at once if the blocks grew with the count
    assert peak(200_000) < 1.25 * peak(20_000)


def test_build_dataset_names_the_out_of_range_clean_image():
    images = [flat(0.5, 8), flat(0.5, 8), np.full((8, 8), 1.5)]
    with pytest.raises(NumericIntegrityError, match=r"\[1\.5, 1\.5\]"):
        build_dataset(images, [DegradationSpec("haze", t0=0.5)], SplitConfig(0.34))
