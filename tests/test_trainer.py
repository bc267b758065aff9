"""Training loop: schedule, determinism, divergence guard, and CSV output."""

import math

import numpy as np
import pytest

from evorestore import eos, fmm, losses, trainer
from evorestore.degrade import DegradationSpec, SplitConfig, build_dataset, synthetic_clean_images
from evorestore.eos import EosConfig, validate
from evorestore.errors import ConfigError, DivergenceError
from evorestore.trainer import (
    EvalPoint,
    IterationRow,
    MetricsRow,
    TrainConfig,
    evaluate,
    train,
)
from evorestore.util import STACK_PIXELS, stacks, write_records

NO_TRIGGER = 10**6


def small_dataset(n_images=6, size=24):
    images = synthetic_clean_images(n_images, size, size, seed=2)
    specs = (
        DegradationSpec("noise", sigma=0.1, seed=30),
        DegradationSpec("blur", kernel_sigma=1.0, seed=40),
    )
    return build_dataset(images, specs, SplitConfig(0.2, 0.0, 7))


def small_config(**over):
    base = dict(
        iterations=30,
        learning_rate=0.05,
        batch_size=4,
        eval_every=10,
        mask_mode="radial_bins",
        n_bins=6,
        spatial_mode="gap_affine",
        kernel_size=3,
        seed=0,
        eos=EosConfig(population=4, generations=2, elites=1, mutation_sigma=0.3,
                      trigger_interval=NO_TRIGGER, seed=0),
    )
    base.update(over)
    return TrainConfig(**base)


def test_loss_descends_with_full_batch():
    ds = small_dataset()
    n_train = len(ds.train_idx)
    cfg = small_config(iterations=40, batch_size=n_train, learning_rate=0.02)
    _, trace = train(ds, cfg)
    first = np.mean([r.loss_combined for r in trace.rows[:5]])
    last = np.mean([r.loss_combined for r in trace.rows[-5:]])
    assert last < first
    # validation metrics moved the right way too
    assert trace.evals[-1].psnr > trace.evals[0].psnr


def test_training_is_deterministic():
    ds = small_dataset()
    cfg = small_config(eos=EosConfig(4, 2, 1, 0.3, 10, 0))  # triggers every 10 its
    p1, t1 = train(ds, cfg)
    p2, t2 = train(ds, cfg)
    assert fmm.params_to_bytes(p1) == fmm.params_to_bytes(p2)
    assert [(r.iteration, r.loss_combined, r.alpha) for r in t1.rows] == [
        (r.iteration, r.loss_combined, r.alpha) for r in t2.rows
    ]
    assert t1.weight_timeline == t2.weight_timeline


def test_trigger_schedule_and_weight_timeline():
    ds = small_dataset()
    cfg = small_config(iterations=25, eos=EosConfig(4, 2, 1, 0.3, 10, 0))
    _, trace = train(ds, cfg)
    # triggers fire after iterations 10 and 20; 25 itself is past the end
    assert len(trace.eos_traces) == 2
    assert [t.trigger_index for t in trace.eos_traces] == [1, 2]
    starts = [entry[0] for entry in trace.weight_timeline]
    assert starts == [1, 11, 21]
    # weights are constant between triggers
    by_iter = {r.iteration: (r.alpha, r.beta) for r in trace.rows}
    assert len({by_iter[i] for i in range(1, 11)}) == 1
    assert len({by_iter[i] for i in range(11, 21)}) == 1


def test_no_trigger_when_interval_exceeds_iterations():
    ds = small_dataset()
    _, trace = train(ds, small_config())
    assert trace.eos_traces == []
    assert len(trace.weight_timeline) == 1
    a, b = trace.rows[-1].alpha, trace.rows[-1].beta
    assert (a, b) == (0.8, 0.2)


def test_freeze_blocks_parameter_group():
    ds = small_dataset()
    cfg = small_config(freeze=("lowpass",))
    params, _ = train(ds, cfg)
    fresh = fmm.default_params(
        24, 24, mask_mode="radial_bins", n_bins=6, spatial_mode="gap_affine", kernel_size=3
    )
    assert np.array_equal(params.lowpass, fresh.lowpass)
    assert not np.array_equal(params.spectral_logits, fresh.spectral_logits)


@pytest.mark.parametrize("mask_mode", ["per_frequency", "radial_bins"])
@pytest.mark.parametrize("spatial_mode", ["per_pixel", "gap_affine"])
def test_frozen_blocks_skip_their_terms_and_train_the_same_bytes(
    monkeypatch, mask_mode, spatial_mode
):
    fields = dict(zip(fmm.BLOCKS, ("lowpass", "spectral_logits", "spatial_logits")))
    formed = []

    class RecordingSums(fmm.GradSums):
        def finish(self):
            g = super().finish()
            formed.append({b for b in fmm.BLOCKS if getattr(g, fields[b]) is not None})
            for b in dropped:
                setattr(g, fields[b], None)
            return g

    def every_block(p, h, w, train):  # the reference: every term formed, the frozen dropped
        return fmm.prepare(p, h, w)

    monkeypatch.setattr(trainer, "GradSums", RecordingSums)
    ds = small_dataset()
    for freeze in (("lowpass",), ("spectral", "spatial"), ("lowpass", "spatial")):
        cfg = small_config(iterations=4, eval_every=2, mask_mode=mask_mode,
                           spatial_mode=spatial_mode, freeze=freeze,
                           eos=EosConfig(4, 2, 1, 0.3, 3, 0))
        runs = []
        for prepare, dropped in ((fmm.prepare, set()), (every_block, set(freeze))):
            monkeypatch.setattr(trainer, "prepare", prepare)
            params, trace = train(ds, cfg)
            runs.append((fmm.params_to_bytes(params), trace.rows, trace.evals,
                         trace.weight_timeline))
            assert formed[-1] == set(fmm.BLOCKS) - set(freeze) | dropped
        assert runs[0] == runs[1], freeze


def test_divergence_guard():
    ds = small_dataset()
    cfg = small_config(learning_rate=1e9, iterations=200)
    with pytest.raises(DivergenceError) as exc:
        train(ds, cfg)
    assert exc.value.iteration >= 1
    assert exc.value.loss > 1e6


def test_nan_perceptual_value_diverges_at_a_vertex(monkeypatch):
    # at beta == 0 the perceptual loss is valued but not differentiated; a NaN still stops the run
    monkeypatch.setattr(losses, "ms_ssim_value", lambda pred, *_: np.full(len(pred), np.nan))
    with pytest.raises(DivergenceError) as exc:
        train(small_dataset(), small_config(init_alpha=1.0, init_beta=0.0))
    assert exc.value.iteration == 1 and math.isnan(exc.value.loss)


@pytest.mark.parametrize("name, value, eval_every, trigger, iteration, message", [
    ("charbonnier_value", np.inf, 3, NO_TRIGGER, 3, "validation fidelity mean inf"),
    ("charbonnier_value", np.inf, 0, 2, 2, "validation fidelity mean inf"),
    ("ms_ssim_value", np.nan, 0, 2, 2, "validation perceptual mean nan"),
])
def test_non_finite_validation_mean_diverges(
    monkeypatch, name, value, eval_every, trigger, iteration, message
):
    # before: the run went on, and a search ranked the NaN fitness of every candidate
    monkeypatch.setattr(eos, name, lambda pred, *_: np.full(len(pred), value))
    eos_cfg = EosConfig(population=4, generations=2, elites=1, trigger_interval=trigger)
    with pytest.raises(DivergenceError, match=message) as exc:
        train(small_dataset(), small_config(eval_every=eval_every, eos=eos_cfg))
    assert exc.value.iteration == iteration


def test_lr_halving_schedule():
    ds = small_dataset()
    cfg = small_config(iterations=20, lr_halve_at=10)
    _, trace = train(ds, cfg)
    lrs = {r.iteration: r.lr for r in trace.rows}
    assert lrs[10] == 0.05
    assert lrs[11] == 0.025
    assert lrs[20] == 0.025


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(iterations=0).validate()
    with pytest.raises(ConfigError):
        small_config(init_alpha=0.7, init_beta=0.2).validate()  # off the simplex
    with pytest.raises(ConfigError):
        small_config(freeze=("bias",)).validate()
    # before, a repeated block was accepted, and freezing every block ran with a constant loss
    with pytest.raises(ConfigError, match="twice"):
        small_config(freeze=("lowpass", "lowpass")).validate()
    with pytest.raises(ConfigError, match="nothing would train"):
        small_config(freeze=("spatial", "lowpass", "spectral")).validate()
    small_config(freeze=("spatial", "lowpass")).validate()
    for bad in (dict(kernel_size=4), dict(kernel_size=0), dict(kernel_size=-3), dict(n_bins=1),
                dict(seed=-1), dict(eos=EosConfig(seed=-1))):
        with pytest.raises(ConfigError):
            small_config(**bad).validate()
    with pytest.raises(ConfigError):
        train(small_dataset(), small_config(mask_mode="vertical"))
    with pytest.raises(ConfigError):
        train(small_dataset(), small_config(kernel_size=25))  # wider than the 24 px grids


@pytest.mark.parametrize(
    "cls,name",
    [(EosConfig, "mutation_sigma"), (TrainConfig, "init_alpha"), (TrainConfig, "init_beta"),
     (TrainConfig, "learning_rate")],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_config_value_is_a_config_error(cls, name, value):
    with pytest.raises(ConfigError):
        cls(**{name: value}).validate()


def test_one_validation_pass_per_eval_or_trigger_iteration(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    # eos's names too, so a search that ran its own pass would be counted
    for module in (trainer, eos):
        monkeypatch.setattr(module, "validate", counting("validate", validate))
        monkeypatch.setattr(module, "loss_means", counting("loss_means", eos.loss_means))
    ds = small_dataset()
    search = EosConfig(4, 2, 1, 0.3, 5, 0)
    # evals at 5, 10, 15, 20; triggers at 5, 10, 15 read the same passes
    params, trace = train(ds, small_config(iterations=20, eval_every=5, eos=search))
    assert calls == ["validate"] * 4
    assert len(trace.evals) == 4 and len(trace.eos_traces) == 3
    for point, t in zip(trace.evals, trace.eos_traces):
        for r in t.records:
            assert r.fitness == -(r.alpha * point.loss_fid + r.beta * point.loss_perc)
        assert 0.0 < t.eval_ms <= t.total_ms
    calls.clear()
    alone, alone_trace = train(ds, small_config(iterations=20, eval_every=0, eos=search))
    assert calls == ["loss_means"] * 3  # a trigger without an eval point reads two means
    # sharing the pass with the evals changes nothing about the training
    assert fmm.params_to_bytes(alone) == fmm.params_to_bytes(params)
    assert alone_trace.weight_timeline == trace.weight_timeline


def test_evaluate_table():
    ds = small_dataset()
    params, _ = train(ds, small_config(iterations=10))
    rows = evaluate(params, ds, "val")
    kinds = [r.kind for r in rows]
    assert kinds == ["blur", "noise", "all"]
    assert sum(r.count for r in rows if r.kind != "all") == len(ds.val_idx)
    all_row = rows[-1]
    assert all_row.count == len(ds.val_idx)
    assert 0.0 < all_row.ssim_mean <= 1.0
    assert all_row.capped == 0
    with pytest.raises(ConfigError):
        evaluate(params, ds, "test")  # empty split


def test_eval_point_and_evaluate_average_psnr_alike(monkeypatch):
    # one validation pair restored exactly: its +inf PSNR is left out of both means
    real = trainer.validate

    def one_exact_pair(*args):
        table = real(*args)
        table.psnr[0] = math.inf
        return table

    monkeypatch.setattr(trainer, "validate", one_exact_pair)
    ds = small_dataset()
    params, trace = train(ds, small_config(iterations=1, eval_every=1))
    all_row = evaluate(params, ds, "val")[-1]
    point = trace.evals[0]
    assert all_row.capped == 1 and math.isfinite(point.psnr)
    assert (point.psnr, point.ssim, point.loss_fid, point.loss_perc) == (
        all_row.psnr_mean, all_row.ssim_mean, all_row.fid_mean, all_row.perc_mean
    )


def test_library_never_writes_into_dataset_grids(tmp_path):
    # loaded pairs of one image share its clean array, so one write would reach every kind
    from evorestore.degrade import load_dataset, write_dataset

    split = SplitConfig(0.2, 0.0, 7)
    ds = load_dataset(write_dataset(tmp_path, small_dataset()), split)
    assert ds.pairs[0].clean is ds.pairs[6].clean
    before = [(r.clean.tobytes(), r.degraded.tobytes()) for r in ds.pairs]
    search = EosConfig(4, 2, 1, 0.3, 5, 0)
    params, _ = train(ds, small_config(iterations=10, eval_every=5, eos=search))
    evaluate(params, ds, "val")
    evaluate(params, ds, "train")
    eos.run_eos(params, ds.restoration_pairs("val"), search)
    assert [(r.clean.tobytes(), r.degraded.tobytes()) for r in ds.pairs] == before


def test_stacks_bound_pixels_and_split_at_shape_changes():
    per_stack = STACK_PIXELS // (48 * 48)
    grids = [np.full((48, 48), float(i)) for i in range(2 * per_stack + 1)]
    got = list(stacks(grids, grids[::-1]))
    assert [a.shape[0] for a, _ in got] == [per_stack, per_stack, 1]
    assert np.array_equal(np.concatenate([a for a, _ in got]), np.stack(grids))
    assert np.array_equal(np.concatenate([b for _, b in got]), np.stack(grids[::-1]))
    # a grid above the budget still forms a stack of one
    big = [np.zeros((2, STACK_PIXELS))] * 2
    assert [a.shape for a, _ in stacks(big, big)] == [(1, 2, STACK_PIXELS)] * 2
    # matching stacks of a second sequence; any shape change ends a stack
    small = [np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((4, 4))]
    pairs = list(stacks(small, [np.zeros((8, 8)), np.zeros((6, 6)), np.zeros((4, 4))]))
    assert [(a.shape, b.shape) for a, b in pairs] == [
        ((1, 8, 8), (1, 8, 8)),
        ((1, 8, 8), (1, 6, 6)),
        ((1, 4, 4), (1, 4, 4)),
    ]


def test_stacks_take_a_pixel_budget():
    grids = [np.full((64, 64), float(i)) for i in range(20)]
    got = list(stacks(grids, grids, pixels=8192))
    assert [a.shape[0] for a, _ in got] == [2] * 10
    assert np.array_equal(np.concatenate([a for a, _ in got]), np.stack(grids))
    assert [a.shape[0] for a, _ in stacks(grids[:3], grids[:3], pixels=1)] == [1, 1, 1]


@pytest.mark.parametrize("mask_mode", ["per_frequency", "radial_bins"])
@pytest.mark.parametrize("spatial_mode", ["per_pixel", "gap_affine"])
def test_trained_bytes_do_not_depend_on_the_stack_budget(monkeypatch, mask_mode, spatial_mode):
    ds = small_dataset()  # 24 px grids, 10 training pairs
    cfg = small_config(iterations=6, batch_size=6, eval_every=2, mask_mode=mask_mode,
                       spatial_mode=spatial_mode, eos=EosConfig(4, 2, 1, 0.3, 3, 0))
    runs, sizes = [], []
    for grids_per_stack in (1, 2, None):  # None: util.stacks' default budget
        seen = []

        def budgeted(degraded, clean, grids_per_stack=grids_per_stack, seen=seen):
            pixels = STACK_PIXELS if grids_per_stack is None else grids_per_stack * 24 * 24
            for pair in stacks(degraded, clean, pixels=pixels):
                seen.append(len(pair[0]))
                yield pair

        monkeypatch.setattr(trainer, "stacks", budgeted)
        params, trace = train(ds, cfg)
        sizes.append(seen[:len(seen) // cfg.iterations])
        runs.append((fmm.params_to_bytes(params), trace.rows, trace.evals, trace.weight_timeline))
    assert sizes == [[1] * 6, [2] * 3, [6]]  # one batch as six, three and one stacks
    assert len(runs[0][3]) == 2  # a search trigger moved the weights mid-run
    assert runs[0] == runs[1] == runs[2]


def test_csv_writers(tmp_path):
    ds = small_dataset()
    params, trace = train(ds, small_config(iterations=10, eos=EosConfig(4, 2, 1, 0.3, 5, 0)))
    tp, ep, mp = tmp_path / "t.csv", tmp_path / "e.csv", tmp_path / "m.csv"
    write_records(tp, IterationRow, trace.rows)
    write_records(ep, EvalPoint, trace.evals)
    write_records(mp, MetricsRow, evaluate(params, ds, "val"))
    tl = tp.read_text().strip().split("\n")
    assert tl[0] == "iteration,loss_fid,loss_perc,loss_combined,alpha,beta,lr"
    assert len(tl) == 11
    el = ep.read_text().strip().split("\n")
    assert el[0] == "iteration,psnr,ssim,loss_fid,loss_perc"
    ml = mp.read_text().strip().split("\n")
    assert ml[0] == "split,kind,count,capped,psnr_mean,ssim_mean,fid_mean,perc_mean"
    assert len(ml) == 4
