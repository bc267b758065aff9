"""Weight-search engine: projection, fitness, selection, and bookkeeping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from evorestore import fmm
from evorestore.degrade import PSNR_CAP_DB
from evorestore.eos import (
    CandidateRecord,
    EosConfig,
    TriggerSummary,
    ValidationTable,
    WeightPair,
    eos_overhead_report,
    loss_means,
    project_simplex,
    run_eos,
    sample_simplex,
    search_weights,
    validate,
)
from evorestore.errors import ConfigError, NumericIntegrityError
from evorestore.grids import identity_kernel
from evorestore.oracles import simplex_projection_oracle
from evorestore.util import STACK_PIXELS, write_records


def test_projection_worked_examples():
    p = project_simplex(1.2, 0.3)
    assert abs(p.alpha - 0.95) < 1e-15 and abs(p.beta - 0.05) < 1e-15
    p = project_simplex(1.6, 0.1)
    assert p.alpha == 1.0 and p.beta == 0.0
    # shifting (-0.4, 0.2) by (1 - sum)/2 = 0.6 stays inside the simplex
    p = project_simplex(-0.4, 0.2)
    assert abs(p.alpha - 0.2) < 1e-15 and abs(p.beta - 0.8) < 1e-15
    p = project_simplex(-0.4, 0.9)
    assert p.alpha == 0.0 and p.beta == 1.0


def test_projection_fixes_points_already_on_simplex():
    for a in (0.0, 0.25, 0.5, 1.0):
        p = project_simplex(a, 1.0 - a)
        assert abs(p.alpha - a) < 1e-15
        assert abs(p.beta - (1.0 - a)) < 1e-15


def test_projection_invariants_and_oracle_match():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        v = rng.uniform(-2.0, 3.0, size=2)
        p = project_simplex(v[0], v[1])
        assert p.alpha >= 0.0 and p.beta >= 0.0
        assert p.alpha + p.beta == 1.0  # exact by construction
        ref = simplex_projection_oracle(v)
        assert abs(p.alpha - ref[0]) < 1e-12 and abs(p.beta - ref[1]) < 1e-12


def test_projection_rejects_non_finite():
    with pytest.raises(NumericIntegrityError):
        project_simplex(float("nan"), 0.5)


def test_sample_simplex_is_on_simplex():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = sample_simplex(rng)
        assert 0.0 <= p.alpha <= 1.0
        assert p.alpha + p.beta == 1.0


# -- a tiny frozen model + validation set used by all search tests ----------


def identity_model(n=16):
    return fmm.FmmParams(
        lowpass=identity_kernel(1),
        mask_mode=fmm.MASK_PER_FREQUENCY,
        spectral_logits=np.full((n, n), 500.0),
        spatial_mode=fmm.SPATIAL_GAP_AFFINE,
        spatial_logits=np.zeros(2),
    )


def rigged_pairs(kind, n=16):
    """Validation pairs where one loss term dwarfs the other.

    "structural": tiny amplitude sign noise on a flat ramp; cheap pointwise,
    catastrophic for windowed correlation -> the perceptual mean dominates.
    "offset": constant brightness shift; expensive pointwise, nearly invisible
    to variance-based similarity -> the fidelity mean dominates.
    """
    ramp = np.linspace(0.45, 0.55, n)[:, None] * np.ones((1, n))
    if kind == "structural":
        noise = np.sign(np.random.default_rng(7).normal(size=(n, n))) * 0.05
        return [(ramp + noise, ramp)]
    return [(ramp + 0.12, ramp)]


def test_validate_matches_per_pair_metrics():
    from evorestore.degrade import psnr
    from evorestore.losses import charbonnier, ms_ssim_value, ssim_and_ms_ssim

    params = identity_model(48)
    rng = np.random.default_rng(12)
    n_pairs = 2 * (STACK_PIXELS // (48 * 48)) + 1
    clean = [rng.uniform(0.2, 0.8, (48, 48)) for _ in range(n_pairs)]
    pairs = [(c + rng.normal(0, 0.05, c.shape), c) for c in clean]
    pairs[3] = (clean[3], fmm.fmm_forward(clean[3], params).y_hat)  # exact: +inf PSNR
    table = validate(params, pairs)  # runs as two full stacks and a stack of 1 pair
    shapes = (table.psnr.shape, table.ssim.shape, table.fid.shape, table.perc.shape)
    assert shapes == ((n_pairs,),) * 4
    for n, (x, c) in enumerate(pairs):
        y = fmm.fmm_forward(x, params).y_hat
        assert table.psnr[n] == psnr(y, c) or abs(table.psnr[n] - psnr(y, c)) <= 1e-9
        assert abs(table.ssim[n] - ssim_and_ms_ssim(y, c)[0]) <= 1e-12
        assert abs(table.fid[n] - charbonnier(y, c)[0]) <= 1e-12
        assert abs(table.perc[n] - (1.0 - ms_ssim_value(y, c))) <= 1e-12
    assert math.isinf(table.psnr[3])
    with pytest.raises(ConfigError):
        validate(params, [])
    # a shape-free model on a mixed-shape set: each stack gets its own MS-SSIM config
    shape_free = fmm.FmmParams(
        lowpass=identity_kernel(1),
        mask_mode=fmm.MASK_RADIAL_BINS,
        spectral_logits=np.linspace(-1.0, 2.0, 4),
        spatial_mode=fmm.SPATIAL_GAP_AFFINE,
        spatial_logits=np.array([0.5, -0.2]),
    )
    mixed = [(c + rng.normal(0, 0.05, c.shape), c)
             for c in (rng.uniform(0.2, 0.8, s) for s in [(48, 48), (48, 48), (16, 16)])]
    table = validate(shape_free, mixed)
    for n, (x, c) in enumerate(mixed):
        y = fmm.fmm_forward(x, shape_free).y_hat
        assert abs(table.perc[n] - (1.0 - ms_ssim_value(y, c))) <= 1e-12
        assert abs(table.ssim[n] - ssim_and_ms_ssim(y, c)[0]) <= 1e-12


def test_validate_does_not_depend_on_the_stack_budget(monkeypatch):
    from evorestore import eos, util

    rng = np.random.default_rng(21)
    grid_model = fmm.default_params(
        48, 48, mask_mode=fmm.MASK_PER_FREQUENCY, spatial_mode=fmm.SPATIAL_PER_PIXEL
    )
    grid_model.lowpass = grid_model.lowpass + 0.01 * rng.normal(size=grid_model.lowpass.shape)
    grid_model.spectral_logits = rng.normal(0, 0.5, grid_model.spectral_logits.shape)
    grid_model.spatial_logits = rng.normal(0, 0.5, grid_model.spatial_logits.shape)
    shape_free = fmm.FmmParams(
        lowpass=identity_kernel(3),
        mask_mode=fmm.MASK_RADIAL_BINS,
        spectral_logits=np.linspace(-1.0, 2.0, 4),
        spatial_mode=fmm.SPATIAL_GAP_AFFINE,
        spatial_logits=np.array([0.5, -0.2]),
    )
    per_stack = STACK_PIXELS // (48 * 48)
    grid_shapes = [(48, 48)] * (2 * per_stack + 1)
    mixed_shapes = [(48, 48)] * per_stack + [(16, 16)] * 3 + grid_shapes + [(32, 40)] * 2

    def pairs_of(shapes):
        return [(rng.uniform(0.1, 0.9, s), rng.uniform(0.1, 0.9, s)) for s in shapes]

    cases = [(grid_model, pairs_of(grid_shapes)), (shape_free, pairs_of(mixed_shapes))]
    default = [validate(p, pairs) for p, pairs in cases]
    search = EosConfig(population=5, generations=3, elites=2, mutation_sigma=0.3, seed=4)
    sizes = []

    def assert_search_reads_the_table(p, pairs, table):
        # the two-mean pass and a search on it are the table's means, bit for bit
        assert loss_means(p, pairs) == table.loss_means()
        got = run_eos(p, pairs, search, [WeightPair(0.6, 0.4)])[1].records
        assert got == search_weights(*table.loss_means(), search, [WeightPair(0.6, 0.4)])[1].records

    def one_grid_stacks(degraded, clean):
        for x, target in util.stacks(degraded, clean, pixels=1):
            sizes.append(x.shape[0])
            yield x, target

    for (p, pairs), table in zip(cases, default):
        assert_search_reads_the_table(p, pairs, table)
    monkeypatch.setattr(eos, "stacks", one_grid_stacks)
    for (p, pairs), table in zip(cases, default):
        single = validate(p, pairs)
        for col in ("psnr", "ssim", "fid", "perc"):
            assert getattr(table, col).tobytes() == getattr(single, col).tobytes(), col
        assert_search_reads_the_table(p, pairs, table)
    assert sizes == [1] * 3 * (len(grid_shapes) + len(mixed_shapes))


def test_search_pass_forms_no_psnr_ssim_or_gradient(monkeypatch):
    from evorestore import eos, losses

    def forbidden(*args):
        raise AssertionError("the search pass formed a column it does not read")

    params, pairs = identity_model(), rigged_pairs("structural") + rigged_pairs("offset")
    table = validate(params, pairs)
    for module, name in ((eos, "psnr"), (eos, "ssim_and_ms_ssim"),
                         (losses, "_ssim_scale_backward")):
        monkeypatch.setattr(module, name, forbidden)
    assert loss_means(params, pairs) == table.loss_means()
    run_eos(params, pairs, EosConfig(seed=3))


@pytest.mark.parametrize(
    "size,n_pairs,modes,search_bound,validate_bound",
    [(48, 12, (fmm.MASK_RADIAL_BINS, fmm.SPATIAL_GAP_AFFINE), 9.0, 10.5),
     (128, 2, (fmm.MASK_PER_FREQUENCY, fmm.SPATIAL_PER_PIXEL), 10.5, 10.5)],
)
def test_search_and_validation_peak_memory(
    size, n_pairs, modes, search_bound, validate_bound, peak_arrays
):
    # one stack per pass; before: 12.3 (48 px) and 13.8 (128 px) stack-sized arrays
    rng = np.random.default_rng(8)
    params = fmm.default_params(size, size, mask_mode=modes[0], spatial_mode=modes[1])
    pairs = [(rng.uniform(0, 1, (size, size)), rng.uniform(0, 1, (size, size)))
             for _ in range(n_pairs)]
    stack = (n_pairs, size, size)
    assert peak_arrays(lambda: run_eos(params, pairs, EosConfig()), stack) <= search_bound
    assert peak_arrays(lambda: validate(params, pairs), stack) <= validate_bound


def test_fitness_decouples_at_vertices():
    params = identity_model()
    pairs = rigged_pairs("offset")
    mf, mp = validate(params, pairs).loss_means()
    cfg = EosConfig(population=2, generations=1, elites=1, seed=0)
    _, trace = run_eos(params, pairs, cfg, init=[WeightPair(1.0, 0.0), WeightPair(0.0, 1.0)])
    f10, f01 = (r.fitness for r in trace.records)
    assert abs(f10 - (-mf)) < 1e-15
    assert abs(f01 - (-mp)) < 1e-15


def test_fitness_affine_on_simplex():
    # every candidate a real search scored, crossover children and mutants alike
    params = identity_model()
    pairs = rigged_pairs("structural")
    mf, mp = validate(params, pairs).loss_means()
    for seed in range(10):
        cfg = EosConfig(population=5, generations=3, elites=2, mutation_sigma=0.3, seed=seed)
        _, trace = run_eos(params, pairs, cfg)
        assert len(trace.records) == 15
        for r in trace.records:
            assert abs(r.fitness - (-(r.alpha * mf + r.beta * mp))) < 1e-12


def test_single_generation_is_argmax_of_init():
    params = identity_model()
    pairs = rigged_pairs("offset")  # higher beta is strictly better here
    init = [WeightPair(0.9, 0.1), WeightPair(0.4, 0.6), WeightPair(0.7, 0.3)]
    cfg = EosConfig(population=3, generations=1, elites=1, mutation_sigma=0.5, seed=0)
    winner, trace = run_eos(params, pairs, cfg, init=init)
    assert (winner.alpha, winner.beta) == (0.4, 0.6)
    assert trace.evaluations == 3
    assert len(trace.best_per_generation) == 1


def test_zero_mutation_keeps_best_fitness_constant():
    # crossover alone cannot exceed the best candidate of an affine fitness
    params = identity_model()
    pairs = rigged_pairs("structural")
    for seed in range(10):
        cfg = EosConfig(population=5, generations=4, elites=2, mutation_sigma=0.0, seed=seed)
        _, trace = run_eos(params, pairs, cfg)
        best = trace.best_per_generation
        assert all(abs(b - best[0]) < 1e-15 for b in best)


def test_best_fitness_non_decreasing_across_many_seeds():
    params = identity_model()
    for kind in ("structural", "offset"):
        pairs = rigged_pairs(kind)
        for seed in range(30):
            cfg = EosConfig(
                population=5, generations=3, elites=2, mutation_sigma=0.3, seed=seed
            )
            _, trace = run_eos(params, pairs, cfg)
            best = trace.best_per_generation
            assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_run_eos_never_mutates_model_params():
    params = identity_model()
    before = fmm.params_to_bytes(params)
    run_eos(params, rigged_pairs("structural"), EosConfig(seed=5, trigger_interval=1))
    assert fmm.params_to_bytes(params) == before


def test_run_eos_deterministic():
    params = identity_model()
    pairs = rigged_pairs("offset")
    cfg = EosConfig(population=5, generations=3, elites=2, mutation_sigma=0.4, seed=9)
    w1, t1 = run_eos(params, pairs, cfg)
    w2, t2 = run_eos(params, pairs, cfg)
    assert (w1.alpha, w1.beta) == (w2.alpha, w2.beta)
    r1 = [(r.generation, r.candidate, r.alpha, r.beta, r.fitness) for r in t1.records]
    r2 = [(r.generation, r.candidate, r.alpha, r.beta, r.fitness) for r in t2.records]
    assert r1 == r2


def test_search_weights_on_val_losses_matches_run_eos():
    params = identity_model()
    pairs = rigged_pairs("structural") + rigged_pairs("offset")
    cfg = EosConfig(population=5, generations=3, elites=2, mutation_sigma=0.4, seed=11)
    init = [WeightPair(0.3, 0.7)]
    w1, t1 = run_eos(params, pairs, cfg, init, trigger_index=2)
    w2, t2 = search_weights(*validate(params, pairs).loss_means(), cfg, init, trigger_index=2)
    assert w1 == w2
    assert t1.records == t2.records
    assert t1.best_per_generation == t2.best_per_generation
    assert (t1.trigger_index, t1.evaluations) == (t2.trigger_index, t2.evaluations)
    # the trigger's eval time is the validation pass it was given; its total adds the search
    _, t3 = search_weights(0.1, 0.2, cfg, init, eval_ms=1e6)
    assert t3.eval_ms == 1e6 <= t3.total_ms


def test_trace_bookkeeping_and_winner_flag():
    params = identity_model()
    cfg = EosConfig(population=5, generations=3, elites=2, mutation_sigma=0.3, seed=1)
    winner, trace = run_eos(params, rigged_pairs("offset"), cfg, trigger_index=4)
    assert trace.trigger_index == 4
    assert trace.evaluations == 15  # population x generations
    assert len(trace.records) == 15
    flagged = [r for r in trace.records if r.is_winner]
    assert len(flagged) == 1
    assert flagged[0].generation == 2
    assert (flagged[0].alpha, flagged[0].beta) == (winner.alpha, winner.beta)
    assert trace.eval_ms <= trace.total_ms


def test_candidates_stay_on_simplex():
    params = identity_model()
    for seed in range(20):
        cfg = EosConfig(population=6, generations=3, elites=2, mutation_sigma=1.5, seed=seed)
        _, trace = run_eos(params, rigged_pairs("structural"), cfg)
        for r in trace.records:
            assert r.alpha >= 0.0 and r.beta >= 0.0
            assert r.alpha + r.beta == 1.0


def test_init_validation():
    params = identity_model()
    pairs = rigged_pairs("offset")
    too_many = [WeightPair(0.5, 0.5)] * 6
    with pytest.raises(ConfigError):
        run_eos(params, pairs, EosConfig(population=5), init=too_many)
    with pytest.raises(NumericIntegrityError):
        run_eos(params, pairs, EosConfig(), init=[WeightPair(math.nan, 0.5)])


def test_config_validation():
    with pytest.raises(ConfigError):
        EosConfig(population=0).validate()
    with pytest.raises(ConfigError):
        EosConfig(elites=6, population=5).validate()
    with pytest.raises(ConfigError):
        EosConfig(mutation_sigma=-0.1).validate()
    with pytest.raises(ConfigError):
        EosConfig(generations=0).validate()


@pytest.mark.parametrize("sigma", [1e301, 1e308, math.inf, math.nan])
def test_mutation_sigma_that_can_overflow_the_crossover_is_a_config_error(sigma):
    # before: 1e308 passed, and a draw sent the crossover sum to inf, reported
    # by project_simplex as corrupt input
    with pytest.raises(ConfigError, match="mutation_sigma"):
        EosConfig(mutation_sigma=sigma).validate()


def test_largest_mutation_sigma_searches_on_the_simplex():
    cfg = EosConfig(population=6, generations=4, elites=2, mutation_sigma=1e300, seed=0)
    for seed in range(4):
        winner, trace = search_weights(0.3, 0.1, replace(cfg, seed=seed), [WeightPair(0.8, 0.2)])
        assert all(r.alpha + r.beta == 1.0 and math.isfinite(r.fitness) for r in trace.records)
        assert winner == WeightPair(0.0, 1.0)  # the perceptual mean is the lower


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_search_rejects_non_finite_means(mean):
    # before: a NaN fitness sorted arbitrarily and the search named a winner
    for means in ((mean, 0.1), (0.1, mean)):
        with pytest.raises(NumericIntegrityError, match="non-finite validation means"):
            search_weights(*means, EosConfig(), [WeightPair(0.8, 0.2)])


def test_summary_caps_only_exact_restorations():
    ones = np.ones(3)
    t = ValidationTable(np.array([20.0, math.inf, 30.0]), ones, ones, ones)
    assert t.summary(slice(None)) == (3, 1, 25.0, 1.0, 1.0, 1.0)
    assert t.summary(np.array([False, True, False]))[:3] == (1, 1, PSNR_CAP_DB)


@pytest.mark.parametrize("column, value", [
    ("psnr", math.nan), ("psnr", -math.inf), ("ssim", math.nan), ("ssim", math.inf),
    ("fid", math.inf), ("fid", math.nan), ("perc", -math.inf), ("perc", math.nan),
])
def test_summary_rejects_non_finite_metrics(column, value):
    # before: a -inf or NaN PSNR counted as capped, and NaN means were reported
    cols = {name: np.array([20.0, 30.0]) for name in ("psnr", "ssim", "fid", "perc")}
    cols[column][1] = value
    t = ValidationTable(**cols)
    with pytest.raises(NumericIntegrityError, match="non-finite restoration metrics"):
        t.summary(slice(None))
    assert t.summary(np.array([True, False]))[2] == 20.0


def test_trace_csv_schema(tmp_path):
    params = identity_model()
    cfg = EosConfig(population=4, generations=2, elites=1, mutation_sigma=0.3, seed=2)
    _, trace = run_eos(params, rigged_pairs("offset"), cfg, trigger_index=1)
    tp = tmp_path / "eos_trace.csv"
    sp = tmp_path / "eos_summary.csv"
    write_records(tp, CandidateRecord, trace.records)
    write_records(sp, TriggerSummary, [trace.summary()])
    lines = tp.read_text().strip().split("\n")
    assert lines[0] == "trigger,generation,candidate,alpha,beta,fitness,is_elite,is_winner"
    assert len(lines) == 1 + 8  # population x generations rows
    assert all(line.startswith("1,") for line in lines[1:])
    slines = sp.read_text().strip().split("\n")
    assert slines[0] == "trigger,winner_alpha,winner_beta,eval_ms,total_ms,evaluations"
    assert len(slines) == 2
    assert slines[1].startswith("1,")


def test_overhead_report_accounting():
    params = identity_model()
    traces = []
    for seed in range(3):
        _, tr = run_eos(
            params, rigged_pairs("structural"), EosConfig(seed=seed), trigger_index=seed
        )
        traces.append(tr)
    rep = eos_overhead_report(traces, train_wall_ms=10_000.0)
    assert rep.triggers == 3
    assert rep.evaluations == sum(t.evaluations for t in traces)
    assert abs((rep.eval_ms + rep.residual_ms) - rep.total_ms) < 1e-9
    assert abs(rep.pct_of_train - 100.0 * rep.total_ms / 10_000.0) < 1e-12
