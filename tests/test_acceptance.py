"""Acceptance gate: one check per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete. The Wiener recovery (A3, ~35 s) and the convergence fixture behind
A5/A6 (ten small models, ~20 s) dominate the runtime; everything else
finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from evorestore import cli, fmm, oracles
from evorestore.degrade import (
    DegradationSpec,
    SplitConfig,
    build_dataset,
    synthetic_clean_images,
)
from evorestore.eos import EosConfig, eos_overhead_report, project_simplex, run_eos, validate
from evorestore.grids import identity_kernel
from evorestore.trainer import TrainConfig, train


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# A1 - band-split equivalence, spatial route vs frequency route
# ---------------------------------------------------------------------------


def test_a1_band_split_equivalence():
    t0 = time.perf_counter()
    r = oracles.check_split_equivalence(50, seed=1001)
    dt = time.perf_counter() - t0
    ok = r.passed and dt < 5.0
    report("A1 band-split equivalence", ok, f"{r.detail}, 50 pairs in {dt:.1f}s")


# ---------------------------------------------------------------------------
# A2 - analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_a2_gradient_exactness():
    t0 = time.perf_counter()
    results = oracles.check_fmm_gradients(20)
    results.append(oracles.check_charbonnier_gradient(20))
    results.append(oracles.check_ms_ssim_gradient(20))
    dt = time.perf_counter() - t0
    worst = max(r.error / r.tol for r in results)
    ok = all(r.passed for r in results) and dt < 60.0
    report(
        "A2 gradient exactness",
        ok,
        f"8 gradient classes, worst rel error {worst:.2e} x tol, 20 trials each in {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# A3 - learned spectral mask vs closed-form Wiener optimum
# ---------------------------------------------------------------------------


def test_a3_wiener_mask_recovery():
    t0 = time.perf_counter()
    rep = oracles.wiener_recovery()
    dt = time.perf_counter() - t0
    ok = rep.mask_linf <= 0.05 and rep.gain_db >= 3.0 and dt < 300.0
    report(
        "A3 Wiener mask recovery",
        ok,
        f"mask Linf {rep.mask_linf:.4f} <= 0.05 over {rep.checked} coeffs, "
        f"PSNR gain {rep.gain_db:.2f} dB >= 3, {dt:.0f}s",
    )


# ---------------------------------------------------------------------------
# A4 - weight-search engine correctness
# ---------------------------------------------------------------------------


def tiny_identity_model(n=16):
    return fmm.FmmParams(
        lowpass=identity_kernel(1),
        mask_mode=fmm.MASK_PER_FREQUENCY,
        spectral_logits=np.full((n, n), 500.0),
        spatial_mode=fmm.SPATIAL_GAP_AFFINE,
        spatial_logits=np.zeros(2),
    )


def dominated_pairs(kind, n=16):
    """One-pair validation sets where a single loss term dwarfs the other.

    "structural": flat ramp plus small sign noise - cheap pointwise but fatal
    for windowed correlation, so the perceptual term dominates and the best
    weights sit at the fidelity vertex (1, 0).  "offset": constant brightness
    shift - expensive pointwise, nearly invisible to variance-based
    similarity, so the optimum is the perceptual vertex (0, 1).
    """
    ramp = np.linspace(0.45, 0.55, n)[:, None] * np.ones((1, n))
    if kind == "structural":
        noise = np.sign(np.random.default_rng(7).normal(size=(n, n))) * 0.05
        return [(ramp + noise, ramp)]
    return [(ramp + 0.12, ramp)]


def test_a4_weight_search_correctness():
    t0 = time.perf_counter()
    model = tiny_identity_model()
    rigs = {k: dominated_pairs(k) for k in ("structural", "offset")}
    searched = []  # (rig, trace) of every search below, for (ii)

    def search(kind, cfg):
        w, tr = run_eos(model, rigs[kind], cfg)
        searched.append((kind, tr))
        return w, tr

    # (i) per-generation best fitness never decreases, across configs and rigs
    monotone = True
    for seed in range(30):
        for cfg in (
            EosConfig(seed=seed),
            EosConfig(population=5, generations=3, elites=1, mutation_sigma=0.7, seed=seed),
        ):
            for kind in rigs:
                best = search(kind, cfg)[1].best_per_generation
                monotone &= all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    # (iii) vertex recovery under rigged dominance: wide mutation + single
    # elite so the search can actually reach the corners in G=3 generations
    hits = 0
    for seed in range(50):
        cfg = EosConfig(population=5, generations=3, elites=1, mutation_sigma=0.7,
                        trigger_interval=1, seed=seed)
        for kind, vertex in (("structural", (1.0, 0.0)), ("offset", (0.0, 1.0))):
            w, _ = search(kind, cfg)
            if math.hypot(w.alpha - vertex[0], w.beta - vertex[1]) <= 0.05:
                hits += 1

    # (ii) fitness is affine on the weight simplex: every candidate those
    # searches scored has fitness -(alpha * mf + beta * mp) for its rig's means
    means = {k: validate(model, pairs).loss_means() for k, pairs in rigs.items()}
    affinity = max(
        abs(r.fitness - (-(r.alpha * means[k][0] + r.beta * means[k][1])))
        for k, tr in searched
        for r in tr.records
    )

    # (iv) the search never mutates model parameters
    before = fmm.params_to_bytes(model)
    run_eos(model, rigs["structural"], EosConfig(seed=3))
    unchanged = fmm.params_to_bytes(model) == before

    dt = time.perf_counter() - t0
    ok = monotone and affinity <= 1e-12 and hits >= 95 and unchanged and dt < 60.0
    report(
        "A4 weight-search correctness",
        ok,
        f"monotone {monotone}, affinity {affinity:.1e} <= 1e-12, "
        f"vertex hits {hits}/100 >= 95, params unchanged {unchanged}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# A5/A6 - convergence acceleration and overhead of the weight search
# ---------------------------------------------------------------------------

ITERATIONS = 900
SEEDS = range(5)


@pytest.fixture(scope="module")
def convergence_runs():
    """Five seed-matched (fixed-weights, searched-weights) training pairs.

    Mixed noise+blur restoration at desk scale: 60 pairs of 48x48 images,
    48 train / 12 val. The fixed arm keeps (0.8, 0.2) throughout; the
    searched arm re-selects weights every 50 iterations.
    """
    images = synthetic_clean_images(30, 48, 48, seed=5)
    specs = (
        DegradationSpec("noise", sigma=0.30, seed=100),
        DegradationSpec("blur", kernel_sigma=0.8, seed=200),
    )
    dataset = build_dataset(images, specs, SplitConfig(0.2, 0.0, 9))
    t0 = time.perf_counter()
    runs = []
    for seed in SEEDS:
        arms = {}
        for label, interval in (("fixed", 10**6), ("searched", 50)):
            cfg = TrainConfig(
                iterations=ITERATIONS,
                learning_rate=0.1,
                batch_size=6,
                eval_every=10,
                mask_mode="radial_bins",
                n_bins=10,
                spatial_mode="gap_affine",
                kernel_size=5,
                seed=seed,
                eos=EosConfig(population=5, generations=3, elites=2,
                              mutation_sigma=0.05, trigger_interval=interval,
                              seed=seed),
            )
            arms[label] = train(dataset, cfg)
        runs.append(arms)
    return runs, time.perf_counter() - t0


def weights_at(timeline, iteration):
    """Active (alpha, beta) at `iteration` from a (from_iter, a, b) timeline."""
    active = timeline[0]
    for entry in timeline:
        if entry[0] <= iteration:
            active = entry
    return active[1], active[2]


def own_combined(trace, point):
    a, b = weights_at(trace.weight_timeline, point.iteration)
    return a * point.loss_fid + b * point.loss_perc


def test_a5_search_accelerates_convergence(convergence_runs):
    runs, fixture_s = convergence_runs
    fracs, dpsnr = [], []
    for arms in runs:
        base, srch = arms["fixed"][1], arms["searched"][1]
        target = own_combined(base, base.evals[-1])
        crossing = next(
            (p.iteration for p in srch.evals if own_combined(srch, p) <= target),
            math.inf,
        )
        fracs.append(crossing / ITERATIONS)
        dpsnr.append(srch.evals[-1].psnr - base.evals[-1].psnr)
    med_frac = float(np.median(fracs))
    med_dpsnr = float(np.median(dpsnr))
    ok = med_frac <= 0.9 and med_dpsnr >= -0.05 and fixture_s < 900.0
    report(
        "A5 convergence acceleration",
        ok,
        f"median crossing fraction {med_frac:.3f} <= 0.9, "
        f"median final-PSNR delta {med_dpsnr:+.3f} dB >= -0.05, "
        f"5 seeds x 2 arms in {fixture_s:.0f}s",
    )


def test_a6_search_overhead_accounting(convergence_runs):
    runs, _ = convergence_runs
    worst_decomp = 0.0
    worst_pct = 0.0
    for arms in runs:
        trace = arms["searched"][1]
        rep = eos_overhead_report(trace.eos_traces, trace.wall_ms)
        for t in trace.eos_traces:
            residual = t.total_ms - t.eval_ms
            worst_decomp = max(worst_decomp, abs((t.eval_ms + residual) - t.total_ms))
            assert 0.0 <= t.eval_ms <= t.total_ms
        assert abs((rep.eval_ms + rep.residual_ms) - rep.total_ms) <= 1.0
        worst_pct = max(worst_pct, rep.pct_of_train)
    ok = worst_decomp <= 1.0 and worst_pct < 10.0
    report(
        "A6 search overhead accounting",
        ok,
        f"eval+residual=total within {worst_decomp:.2e} ms <= 1, "
        f"worst search share {worst_pct:.2f}% of training wall < 10%",
    )


# ---------------------------------------------------------------------------
# A7 - projection invariants and end-to-end determinism
# ---------------------------------------------------------------------------


def test_a7_determinism_and_projection(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        p = project_simplex(a, b)
        assert p.alpha >= 0.0 and p.beta >= 0.0
        assert p.alpha + p.beta == 1.0
        ref = oracles.simplex_projection_oracle([a, b])
        worst = max(worst, abs(p.alpha - ref[0]), abs(p.beta - ref[1]))

    data = tmp_path / "data"
    assert cli.main(
        ["degrade", "--synthetic", "4", "--size", "16",
         "--set", "degradation.specs=noise(sigma=0.1,seed=5);blur(kernel_sigma=1.0,seed=6)",
         "-o", str(data)]
    ) == 0
    train_args = [
        "train", "--manifest", str(data / "manifest.txt"),
        "--set", "trainer.iterations=12", "--set", "trainer.learning_rate=0.05",
        "--set", "trainer.batch_size=4", "--set", "trainer.eval_every=4",
        "--set", "trainer.kernel_size=3", "--set", "eos.population=3",
        "--set", "eos.generations=2", "--set", "eos.elites=1",
        "--set", "eos.trigger_interval=4",
    ]
    outs = (tmp_path / "r1", tmp_path / "r2")
    for out in outs:
        assert cli.main([*train_args, "-o", str(out)]) == 0

    identical = True
    for name in ("final.fmmp", "trace.csv", "eval.csv", "eos_trace.csv"):
        identical &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # eos_summary.csv carries two wall-clock columns (eval_ms, total_ms);
    # every other column must still match exactly
    s1, s2 = ((o / "eos_summary.csv").read_text().splitlines() for o in outs)
    identical &= len(s1) == len(s2) and s1[0] == s2[0]
    timing = {s1[0].split(",").index(c) for c in ("eval_ms", "total_ms")}
    for l1, l2 in zip(s1[1:], s2[1:]):
        f1, f2 = l1.split(","), l2.split(",")
        identical &= all(a == b for i, (a, b) in enumerate(zip(f1, f2)) if i not in timing)

    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and identical and dt < 30.0
    report(
        "A7 determinism and projection",
        ok,
        f"1000 projections exact (oracle gap {worst:.1e} <= 1e-12), "
        f"repeat-run artifacts byte-identical {identical}, {dt:.1f}s",
    )
