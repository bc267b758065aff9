"""Deterministic plain-GD training loop with periodic evolutionary weight triggers.

Schedule semantics (all 1-based iteration indices):

* batches are drawn by seeded epoch shuffles over the train split;
* after finishing iteration i with i % trigger_interval == 0 (and i before the
  final iteration), the model is frozen and the weight search runs; its winner
  is the active weight pair for iterations i+1 .. i+T. Trigger r uses EOS seed
  `eos.seed + r`, warm-started from the currently active pair;
* an iteration that evaluates, searches or both runs one validation pass,
  and the eval point and the search both read it; an iteration that only
  searches runs the two-mean pass (eos.loss_means);
* a combined batch loss above `divergence_limit`, or a non-finite validation
  loss mean, aborts with DivergenceError naming the iteration. numpy's
  overflow and invalid warnings are left to the caller's np.errstate (the CLI
  turns them off, so a diverging run reports itself once, by that error);
* `freeze` names the blocks `prepare(train=...)` leaves out of each step: their
  gradient terms are never formed and apply_update leaves them as they are.
  It names each block at most once and leaves at least one to train.

Each batch runs through the operator, the losses and the backward pass as
stacks of pairs (see util.stacks), and the validation pass is eos.validate.
The step's gradient sums (fmm.GradSums) and loss sums add one grid at a time
in batch order, so the trained bytes do not depend on the stack budget.
Two runs with identical configs and datasets produce bit-identical parameter
bytes and trace rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .degrade import PairedDataset
from .errors import ConfigError, DivergenceError
from .eos import EosConfig, loss_means, search_weights, validate
from .fmm import BLOCKS, FmmParams, GradSums, apply_update, default_params, fmm_forward, prepare
from .losses import WeightPair, combined_loss
from .util import add_in_order, stacks

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 500
    learning_rate: float = 2e-4
    batch_size: int = 4
    init_alpha: float = 0.8
    init_beta: float = 0.2
    eval_every: int = 50
    seed: int = 0
    # model block
    mask_mode: str = "per_frequency"
    spatial_mode: str = "per_pixel"
    kernel_size: int = 5
    n_bins: int = 8
    # parameter blocks (fmm.BLOCKS) excluded from updates and from the backward pass
    freeze: tuple = ()
    eos: EosConfig = field(default_factory=EosConfig)

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ConfigError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        a, b = self.init_alpha, self.init_beta
        if not (0 <= a < math.inf and 0 <= b < math.inf) or abs(a + b - 1.0) > 1e-9:
            raise ConfigError(f"init weights must be a convex pair, got ({a}, {b})")
        for name in self.freeze:
            if name not in BLOCKS:
                raise ConfigError(f"unknown freeze block {name!r}")
        if len(set(self.freeze)) != len(self.freeze):
            raise ConfigError(f"freeze names a block twice: {self.freeze}")
        # with both gates pinned at their initial 0.5 the output is x / 2 whatever
        # the lowpass taps, so their gradient is 0 and no step moves them
        if {"spectral", "spatial"} <= set(self.freeze):
            raise ConfigError(f"freeze {self.freeze} pins both gates, so nothing would train")
        self.eos.validate()


@dataclass
class IterationRow:
    iteration: int
    loss_fid: float
    loss_perc: float
    loss_combined: float
    alpha: float
    beta: float
    lr: float


@dataclass
class EvalPoint:
    iteration: int
    psnr: float
    ssim: float
    loss_fid: float
    loss_perc: float


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)  # IterationRow per iteration
    evals: list = field(default_factory=list)  # EvalPoint every eval_every
    weight_timeline: list = field(default_factory=list)  # (from_iter, alpha, beta)
    eos_traces: list = field(default_factory=list)  # EosTrace per trigger
    wall_ms: float = 0.0

    def summary(self) -> RunSummary:
        last = self.rows[-1]
        triggers = len(self.eos_traces)
        return RunSummary(len(self.rows), self.wall_ms, triggers, last.alpha, last.beta)


@dataclass
class RunSummary:
    """The one row of a train run's run_summary.csv."""

    iterations: int
    wall_ms: float
    triggers: int
    final_alpha: float
    final_beta: float


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless batches: the whole consecutive slices of seeded per-epoch permutations."""
    size = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - size + 1, size):
            yield order[start : start + size]


def _dataset_shape(dataset: PairedDataset):
    shapes = {r.clean.shape for r in dataset.pairs}
    if len(shapes) != 1:
        raise ConfigError(f"dataset mixes grid shapes {sorted(shapes)}")
    return next(iter(shapes))


def train(dataset: PairedDataset, cfg: TrainConfig):
    """Run the loop from default_params; returns (trained FmmParams, TrainTrace)."""
    cfg.validate()
    train_rows = dataset.rows("train")
    if not train_rows:
        raise ConfigError("dataset has no training pairs")
    h, w = _dataset_shape(dataset)
    if cfg.kernel_size > min(h, w):
        raise ConfigError(f"kernel_size {cfg.kernel_size} exceeds the {h}x{w} grids")
    params = default_params(
        h,
        w,
        mask_mode=cfg.mask_mode,
        spatial_mode=cfg.spatial_mode,
        kernel_size=cfg.kernel_size,
        n_bins=cfg.n_bins,
    )
    val_set = dataset.restoration_pairs("val")
    batches = _batches(len(train_rows), cfg.batch_size, np.random.default_rng(cfg.seed))
    active = WeightPair(cfg.init_alpha, cfg.init_beta)
    trace = TrainTrace(weight_timeline=[(1, active.alpha, active.beta)])
    trained = [b for b in BLOCKS if b not in cfg.freeze]
    t_start = time.perf_counter()
    trigger = 0

    for it in range(1, cfg.iterations + 1):
        batch = [train_rows[i] for i in next(batches)]
        prep = prepare(params, h, w, train=trained)
        sums = GradSums(params, prep)
        loss_sums = np.zeros(3)  # fidelity, perceptual, combined
        for x, clean in stacks([r.degraded for r in batch], [r.clean for r in batch]):
            acts = fmm_forward(x, params, prep)
            lv, g_out = combined_loss(acts.y_hat, clean, active)
            sums.add(acts, g_out)
            add_in_order(loss_sums, np.column_stack([lv.fidelity, lv.perceptual, lv.combined]))
        nb = len(batch)
        fid_m, perc_m, comb_m = (float(v) / nb for v in loss_sums)
        if not math.isfinite(comb_m) or comb_m > DIVERGENCE_LIMIT:
            raise DivergenceError(it, comb_m)
        params = apply_update(params, sums.finish(), cfg.learning_rate / nb)
        trace.rows.append(
            IterationRow(it, fid_m, perc_m, comb_m, active.alpha, active.beta, cfg.learning_rate)
        )

        do_eval = cfg.eval_every > 0 and it % cfg.eval_every == 0
        do_search = it % cfg.eos.trigger_interval == 0 and it < cfg.iterations
        if val_set and (do_eval or do_search):
            # one validation pass serves the eval point and the search trigger;
            # a search alone reads only the two loss means
            t0 = time.perf_counter()
            if do_eval:
                table = validate(params, val_set)
                means = table.loss_means()
            else:
                means = loss_means(params, val_set)
            eval_ms = (time.perf_counter() - t0) * 1e3
            for name, mean in zip(("fidelity", "perceptual"), means):
                if not math.isfinite(mean):
                    raise DivergenceError(it, mean, f"validation {name} mean")
            if do_eval:
                _count, _capped, *cols = table.summary(slice(None))
                trace.evals.append(EvalPoint(it, *cols))
            if do_search:
                trigger += 1
                active, eos_trace = search_weights(
                    *means,
                    replace(cfg.eos, seed=cfg.eos.seed + trigger),
                    init=[active],
                    trigger_index=trigger,
                    eval_ms=eval_ms,
                )
                trace.eos_traces.append(eos_trace)
                trace.weight_timeline.append((it + 1, active.alpha, active.beta))

    trace.wall_ms = (time.perf_counter() - t_start) * 1e3
    return params, trace


# ---------------------------------------------------------------------------
# Evaluation table
# ---------------------------------------------------------------------------


@dataclass
class MetricsRow:
    split: str
    kind: str
    count: int
    capped: int  # PSNR entries at the +inf sentinel, excluded from the mean
    psnr_mean: float
    ssim_mean: float
    fid_mean: float
    perc_mean: float


def evaluate(params: FmmParams, dataset: PairedDataset, split: str = "val") -> list:
    """Per-kind and aggregate restoration metrics on one split."""
    rows = dataset.rows(split)
    if not rows:
        raise ConfigError(f"split {split!r} is empty")
    t = validate(params, [(r.degraded, r.clean) for r in rows])
    kinds = np.array([r.kind for r in rows])
    table = [MetricsRow(split, k, *t.summary(kinds == k)) for k in sorted(set(kinds.tolist()))]
    table.append(MetricsRow(split, "all", *t.summary(slice(None))))
    return table
