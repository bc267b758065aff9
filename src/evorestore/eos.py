"""Evolutionary search over the loss-weight simplex, run against a frozen model.

Every `trigger_interval` training iterations the trainer freezes the model and
runs a tiny generational search over convex weight pairs (alpha, beta):
evaluate the population on fixed validation pairs, keep the top-k elites,
refill by convex crossover of elite parents plus Gaussian mutation, project
back onto the simplex. Fitness is the negated mean weighted validation loss,
so it is affine in (alpha, beta) for a frozen model, and elitism plus fully
deterministic evaluation makes the per-generation best fitness non-decreasing.

A search with G generations evaluates G populations (P*G fitness evaluations)
and rebuilds offspring between consecutive evaluated generations; the winner
is the argmax of the final evaluated generation (= global argmax, ties broken
toward the lower candidate index).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .degrade import PSNR_CAP_DB, psnr
from .errors import ConfigError, NumericIntegrityError
from .fmm import FmmParams, fmm_forward, prepare
from .losses import (
    DEFAULT_CHARBONNIER_EPS,
    WeightPair,
    charbonnier_value,
    ms_ssim_value,
    ssim_and_ms_ssim,
)
from .util import stacks

__all__ = [
    "WeightPair",
    "EosConfig",
    "CandidateRecord",
    "EosTrace",
    "TriggerSummary",
    "OverheadReport",
    "project_simplex",
    "sample_simplex",
    "ValidationTable",
    "validate",
    "loss_means",
    "run_eos",
    "search_weights",
    "eos_overhead_report",
]


def project_simplex(alpha: float, beta: float) -> WeightPair:
    """Euclidean projection of (alpha, beta) onto the 2-simplex.

    Closed form for two coordinates: shift both by (1 - alpha - beta) / 2;
    if either coordinate goes negative, clamp it to 0 and give the other 1.
    The second coordinate is recomputed as 1 - alpha so the sum invariant
    holds exactly in floating point, not just to rounding error.
    """
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise NumericIntegrityError(f"cannot project non-finite pair ({alpha}, {beta})")
    shift = (1.0 - alpha - beta) / 2.0
    a = alpha + shift
    b = beta + shift
    if a < 0.0:
        return WeightPair(0.0, 1.0)
    if b < 0.0:
        return WeightPair(1.0, 0.0)
    return WeightPair(a, 1.0 - a)


def sample_simplex(rng: np.random.Generator) -> WeightPair:
    """Uniform draw on the segment alpha + beta = 1, alpha in [0, 1]."""
    a = float(rng.random())
    return WeightPair(a, 1.0 - a)


@dataclass(frozen=True)
class EosConfig:
    population: int = 5
    generations: int = 3
    elites: int = 2
    mutation_sigma: float = 0.05
    trigger_interval: int = 500
    seed: int = 0

    def validate(self) -> None:
        if self.population < 1:
            raise ConfigError(f"population must be >= 1, got {self.population}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        if not 1 <= self.elites <= self.population:
            raise ConfigError(
                f"elites must be in 1..population({self.population}), got {self.elites}"
            )
        # a Gaussian draw of a larger sigma can overflow the crossover sum to inf
        if not 0 <= self.mutation_sigma <= 1e300:
            raise ConfigError(f"mutation_sigma must be in [0, 1e300], got {self.mutation_sigma}")
        if self.trigger_interval < 1:
            raise ConfigError(
                f"trigger_interval must be >= 1, got {self.trigger_interval}"
            )
        # trigger r of a training run searches with seed + r, r >= 1
        if self.seed < 0:
            raise ConfigError(f"eos seed must be >= 0, got {self.seed}")


@dataclass
class CandidateRecord:
    trigger: int
    generation: int
    candidate: int
    alpha: float
    beta: float
    fitness: float
    is_elite: bool
    is_winner: bool


@dataclass
class EosTrace:
    trigger_index: int
    best_per_generation: list
    winner: WeightPair
    evaluations: int
    eval_ms: float  # the validation pass behind the search
    total_ms: float  # the pass plus the search itself
    records: list = field(default_factory=list)

    def summary(self) -> TriggerSummary:
        w = self.winner
        return TriggerSummary(
            self.trigger_index, w.alpha, w.beta, self.eval_ms, self.total_ms, self.evaluations
        )


@dataclass
class TriggerSummary:
    """One line of eos_summary.csv: a trigger's winner and its wall-clock cost."""

    trigger: int
    winner_alpha: float
    winner_beta: float
    eval_ms: float
    total_ms: float
    evaluations: int


# ---------------------------------------------------------------------------
# Validation pass and fitness
# ---------------------------------------------------------------------------


@dataclass
class ValidationTable:
    """Per-pair metrics of a frozen model, one (N,) array per column, in pair order."""

    psnr: np.ndarray  # dB for a unit dynamic range; +inf for an exact restoration
    ssim: np.ndarray  # single-scale SSIM
    fid: np.ndarray  # Charbonnier
    perc: np.ndarray  # 1 - MS-SSIM

    def loss_means(self):
        """Mean (fidelity, perceptual) over the pairs: the search's two inputs."""
        return float(np.mean(self.fid)), float(np.mean(self.perc))

    def summary(self, sel):
        """(count, capped, then the psnr, ssim, fid and perc means) of the pairs `sel` picks.

        The one PSNR averaging policy: +inf entries (exact restorations) are
        left out of the mean and counted as `capped`; if every entry is +inf
        the mean reads PSNR_CAP_DB. A NaN or -inf PSNR (an overflowed error)
        or a non-finite SSIM, fid or perc mean raises NumericIntegrityError.
        """
        psnr_sel = self.psnr[sel]
        means = [float(np.mean(c[sel])) for c in (self.ssim, self.fid, self.perc)]
        if not (np.all(psnr_sel > -np.inf) and np.all(np.isfinite(means))):  # NaN compares False
            raise NumericIntegrityError(
                f"non-finite restoration metrics: psnr min {np.min(psnr_sel)}, "
                f"ssim, fid, perc means {means}"
            )
        finite = psnr_sel[np.isfinite(psnr_sel)]
        psnr_mean = float(np.mean(finite)) if finite.size else PSNR_CAP_DB
        return (psnr_sel.size, psnr_sel.size - finite.size, psnr_mean, *means)


def _restorations(params: FmmParams, pairs):
    """Yield (y_hat, clean) per stack of (degraded, clean) pairs restored by a frozen model.

    Pairs run through the operator as stacks (see util.stacks), prepared
    once per grid shape; the degraded stack is let go before its
    restoration is scored.
    """
    pairs = list(pairs)
    if not pairs:
        raise ConfigError("validation set is empty")
    preps = {}
    for x, target in stacks([p[0] for p in pairs], [p[1] for p in pairs]):
        shape = x.shape[-2:]
        if shape not in preps:
            preps[shape] = prepare(params, *shape)
        y = fmm_forward(x, params, preps[shape]).y_hat
        del x
        yield y, target


def validate(params: FmmParams, pairs, eps: float = DEFAULT_CHARBONNIER_EPS) -> ValidationTable:
    """Restore (degraded, clean) pairs with a frozen model and score each restoration.

    MS-SSIM picks its scales from each stack's grid shape.
    """
    cols = ([], [], [], [])
    for y, target in _restorations(params, pairs):
        cols[0].append(psnr(y, target))
        ssim, ms = ssim_and_ms_ssim(y, target)
        cols[1].append(ssim)
        cols[2].append(charbonnier_value(y, target, eps))
        cols[3].append(1.0 - ms)
    return ValidationTable(*(np.concatenate(c) for c in cols))


def loss_means(params: FmmParams, pairs, eps: float = DEFAULT_CHARBONNIER_EPS):
    """The search's two inputs alone: `validate(params, pairs, eps).loss_means()`, bit for bit.

    Forms the Charbonnier and MS-SSIM values of each pair, and no PSNR,
    SSIM or gradient.
    """
    fid, perc = [], []
    for y, target in _restorations(params, pairs):
        fid.append(charbonnier_value(y, target, eps))
        perc.append(1.0 - ms_ssim_value(y, target))
    return float(np.mean(np.concatenate(fid))), float(np.mean(np.concatenate(perc)))


def _fitness(candidate: WeightPair, mean_fid: float, mean_perc: float) -> float:
    return -(candidate.alpha * mean_fid + candidate.beta * mean_perc)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def run_eos(
    params: FmmParams,
    val_set,
    cfg: EosConfig,
    init=(),
    *,
    trigger_index: int = 0,
    eps: float = DEFAULT_CHARBONNIER_EPS,
):
    """One search trigger on a read-only model: loss_means, then search_weights."""
    t0 = time.perf_counter()
    means = loss_means(params, val_set, eps)
    eval_ms = (time.perf_counter() - t0) * 1e3
    return search_weights(*means, cfg, init, trigger_index=trigger_index, eval_ms=eval_ms)


def search_weights(
    mean_fid: float,
    mean_perc: float,
    cfg: EosConfig,
    init=(),
    *,
    trigger_index: int = 0,
    eval_ms: float = 0.0,
):
    """Search the simplex against two validation means; returns (winner, EosTrace).

    `init` may hold up to `population` starting candidates (already on the
    simplex), topped up with seeded-uniform simplex draws; deterministic given
    cfg.seed. `eval_ms`, the time of the validation pass behind the means, is
    the trace's eval time and part of its total time.
    """
    cfg.validate()
    init = list(init)
    if len(init) > cfg.population:
        raise ConfigError(
            f"init has {len(init)} candidates, population is {cfg.population}"
        )
    for c in init:
        if not (np.isfinite(c.alpha) and np.isfinite(c.beta)):
            raise NumericIntegrityError(f"non-finite init candidate {c}")
    if not (np.isfinite(mean_fid) and np.isfinite(mean_perc)):
        raise NumericIntegrityError(f"non-finite validation means ({mean_fid}, {mean_perc})")

    t_total = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    pop = list(init) + [
        sample_simplex(rng) for _ in range(cfg.population - len(init))
    ]

    records: list[CandidateRecord] = []
    best_per_generation: list[float] = []
    order = None
    for g in range(cfg.generations):
        fits = [_fitness(c, mean_fid, mean_perc) for c in pop]
        order = sorted(range(len(pop)), key=lambda i: (-fits[i], i))
        elite_idx = set(order[: cfg.elites])
        best_per_generation.append(fits[order[0]])
        for i, (c, f) in enumerate(zip(pop, fits)):
            records.append(
                CandidateRecord(trigger_index, g, i, c.alpha, c.beta, f, i in elite_idx, False)
            )

        if g < cfg.generations - 1:
            elites = [pop[i] for i in order[: cfg.elites]]
            children = list(elites)
            while len(children) < cfg.population:
                pa = elites[int(rng.integers(len(elites)))]
                pb = elites[int(rng.integers(len(elites)))]
                lam = float(rng.random())
                a = lam * pa.alpha + (1.0 - lam) * pb.alpha
                b = lam * pa.beta + (1.0 - lam) * pb.beta
                if cfg.mutation_sigma > 0:
                    e = rng.normal(0.0, cfg.mutation_sigma, size=2)
                    a += e[0]
                    b += e[1]
                children.append(project_simplex(a, b))
            pop = children

    winner_idx = order[0]
    winner = pop[winner_idx]
    # flag the winning record of the final evaluated generation
    for rec in records:
        if rec.generation == cfg.generations - 1 and rec.candidate == winner_idx:
            rec.is_winner = True

    if any(b2 < b1 for b1, b2 in zip(best_per_generation, best_per_generation[1:])):
        raise NumericIntegrityError(
            f"best fitness decreased across generations: {best_per_generation}"
        )

    trace = EosTrace(
        trigger_index=trigger_index,
        best_per_generation=best_per_generation,
        winner=winner,
        evaluations=cfg.population * cfg.generations,
        eval_ms=eval_ms,
        total_ms=eval_ms + (time.perf_counter() - t_total) * 1e3,
        records=records,
    )
    return winner, trace


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass
class OverheadReport:
    triggers: int
    evaluations: int
    eval_ms: float
    residual_ms: float
    total_ms: float
    train_wall_ms: float
    pct_of_train: float


def eos_overhead_report(traces, train_wall_ms: float) -> OverheadReport:
    """Aggregate wall-clock accounting of EosTrace or TriggerSummary records;
    eval_ms + residual_ms == total_ms exactly."""
    traces = list(traces)
    total = sum(t.total_ms for t in traces)
    eval_ms = sum(t.eval_ms for t in traces)
    return OverheadReport(
        triggers=len(traces),
        evaluations=sum(t.evaluations for t in traces),
        eval_ms=eval_ms,
        residual_ms=total - eval_ms,
        total_ms=total,
        train_wall_ms=train_wall_ms,
        pct_of_train=(100.0 * total / train_wall_ms) if train_wall_ms > 0 else 0.0,
    )
