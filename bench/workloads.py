"""The benchmark's workloads: what each one feeds the package, all from one seed.

Every input is a function of the run's ``--seed``: the synthetic cleans use
it directly, degradation kind k uses ``1000 * seed + 100 * k`` (the package
adds the image index per pair), and the split, batch sampler and in-training
search use the seed itself. The benchmark's own search triggers use EOS seeds
``SEARCH_SEED_BASE + seed * 100 + r``.
"""

from __future__ import annotations

from dataclasses import dataclass

SEARCH_SEED_BASE = 10_000

# The EOS shape used everywhere: the A5 fixture's population/generations/elites.
EOS_SHAPE = dict(population=5, generations=3, elites=2, mutation_sigma=0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    n_images: int
    size: int  # square grids, size x size
    degradations: tuple  # ((kind, {DegradationSpec field: value}), ...)
    val_fraction: float
    train: dict  # TrainConfig fields other than seed and eos
    trigger_interval: int
    evals_per_round: int  # evaluate() calls timed per round
    triggers_per_round: int  # run_eos() calls timed per round

    @property
    def kinds(self):
        return tuple(kind for kind, _ in self.degradations)

    def specs(self, er, seed: int):
        return [
            er.DegradationSpec(kind, seed=1000 * seed + 100 * k, **fields)
            for k, (kind, fields) in enumerate(self.degradations)
        ]

    def split(self, er, seed: int):
        return er.SplitConfig(self.val_fraction, 0.0, seed)

    def train_config(self, er, seed: int):
        eos = er.EosConfig(trigger_interval=self.trigger_interval, seed=seed, **EOS_SHAPE)
        return er.TrainConfig(seed=seed, eos=eos, **self.train)

    def search_config(self, er, seed: int, r: int):
        seed_r = SEARCH_SEED_BASE + 100 * seed + r
        return er.EosConfig(trigger_interval=self.trigger_interval, seed=seed_r, **EOS_SHAPE)


NOISE_BLUR_A5 = (("noise", {"sigma": 0.3}), ("blur", {"kernel_sigma": 0.8}))
ALL_FIVE = (
    ("noise", {"sigma": 0.1}),
    ("blur", {"kernel_sigma": 1.2}),
    ("haze", {"t0": 0.6, "airlight": 0.9}),
    ("lowlight", {"gamma": 1.8, "scale": 0.6}),
    ("rain", {"count": 20, "angle_deg": 60.0, "intensity": 0.5}),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="a5-48",
            n_images=30,
            size=48,
            degradations=NOISE_BLUR_A5,
            val_fraction=0.2,
            train=dict(
                iterations=60,
                learning_rate=0.1,
                batch_size=6,
                eval_every=10,
                mask_mode="radial_bins",
                n_bins=10,
                spatial_mode="gap_affine",
            ),
            trigger_interval=50,
            evals_per_round=4,
            triggers_per_round=4,
        ),
        Workload(
            name="dense-128",
            n_images=12,
            size=128,
            degradations=(("noise", {"sigma": 0.1}), ("blur", {"kernel_sigma": 1.5})),
            val_fraction=0.2,
            train=dict(
                iterations=30,
                # The loss is a mean over 16,384 pixels, so one logit's gradient is
                # ~1/N; a large step moves the dense masks within 30 iterations, and
                # the lowpass taps (gradient still computed) are frozen so it cannot
                # blow them up.
                learning_rate=300.0,
                freeze=("lowpass",),
                batch_size=4,
                eval_every=15,
                mask_mode="per_frequency",
                spatial_mode="per_pixel",
            ),
            trigger_interval=25,
            evals_per_round=4,
            triggers_per_round=4,
        ),
        Workload(
            name="restore5-64",
            n_images=24,
            size=64,
            degradations=ALL_FIVE,
            val_fraction=0.5,
            train=dict(
                iterations=20,
                # Batches of 12 mix all five kinds, so the batch loss falls steadily
                # and the validation PSNR varies little from seed to seed.
                learning_rate=0.2,
                batch_size=12,
                eval_every=5,
                mask_mode="radial_bins",
                n_bins=8,
                spatial_mode="gap_affine",
            ),
            trigger_interval=5,
            evals_per_round=3,
            triggers_per_round=3,
        ),
        # A miniature of restore5-64 for the benchmark's own tests; not in BENCHMARK.json.
        Workload(
            name="mini",
            n_images=6,
            size=32,
            degradations=ALL_FIVE,
            val_fraction=0.34,
            train=dict(
                iterations=10,
                learning_rate=0.2,
                batch_size=10,
                eval_every=5,
                mask_mode="radial_bins",
                n_bins=6,
                spatial_mode="gap_affine",
            ),
            trigger_interval=5,
            evals_per_round=1,
            triggers_per_round=1,
        ),
    )
}
