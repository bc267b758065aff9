"""Command-line front end.

Subcommands: degrade, train, eval, eos-trace, oracle, report.
Exit codes: 0 success, 1 IO failure, 2 configuration error, 3 training
divergence, 4 oracle check failure, 5 corrupt or inconsistent input.
"""

from __future__ import annotations

import argparse
import os
import sys
from xml.sax.saxutils import escape

import numpy as np

from . import __version__
from .config import documented_keys, load_config
from .degrade import (
    build_dataset,
    load_dataset,
    read_image,
    synthetic_clean_images,
    write_dataset,
)
from .eos import (
    CandidateRecord,
    OverheadReport,
    TriggerSummary,
    eos_overhead_report,
    run_eos,
)
from .errors import ConfigError, DimensionError, DivergenceError, NumericIntegrityError
from .fmm import load_params, save_params
from .losses import WeightPair
from .trainer import EvalPoint, IterationRow, MetricsRow, RunSummary, evaluate, train
from .util import read_records, write_records


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evorestore",
        description="Frequency-gated restoration micro-model with an "
        "evolutionary loss-weight scheduler.",
        epilog="Config keys (also usable with --set): "
        + ", ".join(k for k, _ in documented_keys()),
    )
    parser.add_argument("--version", action="version", version=f"evorestore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("-o", "--out", default=".", help="output directory (default: cwd)")

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        output(p)

    p = sub.add_parser("degrade", help="build a paired degradation dataset")
    common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--images", help="directory of .pgm / .fgrid clean images")
    src.add_argument(
        "--synthetic", type=int, metavar="N", help="generate N procedural clean images"
    )
    p.add_argument("--size", type=int, default=48, help="synthetic image side length")
    p.add_argument("--image-seed", type=int, default=0, help="synthetic generator seed")

    p = sub.add_parser("train", help="train the restoration model")
    common(p)
    p.add_argument("--manifest", help="dataset manifest")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    common(p)
    p.add_argument("--manifest", help="dataset manifest")
    p.add_argument("--checkpoint", required=True, help=".fmmp parameter file")
    p.add_argument("--split", default="val", choices=["train", "val", "test"])

    p = sub.add_parser("eos-trace", help="run one weight-search trigger and print it")
    common(p)
    p.add_argument("--manifest", help="dataset manifest")
    p.add_argument("--checkpoint", required=True, help=".fmmp parameter file")

    p = sub.add_parser("oracle", help="run the independent verification suite")
    p.add_argument("--only", help="substring filter on check names")
    p.add_argument("--fast", action="store_true", help="reduced trial counts")

    p = sub.add_parser("report", help="summarize a training run directory")
    output(p)
    p.add_argument("--run", required=True, help="directory written by `train`")
    p.add_argument(
        "--svg", action="store_true", help="also render SVG line charts (CSV stays primary)"
    )
    return parser


def _load_manifest_dataset(app, manifest):
    if not manifest:
        raise ConfigError("no dataset manifest: pass --manifest")
    return load_dataset(manifest, app.dataset)


def _cmd_degrade(args) -> int:
    app = load_config(args.config, args.overrides)
    if not app.degradations:
        raise ConfigError("degrade needs degradation.specs in the config or --set")
    if args.images is not None:
        names = sorted(
            f
            for f in os.listdir(args.images)
            if f.lower().endswith((".pgm", ".fgrid"))
        )
        if not names:
            raise ConfigError(f"no .pgm/.fgrid images found in {args.images!r}")
        images = [read_image(os.path.join(args.images, f)) for f in names]
    else:
        if args.synthetic < 1:
            raise ConfigError("--synthetic needs N >= 1")
        images = synthetic_clean_images(
            args.synthetic, args.size, args.size, seed=args.image_seed
        )
    dataset = build_dataset(images, app.degradations, app.dataset)
    manifest = write_dataset(args.out, dataset)
    print(
        f"wrote {len(dataset.pairs)} pairs "
        f"({len(images)} images x {len(app.degradations)} kinds) -> {manifest}"
    )
    print(
        f"splits: train {len(dataset.train_idx)}, val {len(dataset.val_idx)}, "
        f"test {len(dataset.test_idx)}"
    )
    return 0


def _cmd_train(args) -> int:
    app = load_config(args.config, args.overrides)
    dataset = _load_manifest_dataset(app, args.manifest)
    os.makedirs(args.out, exist_ok=True)
    params, trace = train(dataset, app.trainer)

    save_params(os.path.join(args.out, "final.fmmp"), params)
    write_records(os.path.join(args.out, "trace.csv"), IterationRow, trace.rows)
    write_records(os.path.join(args.out, "eval.csv"), EvalPoint, trace.evals)
    candidates = [r for t in trace.eos_traces for r in t.records]
    write_records(os.path.join(args.out, "eos_trace.csv"), CandidateRecord, candidates)
    summaries = [t.summary() for t in trace.eos_traces]
    write_records(os.path.join(args.out, "eos_summary.csv"), TriggerSummary, summaries)
    write_records(os.path.join(args.out, "run_summary.csv"), RunSummary, [trace.summary()])

    last = trace.rows[-1]
    print(
        f"trained {app.trainer.iterations} iterations; final combined loss "
        f"{last.loss_combined:.6f} (alpha {last.alpha:.3f}, beta {last.beta:.3f})"
    )
    print(f"{len(trace.eos_traces)} weight-search triggers; artifacts in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    app = load_config(args.config, args.overrides)
    dataset = _load_manifest_dataset(app, args.manifest)
    params = load_params(args.checkpoint)
    table = evaluate(params, dataset, args.split)
    os.makedirs(args.out, exist_ok=True)
    write_records(os.path.join(args.out, "metrics.csv"), MetricsRow, table)
    print(f"{'kind':<10} {'count':>5} {'psnr':>8} {'ssim':>7} {'fid':>9} {'perc':>9}")
    for row in table:
        print(
            f"{row.kind:<10} {row.count:>5} {row.psnr_mean:>8.3f} {row.ssim_mean:>7.4f} "
            f"{row.fid_mean:>9.5f} {row.perc_mean:>9.5f}"
        )
    return 0


def _cmd_eos_trace(args) -> int:
    app = load_config(args.config, args.overrides)
    dataset = _load_manifest_dataset(app, args.manifest)
    params = load_params(args.checkpoint)
    val = dataset.restoration_pairs("val")
    if not val:
        raise ConfigError("dataset has no validation pairs")
    init = [WeightPair(app.trainer.init_alpha, app.trainer.init_beta)]
    winner, trace = run_eos(params, val, app.trainer.eos, init, trigger_index=1)
    os.makedirs(args.out, exist_ok=True)
    write_records(os.path.join(args.out, "eos_trace.csv"), CandidateRecord, trace.records)
    write_records(os.path.join(args.out, "eos_summary.csv"), TriggerSummary, [trace.summary()])
    print("generation  best_fitness        winner_so_far")
    for g in range(len(trace.best_per_generation)):
        # the generation's leading candidate: highest fitness, ties to the lower index
        rows = [r for r in trace.records if r.generation == g]
        lead = max(rows, key=lambda r: (r.fitness, -r.candidate))
        print(f"{g:>10}  {lead.fitness:>18.12f}  {lead.alpha:.6f},{lead.beta:.6f}")
    print(
        f"winner: alpha {winner.alpha:.6f}, beta {winner.beta:.6f} "
        f"({trace.evaluations} evaluations, {trace.total_ms:.1f} ms)"
    )
    return 0


def _cmd_oracle(args) -> int:
    from .oracles import run_all

    results = run_all(only=args.only, fast=args.fast)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.name:<{width}}  {r.error:12.4e} <= {r.tol:8.1e}  {status}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} oracle checks passed")
    return 0 if failures == 0 else 4


def _cmd_report(args) -> int:
    run_dir = args.run
    summary = os.path.join(run_dir, "run_summary.csv")
    runs = read_records(summary, RunSummary)
    if len(runs) != 1 or runs[0].wall_ms < 0:
        raise NumericIntegrityError(f"{summary}: expected one row with wall_ms >= 0")
    records = read_records(os.path.join(run_dir, "eos_summary.csv"), TriggerSummary)
    report = eos_overhead_report(records, runs[0].wall_ms)
    os.makedirs(args.out, exist_ok=True)
    write_records(os.path.join(args.out, "overhead.csv"), OverheadReport, [report])
    print(
        f"{report.triggers} triggers, {report.evaluations} evaluations; "
        f"search wall {report.total_ms:.1f} ms (eval {report.eval_ms:.1f} ms) = "
        f"{report.pct_of_train:.2f}% of training wall {report.train_wall_ms:.1f} ms"
    )
    if args.svg:
        _render_svg(run_dir, args.out)
        print(f"SVG charts in {args.out}")
    return 0


_SVG_W, _SVG_H = 600, 350
_PLOT_L, _PLOT_R, _PLOT_T, _PLOT_B = 80, 580, 20, 300


def _scale(v, lo, hi, a, b) -> float:
    """Map v from [lo, hi] onto [a, b]; a degenerate range maps to the midpoint."""
    if hi <= lo:
        return (a + b) / 2
    return a + (v - lo) / (hi - lo) * (b - a)


def _write_line_chart(path, xs, ys, xlabel, ylabel) -> None:
    """Write one series as a standalone SVG polyline with labelled axes.

    The output depends only on the inputs (fixed viewBox, fixed-precision
    coordinates), so the same series always gives byte-identical files.
    """
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    points = " ".join(
        f"{_scale(x, x0, x1, _PLOT_L, _PLOT_R):.2f},{_scale(y, y0, y1, _PLOT_B, _PLOT_T):.2f}"
        for x, y in zip(xs, ys)
    )
    mid_x, mid_y = (_PLOT_L + _PLOT_R) // 2, (_PLOT_T + _PLOT_B) // 2
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        'font-family="sans-serif" font-size="12">',
        f'<path d="M{_PLOT_L},{_PLOT_T} V{_PLOT_B} H{_PLOT_R}" fill="none" stroke="black"/>',
        f'<text x="{_PLOT_L - 5}" y="{_PLOT_T + 4}" text-anchor="end">{y1:.6g}</text>',
        f'<text x="{_PLOT_L - 5}" y="{_PLOT_B}" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{_PLOT_L}" y="{_PLOT_B + 16}" text-anchor="middle">{x0}</text>',
        f'<text x="{_PLOT_R}" y="{_PLOT_B + 16}" text-anchor="middle">{x1}</text>',
        f'<text x="{mid_x}" y="{_SVG_H - 10}" text-anchor="middle">{escape(xlabel)}</text>',
        f'<text x="15" y="{mid_y}" text-anchor="middle" '
        f'transform="rotate(-90 15 {mid_y})">{escape(ylabel)}</text>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" '
        'stroke-width="1.5" stroke-linecap="round" stroke-linejoin="round"/>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _render_svg(run_dir, out_dir) -> None:
    """Chart the combined loss from trace.csv and the validation PSNR from eval.csv.

    Both go through read_records, so a malformed file is NumericIntegrityError;
    a header with no rows gives no chart, and a missing eval.csv is skipped.
    """
    charts = [("trace.csv", IterationRow, "loss_combined", "combined loss", "loss_curve.svg")]
    if os.path.exists(os.path.join(run_dir, "eval.csv")):
        charts.append(("eval.csv", EvalPoint, "psnr", "validation PSNR (dB)", "psnr_curve.svg"))
    for csv_name, cls, column, ylabel, svg_name in charts:
        records = read_records(os.path.join(run_dir, csv_name), cls)
        if records:
            _write_line_chart(
                os.path.join(out_dir, svg_name),
                [r.iteration for r in records],
                [getattr(r, column) for r in records],
                "iteration",
                ylabel,
            )


_COMMANDS = {
    "degrade": _cmd_degrade,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "eos-trace": _cmd_eos_trace,
    "oracle": _cmd_oracle,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a run that overflows reports itself once, by its error and exit code,
        # not by numpy's overflow and invalid-value warnings before it
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (NumericIntegrityError, DimensionError) as exc:
        print(f"corrupt or inconsistent input: {exc}", file=sys.stderr)
        return 5


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
