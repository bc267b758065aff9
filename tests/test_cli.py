"""Command-line interface and config parsing, exercised in-process via main()."""

import dataclasses
import re
import shutil
import warnings
from pathlib import Path

import pytest

from evorestore import cli, fmm, oracles
from evorestore.config import (
    DatasetConfig,
    documented_keys,
    load_config,
    parse_degradation_specs,
)
from evorestore.eos import EosConfig
from evorestore.errors import ConfigError
from evorestore.trainer import TrainConfig

SPECS = "degradation.specs=noise(sigma=0.1,seed=5);blur(kernel_sigma=1.0,seed=6)"

TINY_TRAIN = [
    "--set", "trainer.iterations=8",
    "--set", "trainer.learning_rate=0.05",
    "--set", "trainer.batch_size=4",
    "--set", "trainer.eval_every=4",
    "--set", "trainer.kernel_size=3",
    "--set", "eos.population=3",
    "--set", "eos.generations=2",
    "--set", "eos.elites=1",
    "--set", "eos.trigger_interval=4",
]


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """One degrade + train pass shared by the eval / trace / report tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    out = root / "run"
    rc = cli.main(
        ["degrade", "--synthetic", "4", "--size", "16", "--set", SPECS, "-o", str(data)]
    )
    assert rc == 0
    manifest = str(data / "manifest.txt")
    rc = cli.main(["train", "--manifest", manifest, *TINY_TRAIN, "-o", str(out)])
    assert rc == 0
    return data, out


def test_parse_degradation_specs():
    specs = parse_degradation_specs("noise(sigma=0.2); haze(t0=0.5,airlight=0.9)")
    assert [s.kind for s in specs] == ["noise", "haze"]
    assert specs[0].sigma == 0.2
    for bad in (
        "fog(sigma=1)",                # unknown kind
        "noise(sigma)",                # not name=value
        "noise(sigma=-0.5)",           # fails spec validation
        "blur(radius=2)",              # unknown parameter
        "",                            # nothing at all
    ):
        with pytest.raises(ConfigError):
            parse_degradation_specs(bad)


def test_load_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "trainer.iterations = 100\n"
        "eos.population = 7\n"
        "dataset.val_fraction = 0.25\n"
    )
    app = load_config(str(cfg))
    assert app.trainer.iterations == 100
    assert app.trainer.eos.population == 7
    assert app.dataset.val_fraction == 0.25
    # --set wins over the file
    app = load_config(str(cfg), overrides=["trainer.iterations=3"])
    assert app.trainer.iterations == 3


def test_load_config_rejects_unknown_key_with_location(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trainer.iterations = 10\ntrainer.momentum = 0.9\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*momentum"):
        load_config(str(cfg))
    with pytest.raises(ConfigError, match="bad value"):
        load_config(None, overrides=["trainer.iterations=ten"])
    with pytest.raises(ConfigError):
        load_config(None, overrides=["no-equals-sign"])


def test_documented_keys_cover_all_sections():
    keys = [k for k, _ in documented_keys()]
    assert keys == sorted(keys)
    for expected in ("trainer.iterations", "eos.population", "dataset.manifest",
                     "degradation.specs"):
        assert expected in keys


def test_config_keys_are_the_config_dataclass_fields():
    expected = {"degradation.specs"}
    for section, cls in (("trainer", TrainConfig), ("eos", EosConfig), ("dataset", DatasetConfig)):
        expected |= {f"{section}.{f.name}" for f in dataclasses.fields(cls) if f.name != "eos"}
    assert {k for k, _ in documented_keys()} == expected


def test_degrade_is_reproducible(tmp_path):
    from evorestore.grids import read_fgrids

    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc = cli.main(
            ["degrade", "--synthetic", "3", "--size", "12", "--set", SPECS, "-o", str(d)]
        )
        assert rc == 0
    for name in ("manifest.txt", "clean.fgrid", "degraded.fgrid"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert len(read_fgrids(a / "clean.fgrid")) == 3  # one per image, shared by its 2 kinds
    assert len(read_fgrids(a / "degraded.fgrid")) == 6


def test_degrade_from_image_directory(tmp_path):
    import numpy as np

    from evorestore.degrade import synthetic_clean_images, write_pgm
    from evorestore.grids import read_fgrids, write_fgrid

    src = tmp_path / "imgs"
    src.mkdir()
    imgs = synthetic_clean_images(2, 16, 16, seed=3)
    write_pgm(src / "a.pgm", imgs[0], maxval=65535)
    write_fgrid(src / "b.fgrid", imgs[1])
    (src / "notes.txt").write_text("ignored")
    out = tmp_path / "out"
    rc = cli.main(["degrade", "--images", str(src), "--set", SPECS, "-o", str(out)])
    assert rc == 0
    manifest = (out / "manifest.txt").read_text().strip().split("\n")
    assert len(manifest) == 1 + 4
    clean = read_fgrids(out / "clean.fgrid")
    assert len(clean) == 2
    # 16-bit PGM round trip is lossy only at the half-step level
    assert np.max(np.abs(clean[0] - imgs[0])) <= 0.5 / 65535
    assert clean[1].tobytes() == imgs[1].tobytes()


def test_train_writes_artifacts(run_dirs):
    _, out = run_dirs
    from evorestore.trainer import RunSummary
    from evorestore.util import read_records

    for name in ("final.fmmp", "trace.csv", "eval.csv", "eos_trace.csv",
                 "eos_summary.csv", "run_summary.csv"):
        assert (out / name).exists(), name
    (summary,) = read_records(out / "run_summary.csv", RunSummary)
    assert summary.iterations == 8
    # interval 4 over 8 iterations: the trigger landing on the last iteration
    # is skipped (its weights could never be used), leaving one
    assert summary.triggers == 1
    assert summary.wall_ms > 0 and summary.final_alpha + summary.final_beta == pytest.approx(1)
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert len(trace) == 1 + 8
    summary_head = (out / "eos_summary.csv").read_text().split("\n")[0]
    assert summary_head == "trigger,winner_alpha,winner_beta,eval_ms,total_ms,evaluations"


def test_eval_command(run_dirs, tmp_path):
    data, out = run_dirs
    rc = cli.main(
        ["eval", "--manifest", str(data / "manifest.txt"),
         "--checkpoint", str(out / "final.fmmp"), "--split", "val",
         "-o", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0].startswith("split,kind,count")
    assert lines[-1].split(",")[1] == "all"


def test_eos_trace_command(run_dirs, tmp_path, capsys):
    data, out = run_dirs
    rc = cli.main(
        ["eos-trace", "--manifest", str(data / "manifest.txt"),
         "--checkpoint", str(out / "final.fmmp"),
         "--set", "eos.population=3", "--set", "eos.generations=2",
         "--set", "eos.elites=1", "-o", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "eos_trace.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 2
    # each generation row carries its leading (alpha, beta) under winner_so_far;
    # the last one is the printed winner (before, the column had no values)
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[0].split() == ["generation", "best_fitness", "winner_so_far"]
    rows = [line.split() for line in printed[1:-1]]
    assert [r[0] for r in rows] == ["0", "1"] and all(len(r) == 3 for r in rows)
    alpha, beta = re.fullmatch(r"winner: alpha (\S+), beta (\S+) \(.*\)", printed[-1]).groups()
    assert rows[-1][2] == f"{alpha},{beta}"


def test_report_command(run_dirs, tmp_path):
    _, out = run_dirs
    rc = cli.main(["report", "--run", str(out), "--svg", "-o", str(tmp_path)])
    assert rc == 0
    head, row = (tmp_path / "overhead.csv").read_text().strip().split("\n")
    assert head == "triggers,evaluations,eval_ms,residual_ms,total_ms,train_wall_ms,pct_of_train"
    fields = row.split(",")
    assert fields[0] == "1"
    assert int(fields[1]) == 3 * 2  # one trigger, population x generations
    assert (tmp_path / "loss_curve.svg").exists()
    assert (tmp_path / "psnr_curve.svg").exists()


def _polyline_points(svg_path):
    import math
    import xml.etree.ElementTree as ET

    root = ET.parse(svg_path).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    (line,) = root.iter("{http://www.w3.org/2000/svg}polyline")
    points = [tuple(float(v) for v in p.split(",")) for p in line.get("points").split()]
    assert all(math.isfinite(v) for p in points for v in p)
    return points


def test_report_svg_charts(run_dirs, tmp_path):
    _, out = run_dirs
    renders = [tmp_path / "a", tmp_path / "b"]
    for d in renders:
        assert cli.main(["report", "--run", str(out), "--svg", "-o", str(d)]) == 0
    for svg, csv in (("loss_curve.svg", "trace.csv"), ("psnr_curve.svg", "eval.csv")):
        data_rows = (out / csv).read_text().strip().split("\n")[1:]
        assert len(_polyline_points(renders[0] / svg)) == len(data_rows)
        assert (renders[0] / svg).read_bytes() == (renders[1] / svg).read_bytes()

    # single-row eval.csv and a flat loss series must not divide by zero
    edge = tmp_path / "edge"
    edge.mkdir()
    for name in ("run_summary.csv", "eos_summary.csv"):
        (edge / name).write_text((out / name).read_text())
    (edge / "trace.csv").write_text(
        "iteration,loss_fid,loss_perc,loss_combined,alpha,beta,lr\n"
        + "".join(f"{i},0.1,0.2,0.5,0.8,0.2,0.05\n" for i in range(1, 4))
    )
    (edge / "eval.csv").write_text("iteration,psnr,ssim,loss_fid,loss_perc\n4,99.0,1.0,0.0,0.0\n")
    assert cli.main(["report", "--run", str(edge), "--svg", "-o", str(edge / "o")]) == 0
    flat = _polyline_points(edge / "o" / "loss_curve.svg")
    assert len(flat) == 3 and len({y for _, y in flat}) == 1
    assert len(_polyline_points(edge / "o" / "psnr_curve.svg")) == 1

    # an eval.csv with a header and no rows, or none at all, skips the PSNR chart
    (edge / "eval.csv").write_text("iteration,psnr,ssim,loss_fid,loss_perc\n")
    assert cli.main(["report", "--run", str(edge), "--svg", "-o", str(edge / "rows0")]) == 0
    assert (edge / "rows0" / "loss_curve.svg").exists()
    assert not (edge / "rows0" / "psnr_curve.svg").exists()
    # a 0-byte eval.csv has no header, so it is malformed
    (edge / "eval.csv").write_text("")
    assert cli.main(["report", "--run", str(edge), "--svg", "-o", str(edge / "bytes0")]) == 5
    (edge / "eval.csv").unlink()
    assert cli.main(["report", "--run", str(edge), "--svg", "-o", str(edge / "none")]) == 0
    assert not (edge / "none" / "psnr_curve.svg").exists()


def test_report_rejects_malformed_eos_summary(run_dirs, tmp_path, capsys):
    _, out = run_dirs
    (tmp_path / "run_summary.csv").write_text((out / "run_summary.csv").read_text())
    summary = tmp_path / "eos_summary.csv"
    header = "trigger,winner_alpha,winner_beta,eval_ms,total_ms,evaluations\n"
    for text, column in (
        ("trigger,eval_ms\n1,2.5\n", "total_ms"),
        (header + "1,0.5,0.5,2.5,fast,6\n", "'total_ms'"),
        (header + "1,0.5,0.5,2.5,3.0,6.5\n", "'evaluations'"),
    ):
        summary.write_text(text)
        capsys.readouterr()
        rc = cli.main(["report", "--run", str(tmp_path), "-o", str(tmp_path / "o")])
        _assert_exit_5(rc, capsys, "eos_summary.csv", column)


def _replace_cell(blob, col, value):
    """The CSV `blob` with cell `col` of its first data row set to `value`."""
    lines = blob.split(b"\n")
    cells = lines[1].split(b",")
    cells[col] = value
    lines[1] = b",".join(cells)
    return b"\n".join(lines)


def _drop_column(blob, col):
    return b"\n".join(
        b",".join(c for i, c in enumerate(ln.split(b",")) if i != col) for ln in blob.split(b"\n")
    )


@pytest.mark.parametrize(
    "name, edit",
    [
        ("trace.csv", lambda b: _drop_column(b, 3)),
        ("trace.csv", lambda b: _replace_cell(b, 3, b"nan")),
        ("trace.csv", lambda b: _replace_cell(b, 3, b"inf")),
        ("trace.csv", lambda b: _replace_cell(b, 0, b"1.5")),
        ("eval.csv", lambda b: _replace_cell(b, 1, b"-inf")),
        ("run_summary.csv", lambda b: _replace_cell(b, 1, b"nan")),
        ("run_summary.csv", lambda b: b"\xff" + b),
        ("run_summary.csv", lambda b: b""),
        ("run_summary.csv", lambda b: b.split(b"\n")[0] + b"\n"),
        ("run_summary.csv", lambda b: b + b.split(b"\n")[1] + b"\n"),
        ("run_summary.csv", lambda b: _replace_cell(b, 1, b"-3.0")),
        ("eos_summary.csv", lambda b: _replace_cell(b, 1, b"0.5\xff")),
        ("trace.csv", lambda b: _replace_cell(b, 1, b"\xfe0.1")),
        ("eval.csv", lambda b: b"\x80" + b),
    ],
    ids=[
        "trace-missing-column", "trace-nan", "trace-inf", "trace-float-iteration",
        "eval-minus-inf", "summary-nan-wall-ms", "summary-non-utf8", "summary-empty",
        "summary-header-only", "summary-two-rows", "summary-negative-wall-ms",
        "eos-summary-non-utf8",
        "trace-non-utf8", "eval-non-utf8",
    ],
)
def test_report_svg_rejects_malformed_run_files(run_dirs, tmp_path, capsys, name, edit):
    _, out = run_dirs
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / name).write_bytes(edit((run / name).read_bytes()))
    capsys.readouterr()
    rc = cli.main(["report", "--run", str(run), "--svg", "-o", str(tmp_path / "o")])
    _assert_exit_5(rc, capsys, name)
    # no chart of a malformed series is written
    svg = {"trace.csv": "loss_curve.svg", "eval.csv": "psnr_curve.svg"}.get(name)
    assert svg is None or not (tmp_path / "o" / svg).exists()


def test_oracle_command_filter():
    assert cli.main(["oracle", "--fast", "--only", "simplex"]) == 0
    assert cli.main(["oracle", "--only", "no-such-check"]) == 2


CONFIG_FLAGS = [["--config", "/nonexistent.cfg"], ["--set", "bogus.key=1"]]


@pytest.mark.parametrize("flag", CONFIG_FLAGS + [["-o", "unused"]], ids=["config", "set", "out"])
def test_oracle_rejects_flags_it_would_ignore(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--fast", "--only", "simplex", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", CONFIG_FLAGS, ids=["config", "set"])
def test_report_rejects_flags_it_would_ignore(flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--run", str(tmp_path), "-o", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2


def test_oracle_failure_exit_code(monkeypatch):
    fake = oracles.OracleResult("stub", 1.0, 0.5, False, "forced failure")
    monkeypatch.setattr(oracles, "run_all", lambda only=None, fast=False: [fake])
    assert cli.main(["oracle"]) == 4


def test_exit_codes(run_dirs, tmp_path):
    # missing images directory surfaces as the I/O exit code
    assert cli.main(["degrade", "--images", "/no/such/dir", "--set", SPECS]) == 1
    assert cli.main(["train", "--set", "bogus.key=1"]) == 2
    # an even lowpass kernel is a config error, not a traceback from the operator
    assert cli.main(["train", "--set", "trainer.kernel_size=4"]) == 2
    # so is a kernel wider than the dataset's 16 px grids
    data, _ = run_dirs
    assert cli.main(["train", "--manifest", str(data / "manifest.txt"), *TINY_TRAIN,
                     "--set", "trainer.kernel_size=31", "-o", str(tmp_path)]) == 2
    # checkpoint_every was never acted on; it is no longer a key
    assert cli.main(["train", "--set", "trainer.checkpoint_every=1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--set", "trainer.seed=-1"],
        ["train", "--set", "eos.seed=-9"],
        ["eos-trace", "--checkpoint", "unread.fmmp", "--set", "eos.seed=-1"],
        ["train", "--set", "dataset.split_seed=-5"],
        ["degrade", "--synthetic", "2", "--size", "16",
         "--set", "degradation.specs=noise(sigma=0.1,seed=-3)"],
        ["degrade", "--synthetic", "2", "--size", "16", "--image-seed", "-1", "--set", SPECS],
    ],
    ids=["trainer-seed", "eos-seed", "eos-trace-seed", "split-seed", "spec-seed", "image-seed"],
)
def test_negative_seed_is_a_config_error(argv, tmp_path, capsys):
    # before: each passed validation and numpy raised ValueError later (exit 1, traceback)
    rc = cli.main([*argv, "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "seed must be >= 0" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "sigma", ["1e308", "1e-320", "-1.2", "-0.0"],
    ids=["2s2-overflows", "2s2-underflows", "negative", "negative-zero"],
)
def test_blur_kernel_sigma_extremes_are_a_config_error(sigma, tmp_path, capsys):
    # before: 1e308 raised OverflowError (exit 1, traceback), and 1e-320 wrote
    # NaN grids that load_dataset then refused (exit 5); a negative sigma has a
    # positive 2σ², so the sign needs its own check
    argv = ["degrade", "--synthetic", "2", "--size", "16",
            "--set", f"degradation.specs=blur(kernel_sigma={sigma})", "-o", str(tmp_path)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "kernel_sigma" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("size", ["2", "1", "0", "-3"])
def test_synthetic_size_below_three_is_a_config_error(size, tmp_path, capsys):
    # before: ValueError, ZeroDivisionError or "negative dimensions" (exit 1, traceback)
    rc = cli.main(["degrade", "--synthetic", "2", "--size", size, "--set", SPECS,
                   "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "height and width >= 3" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_synthetic_size_three_degrades(tmp_path, capsys):
    rc = cli.main(["degrade", "--synthetic", "2", "--size", "3",
                   "--set", "degradation.specs=noise(sigma=0.1);blur(kernel_sigma=1.0)",
                   "--set", "dataset.val_fraction=0.5", "-o", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize(
    "freeze,message",
    [("lowpass,lowpass", "twice"), ("spectral,spatial,lowpass", "nothing would train")],
    ids=["repeated-block", "every-block"],
)
def test_freeze_that_trains_nothing_is_a_config_error(freeze, message, tmp_path, capsys):
    # before: both ran, and freezing every block trained with a constant loss
    rc = cli.main(["train", "--set", f"trainer.freeze={freeze}", "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: blob.replace(b"DATA\n", b"DATX\n", 1),  # no DATA marker
        lambda blob: blob.replace(b"FMMP 1", b"FMMP x", 1),  # bad version
        lambda blob: blob.replace(b"mask_mode", "m\u00e4sk_mode".encode(), 1),  # not ASCII
    ],
    ids=["no-data-marker", "bad-version", "non-ascii-header"],
)
def test_corrupt_checkpoint_exit_code(run_dirs, tmp_path, capsys, edit):
    data, out = run_dirs
    bad = tmp_path / "bad.fmmp"
    bad.write_bytes(edit((out / "final.fmmp").read_bytes()))
    capsys.readouterr()
    rc = cli.main(["eval", "--manifest", str(data / "manifest.txt"),
                   "--checkpoint", str(bad), "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("corrupt or inconsistent input: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_checkpoint_grid_mismatch_exit_code(run_dirs, tmp_path, capsys):
    # a per-frequency model trained on 16 px grids cannot restore 24 px grids
    _, out = run_dirs
    data = tmp_path / "data24"
    assert cli.main(["degrade", "--synthetic", "4", "--size", "24", "--set", SPECS,
                     "-o", str(data)]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--manifest", str(data / "manifest.txt"),
                   "--checkpoint", str(out / "final.fmmp"), "-o", str(tmp_path)])
    assert rc == 5
    assert capsys.readouterr().err.startswith("corrupt or inconsistent input: ")


def _assert_exit_5(rc, capsys, *names):
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("corrupt or inconsistent input: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert all(name in err for name in names)


def _copy_with_record(run_dirs, tmp_path, name, k, edit):
    """A copy of the shared dataset whose record k of `name` is edit(record)."""
    from evorestore.grids import read_fgrids, write_fgrids

    data, _ = run_dirs
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    grids = read_fgrids(copy / name)
    grids[k] = edit(grids[k])
    write_fgrids(copy / name, grids)
    return copy / "manifest.txt"


def _train_exit_code(manifest, tmp_path, capsys):
    capsys.readouterr()
    return cli.main(["train", "--manifest", str(manifest), *TINY_TRAIN,
                     "-o", str(tmp_path / "run")])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_degraded_grid_exit_code(run_dirs, tmp_path, capsys, value):
    # before: NaN reached training and surfaced as a divergence (exit 3)
    def poison(grid):
        grid = grid.copy()
        grid[3, 5] = value
        return grid

    manifest = _copy_with_record(run_dirs, tmp_path, "degraded.fgrid", 1, poison)
    rc = _train_exit_code(manifest, tmp_path, capsys)
    _assert_exit_5(rc, capsys, "degraded.fgrid: record 1:", "NaN or infinite")


def test_pair_with_mismatched_shapes_exit_code(run_dirs, tmp_path, capsys):
    # before: the pair loaded, and train stopped later at the operator
    manifest = _copy_with_record(run_dirs, tmp_path, "degraded.fgrid", 2, lambda g: g[:, :12])
    rc = _train_exit_code(manifest, tmp_path, capsys)
    _assert_exit_5(rc, capsys, "manifest.txt: row 2:", "(16, 16)", "(16, 12)")


# the shared dataset: 4 images x 2 kinds, rows 0-7 naming clean records 0, 1, 2, 3, 0, 1, 2, 3
@pytest.mark.parametrize(
    "edits,message",
    [
        ({1: "2"}, "row 1 names clean record 2, expected 0 to 1"),  # skips record 1
        ({0: "-1"}, "row 0 names clean record -1, expected 0 to 0"),
        ({3: "9"}, "row 3 names clean record 9, expected 0 to 3"),
        ({3: "0", 7: "0"}, "clean.fgrid: 4 FGRID records, expected 3"),  # record 3 unnamed
        ({7: None}, "degraded.fgrid: 8 FGRID records, expected 7"),  # last row dropped
    ],
    ids=["skip-ahead", "negative", "out-of-range", "unnamed-record", "missing-row"],
)
def test_manifest_clean_record_numbers_exit_code(run_dirs, tmp_path, capsys, edits, message):
    data, _ = run_dirs
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    lines = (copy / "manifest.txt").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for k, clean in edits.items():
        rows[k][3] = clean
    lines[1:] = [",".join(r) for r in rows if r[3] is not None]
    (copy / "manifest.txt").write_text("\n".join(lines) + "\n")
    rc = _train_exit_code(copy / "manifest.txt", tmp_path, capsys)
    _assert_exit_5(rc, capsys, message)


def test_non_finite_clean_grid_exit_code(tmp_path, capsys):
    # before: NaN passed apply_degradation's [0, 1] check
    import numpy as np

    from evorestore.degrade import synthetic_clean_images
    from evorestore.grids import write_fgrid

    src = tmp_path / "imgs"
    src.mkdir()
    grid = synthetic_clean_images(1, 16, 16, seed=3)[0]
    grid[0, 0] = np.nan
    write_fgrid(src / "a.fgrid", grid)
    rc = cli.main(["degrade", "--images", str(src), "--set", SPECS, "-o", str(tmp_path / "o")])
    _assert_exit_5(rc, capsys, "a.fgrid")


def test_non_integer_pgm_header_exit_code(tmp_path, capsys):
    src = tmp_path / "imgs"
    src.mkdir()
    (src / "a.pgm").write_bytes(b"P5\nab 4\n255\n" + bytes(16))
    rc = cli.main(["degrade", "--images", str(src), "--set", SPECS, "-o", str(tmp_path / "o")])
    _assert_exit_5(rc, capsys, "a.pgm")


@pytest.mark.parametrize("field", [0, 2], ids=["index", "seed"])
def test_non_integer_manifest_field_exit_code(run_dirs, tmp_path, capsys, field):
    data, _ = run_dirs
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    lines = (copy / "manifest.txt").read_text().splitlines()
    row = lines[2].split(",")
    row[field] = "x"
    lines[2] = ",".join(row)
    (copy / "manifest.txt").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["train", "--manifest", str(copy / "manifest.txt"), *TINY_TRAIN,
                   "-o", str(tmp_path / "run")])
    _assert_exit_5(rc, capsys, "manifest.txt", lines[2])


@pytest.mark.parametrize("indices", [(0, 0, 2, 3), (1, 0, 2, 3)], ids=["repeated", "swapped"])
def test_manifest_index_out_of_place_exit_code(run_dirs, tmp_path, capsys, indices):
    # before: (0, 0, 2, 3) loaded, and writing it again overwrote pair 0's grids with pair 1's
    data, _ = run_dirs
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    lines = (copy / "manifest.txt").read_text().splitlines()
    for k, i in enumerate(indices):
        lines[1 + k] = ",".join([str(i)] + lines[1 + k].split(",")[1:])
    (copy / "manifest.txt").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["train", "--manifest", str(copy / "manifest.txt"), *TINY_TRAIN,
                   "-o", str(tmp_path / "run")])
    _assert_exit_5(rc, capsys, "manifest.txt", "index")


def test_every_csv_the_package_writes_reads_back_to_the_same_bytes(run_dirs, tmp_path):
    from evorestore.degrade import ManifestRow
    from evorestore.eos import OverheadReport, TriggerSummary
    from evorestore.trainer import EvalPoint, IterationRow, MetricsRow, RunSummary
    from evorestore.util import read_records, write_records

    data, out = run_dirs
    assert cli.main(["eval", "--manifest", str(data / "manifest.txt"),
                     "--checkpoint", str(out / "final.fmmp"), "-o", str(tmp_path)]) == 0
    assert cli.main(["report", "--run", str(out), "-o", str(tmp_path)]) == 0
    files = [
        (data / "manifest.txt", ManifestRow), (out / "trace.csv", IterationRow),
        (out / "eval.csv", EvalPoint), (out / "eos_summary.csv", TriggerSummary),
        (out / "run_summary.csv", RunSummary),
        (tmp_path / "metrics.csv", MetricsRow), (tmp_path / "overhead.csv", OverheadReport),
    ]
    for path, cls in files:
        records = read_records(path, cls)
        assert records, path
        write_records(tmp_path / "again.csv", cls, records)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), path


def _readme_artifacts():
    """The names in the first column of the README's run-artifacts table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Run artifacts", 1)[1].split("\n\n", 2)[1]
    first_cells = [row.split("|")[1] for row in table.splitlines()[2:]]
    return {name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)}


def test_run_artifacts_table_names_every_file_the_commands_write(tmp_path):
    data, run, ev, eos, rep = (tmp_path / d for d in ("data", "run", "eval", "eos", "report"))
    manifest = ["--manifest", str(data / "manifest.txt")]
    checkpoint = ["--checkpoint", str(run / "final.fmmp")]
    for argv in (
        ["degrade", "--synthetic", "4", "--size", "16", "--set", SPECS, "-o", str(data)],
        ["train", *manifest, *TINY_TRAIN, "-o", str(run)],
        ["eval", *manifest, *checkpoint, "-o", str(ev)],
        ["eos-trace", *manifest, *checkpoint, "--set", "eos.population=3",
         "--set", "eos.generations=2", "--set", "eos.elites=1", "-o", str(eos)],
        ["report", "--run", str(run), "--svg", "-o", str(rep)],
    ):
        assert cli.main(argv) == 0, argv[0]
    written = {p.name + "/" * p.is_dir() for d in (data, run, ev, eos, rep) for p in d.iterdir()}
    assert written == _readme_artifacts()


@pytest.mark.parametrize("eps", ["1e200", "1e-200"])
def test_charbonnier_eps_out_of_range_is_a_config_error(eps, run_dirs, tmp_path, capsys):
    # before: 1e200 squared to inf (exit 3, "diverged at iteration 1"); 1e-200
    # squared to 0 and passed, giving NaN gradients wherever pred == target
    data, _ = run_dirs
    capsys.readouterr()
    rc = cli.main(
        ["train", "--manifest", str(data / "manifest.txt"), *TINY_TRAIN,
         "--set", f"trainer.charbonnier_eps={eps}", "-o", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "charbonnier eps" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_divergence_exit_code(run_dirs, tmp_path):
    data, _ = run_dirs
    rc = cli.main(
        ["train", "--manifest", str(data / "manifest.txt"), *TINY_TRAIN,
         "--set", "trainer.learning_rate=1e9", "--set", "trainer.iterations=100",
         "-o", str(tmp_path)]
    )
    assert rc == 3


def test_divergence_is_the_only_report(run_dirs, tmp_path, capsys):
    # before: seven numpy RuntimeWarnings (overflow, invalid value) came first
    data, _ = run_dirs
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(
            ["train", "--manifest", str(data / "manifest.txt"),
             "--set", "trainer.learning_rate=1e308", "--set", "trainer.eval_every=1",
             "--set", "eos.trigger_interval=1", "-o", str(tmp_path)]
        )
    err = capsys.readouterr().err
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    assert err.startswith("divergence: ") and len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def overflow_checkpoint(run_dirs, tmp_path_factory):
    """The trained checkpoint with low-pass taps of 1e300: its restorations overflow."""
    _, out = run_dirs
    params = fmm.load_params(str(out / "final.fmmp"))
    params.lowpass[...] = 1e300
    path = tmp_path_factory.mktemp("overflow") / "overflow.fmmp"
    fmm.save_params(str(path), params)
    return path


@pytest.mark.parametrize("command", ["eval", "eos-trace"])
def test_non_finite_restorations_are_the_only_report(
    run_dirs, overflow_checkpoint, tmp_path, capsys, command
):
    # before: eval exited 0 with PSNR 99.000 (the -inf PSNRs counted as capped),
    # SSIM nan and fid inf, after six numpy RuntimeWarnings; eos-trace exited 0
    # with best fitness nan and a winner ranked on it
    data, _ = run_dirs
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--manifest", str(data / "manifest.txt"),
                       "--checkpoint", str(overflow_checkpoint), "-o", str(tmp_path)])
    assert [str(w.message) for w in caught] == []
    _assert_exit_5(rc, capsys, "non-finite")


def test_mutation_sigma_that_can_overflow_is_a_config_error(run_dirs, tmp_path, capsys):
    # before: exit 5, "cannot project non-finite pair (inf, ...)", a config value
    # reported as corrupt input
    data, _ = run_dirs
    capsys.readouterr()
    rc = cli.main(["train", "--manifest", str(data / "manifest.txt"), *TINY_TRAIN,
                   "--set", "eos.mutation_sigma=1e308", "--set", "eos.trigger_interval=1",
                   "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "mutation_sigma" in err
    assert len(err.strip().splitlines()) == 1


def test_argparse_surface(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "degrade" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
