"""Fast tests of the benchmark itself: python3 -m pytest -q bench

A miniature workload runs end to end, traced and untraced, and every output
check is shown to reject a deliberately wrong input.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from tracer import Tracer
from workloads import WORKLOADS

er = run.import_package()
MINI = WORKLOADS["mini"]
SEED = 3


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_mini_workload_end_to_end(trace, capsys):
    code = run.main(["--workload", "mini", "--seed", str(SEED), "--seconds", "0.5",
                     "--trace", str(trace)])
    result = last_json(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = run.metric_units(trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        cfg = MINI.train_config(er, SEED)
        n_val, batch = 10, 10
        in_train = (2 + 1) * n_val  # evals at iterations 5 and 10, one trigger at 5
        own = (MINI.evals_per_round + MINI.triggers_per_round) * n_val
        assert m["fmm.fmm_forward.calls"] == cfg.iterations * batch + in_train + own
        assert m["trainer.val_forwards"] == in_train
        assert m["eos.run_eos.calls"] == 1 + MINI.triggers_per_round
        assert m["numpy.fft.calls_per_iter"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mini", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# Each check passes on the package's output and rejects a wrong one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    work = tmp_path_factory.mktemp("mini")
    split = MINI.split(er, SEED)
    cleans = er.synthetic_clean_images(MINI.n_images, MINI.size, MINI.size, seed=SEED)
    built = er.build_dataset(cleans, MINI.specs(er, SEED), split)
    loaded = er.load_dataset(er.write_dataset(str(work), built), split)
    cfg = MINI.train_config(er, SEED)
    params, trace = er.train(loaded, cfg)
    val_rows = [loaded.pairs[i] for i in loaded.val_idx]
    val_set = [(r.degraded, r.clean) for r in val_rows]
    warm = er.WeightPair(*trace.weight_timeline[-1][1:])
    before = checks.model_bytes(params)
    winner, etrace = er.run_eos(params, val_set, MINI.search_config(er, SEED, 0), init=[warm])
    return dict(work=work, built=built, loaded=loaded, cfg=cfg, params=params, trace=trace,
                val_rows=val_rows, val_set=val_set, table=er.evaluate(params, loaded, "val"),
                warm=warm, winner=winner, etrace=etrace, before=before,
                means=checks.validation_means(params, val_set))


def search_args(m, **over):
    args = dict(winner=m["winner"], trace=m["etrace"], warm_start=m["warm"], means=m["means"],
                bytes_before=m["before"], bytes_after=checks.model_bytes(m["params"]))
    args.update(over)
    return args


def test_checks_pass_on_the_package_output(mini):
    m = mini
    checks.check_roundtrip(m["built"], m["loaded"])
    checks.check_counts(m["loaded"], MINI.n_images, MINI.kinds)
    checks.check_degradations(m["loaded"].pairs, dict(MINI.degradations))
    checks.check_train(m["trace"], m["cfg"])
    checks.check_params_roundtrip(er, m["params"], str(m["work"] / "p.fmmp"))
    pair = m["loaded"].pairs[m["loaded"].train_idx[0]]
    checks.check_gradient(er, m["params"], pair.degraded, pair.clean, SEED)
    checks.check_operator(er, m["params"], m["val_set"])
    checks.check_evaluate(m["table"], m["val_rows"], m["params"])
    checks.check_search(**search_args(m))


def test_operator_and_evaluate_checks_reject_a_perturbed_restoration(mini, monkeypatch):
    table = [dataclasses.replace(r) for r in mini["table"]]
    table[-1].psnr_mean += 1e-6
    with pytest.raises(checks.CheckFailed, match="psnr_mean"):
        checks.check_evaluate(table, mini["val_rows"], mini["params"])
    table = [dataclasses.replace(r) for r in mini["table"]]
    table[0].fid_mean *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="fid_mean"):
        checks.check_evaluate(table, mini["val_rows"], mini["params"])

    forward = er.fmm_forward

    def perturbed(x, p):
        acts = forward(x, p)
        acts.y_hat = acts.y_hat.copy()
        acts.y_hat[3, 5] += 1e-7
        return acts

    monkeypatch.setattr(er, "fmm_forward", perturbed)
    with pytest.raises(checks.CheckFailed, match="y_hat"):
        checks.check_operator(er, mini["params"], mini["val_set"][:1])


def test_search_check_rejects_wrong_winners(mini):
    off = er.WeightPair(0.7, 0.31)
    with pytest.raises(checks.CheckFailed, match="simplex"):
        checks.check_search(**search_args(mini, winner=off))
    fid, perc = mini["means"]
    with pytest.raises(checks.CheckFailed, match="fitness"):
        checks.check_search(**search_args(mini, means=(fid * 1.001, perc)))
    with pytest.raises(checks.CheckFailed, match="changed the model"):
        checks.check_search(**search_args(mini, bytes_after=b"other"))
    falling = dataclasses.replace(mini["etrace"], best_per_generation=[-0.1, -0.2, -0.3])
    with pytest.raises(checks.CheckFailed, match="fell"):
        checks.check_search(**search_args(mini, trace=falling))


def test_gradient_check_rejects_a_flipped_sign(mini, monkeypatch):
    backward = er.fmm_backward

    def flipped(acts, p, g):
        grads = backward(acts, p, g)
        grads.spectral_logits = -grads.spectral_logits
        return grads

    monkeypatch.setattr(er, "fmm_backward", flipped)
    pair = mini["loaded"].pairs[mini["loaded"].train_idx[0]]
    with pytest.raises(checks.CheckFailed, match="spectral_logits"):
        checks.check_gradient(er, mini["params"], pair.degraded, pair.clean, SEED)


def test_degradation_check_rejects_a_one_pixel_change_to_a_blurred_image(mini):
    pairs = [dataclasses.replace(r) for r in mini["loaded"].pairs]
    k = next(i for i, r in enumerate(pairs) if r.kind == "blur")
    pairs[k].degraded = pairs[k].degraded.copy()
    pairs[k].degraded[7, 2] += 1e-8
    with pytest.raises(checks.CheckFailed, match="blur"):
        checks.check_degradations(pairs, dict(MINI.degradations))


def test_setup_checks_reject_a_changed_reload(mini):
    loaded = mini["loaded"]
    pairs = [dataclasses.replace(r) for r in loaded.pairs]
    pairs[0].clean = pairs[0].clean.copy()
    pairs[0].clean[0, 0] = np.nextafter(pairs[0].clean[0, 0], 2.0)
    changed = dataclasses.replace(loaded, pairs=pairs)
    with pytest.raises(checks.CheckFailed, match="bit-identical"):
        checks.check_roundtrip(mini["built"], changed)
    with pytest.raises(checks.CheckFailed, match="pairs"):
        checks.check_counts(loaded, MINI.n_images + 1, MINI.kinds)


def test_train_check_rejects_a_rising_loss_and_a_missing_trigger(mini):
    trace = mini["trace"]
    rising = dataclasses.replace(trace, rows=trace.rows[::-1])
    with pytest.raises(checks.CheckFailed, match="did not fall"):
        checks.check_train(rising, mini["cfg"])
    missing = dataclasses.replace(trace, eos_traces=trace.eos_traces[:-1])
    with pytest.raises(checks.CheckFailed, match="triggers"):
        checks.check_train(missing, mini["cfg"])


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_counts_each_call_once_and_restores_the_names():
    original = np.fft.fft2
    targets = (("numpy.fft.fft2", "numpy.fft", "fft2"),
               ("grids.fft2", "evorestore.grids", "fft2"),
               ("gone.name", "evorestore.grids", "no_such_function"))
    tracer = Tracer(targets)
    with tracer.active():
        assert np.fft.fft2 is not original
        er.fft2(np.ones((8, 8)))
        er.grids.fft2(np.ones((8, 8)))
    assert np.fft.fft2 is original
    spans = tracer.spans()
    table = tracer.table(spans)
    assert table["numpy.fft.fft2"][0] == 2 and table["grids.fft2"][0] == 2
    assert tracer.absent == ["gone.name"]
    inner = spans["name_id"] == tracer.names.index("numpy.fft.fft2")
    assert np.all(spans["parent"][inner] >= 0)  # each numpy call nests in grids.fft2
    assert np.all(spans["self_ns"] <= spans["dur_ns"]) and np.all(spans["self_ns"] >= 0)
