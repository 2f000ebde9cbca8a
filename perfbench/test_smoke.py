"""Smoke test of the benchmark itself: output schema and correctness verdicts.

Runs every workload at toy size in-process, plus the command line once on
the cheapest workload.  Timings are never checked.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import filterlet  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, KIND_METRICS, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Prune, toy_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOYS = toy_workloads()


def _check_metrics(metrics: dict, catalogue: dict, spec_key: str) -> None:
    assert list(metrics) == [m["name"] for m in SPEC[spec_key]]
    assert set(metrics) == set(catalogue)
    for m in SPEC[spec_key]:
        entry = metrics[m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"] == catalogue[m["name"]][0]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    for m in SPEC["end_to_end"]:
        assert m["better"] == END_TO_END[m["name"]][1]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_is_correct_and_reports_every_metric(name, trace, capsys):
    wl = TOYS[name]
    tracer = Tracer() if trace else None
    raw = run.measure(wl, seed=5, seconds=0.0, tracer=tracer)
    assert raw["failed"] == 0
    assert raw["attempted"] == len(wl.kinds) * (2 if trace else 1)
    metrics = run.report(wl, raw, {"seed": 5}, trace, tracer)
    printed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")}
    assert {k for k, v in KIND_METRICS.items() if v[0] == name} <= printed
    if trace:
        _check_metrics(metrics, PER_LAYER, "per_layer")
        assert tracer.n_spans > 0
    else:
        _check_metrics(metrics, END_TO_END, "end_to_end")
        assert all(metrics[k]["value"] > 0 for k in END_TO_END)


def test_tracing_restores_the_package():
    original = filterlet.run_bundle, filterlet.bundle.conv_fwcs, \
        filterlet.ModelBundle.__dict__["from_bytes"]
    tracer = Tracer()
    with tracer.op("probe", 0):
        assert filterlet.run_bundle is not original[0]
        assert filterlet.bundle.conv_fwcs is not original[1]
    assert (filterlet.run_bundle, filterlet.bundle.conv_fwcs,
            filterlet.ModelBundle.__dict__["from_bytes"]) == original


def test_wrong_output_counts_as_failed(monkeypatch, capsys):
    conv_fwcs = filterlet.bundle.conv_fwcs

    def off_by_one(*args, **kwargs):
        return conv_fwcs(*args, **kwargs) + 1

    monkeypatch.setattr(filterlet.bundle, "conv_fwcs", off_by_one)
    raw = run.measure(TOYS["infer-6L"], seed=5, seconds=0.0)
    capsys.readouterr()
    assert raw["attempted"] == 4
    assert raw["failed"] == 1  # only the FWCS/DEFAULT operation uses conv_fwcs


def test_infeasible_prune_counts_as_failed(capsys):
    wl = Prune(layers=2, filters=4, side=8, iters=50, dl_share=0.0,
               flash_share=0.1)
    raw = run.measure(wl, seed=5, seconds=0.0)
    capsys.readouterr()
    assert (raw["attempted"], raw["failed"]) == (1, 1)


class BrokenPrune(Prune):
    def run(self, st, kind, args):
        raise RuntimeError("broken operator")


@pytest.mark.parametrize("trace", [False, True])
def test_exception_in_every_operation_ends_the_run(trace, capsys):
    tracer = Tracer() if trace else None
    raw = run.measure(BrokenPrune(layers=2, filters=4, side=8, iters=50),
                      seed=5, seconds=60.0, tracer=tracer)
    metrics = run.report(TOYS["prune-6L"], raw, {"seed": 5}, trace, tracer)
    assert "broken operator" in capsys.readouterr().err
    assert raw["failed"] == raw["attempted"] == (2 if trace else 1)
    assert set(metrics) == set(PER_LAYER if trace else END_TO_END)


def test_exception_in_prepare_and_run_counts_every_operation(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken run_bundle")

    # prepare calls run_bundle for the reference output, and so does run
    monkeypatch.setattr(filterlet, "run_bundle", broken)
    raw = run.measure(TOYS["infer-6L"], seed=5, seconds=60.0)
    capsys.readouterr()
    assert raw["failed"] == raw["attempted"] == 4


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "infer-6L",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    _check_metrics(result["metrics"], END_TO_END, "end_to_end")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prune-6L",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
