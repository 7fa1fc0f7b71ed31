"""Fast tests of the benchmark: its checks catch corrupted outputs, and its
traced counts agree with each other and with the workload's shape.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracer
import worker
from run import E2E_UNITS
from starwpn import analytics, cli
from workloads import SMALL

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(workload, tmp_path, seed=7, trace=False):
    out = tmp_path / workload.name
    record = worker.run_op(cli, workload.argv(seed, out), trace)
    assert record["rc"] == 0
    (csv_path,) = out.glob("*.csv")
    data = csv_path.read_bytes()
    return record, checks.read_rows(data), data


@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    return _run(SMALL["mc-sweep"], tmp_path_factory.mktemp("mc"))[1]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _run(SMALL["analytic-sweep"], tmp_path_factory.mktemp("an"))[1]


def _copy(rows):
    return [dict(r) for r in rows]


def _mc_fails(rows):
    w = SMALL["mc-sweep"]
    return (
        checks.check_shape(rows, w)
        + checks.check_identities(rows, w, w.trials)
        + checks.check_tdma(rows, w)
        + checks.check_mc_intervals(rows, w, w.trials)
    )


def test_mc_sweep_output_passes(mc):
    assert _mc_fails(mc) == []


def test_mc_check_rejects_outage_moved_by_ten_percent(mc):
    rows = _copy(mc)
    trials = SMALL["mc-sweep"].trials
    row = max((r for r in rows if r["engine"] == "montecarlo"), key=lambda r: float(r["outage_r"]))
    moved = round(float(row["outage_r"]) * 1.1 * trials) / trials
    row["outage_r"] = repr(moved)
    assert checks.check_mc_intervals(rows, SMALL["mc-sweep"], trials)


def test_mc_check_passes_zero_events_only_for_small_expected_count():
    n = 10**6
    lo, hi = checks.clopper_pearson(0, n, 1 - 1e-5)
    assert lo == 0.0
    assert 11 / n < hi < 13 / n  # -ln(5e-6) = 12.2 expected events


def test_identity_checks_reject_each_corruption(mc):
    w = SMALL["mc-sweep"]
    edits = [
        ("tep", "analytic", "sum_throughput", lambda v: v * (1 + 1e-9)),
        ("eep", "montecarlo", "throughput_t", lambda v: v + 1e-6),
        ("tep", "analytic", "aoi", lambda v: v * 1.001),
        ("eep", "analytic", "phi", lambda v: min(1.0, v + 1e-3)),
        ("tdma", "montecarlo", "outage_t_se", lambda v: v * 1.01),
        ("tep", "analytic", "outage_t", lambda v: -1e-3),
    ]
    for scheme, engine, name, edit in edits:
        rows = _copy(mc)
        row = next(r for r in rows if r["scheme"] == scheme and r["engine"] == engine)
        row[name] = repr(edit(float(row[name])))
        assert checks.check_identities(rows, w, w.trials), (scheme, engine, name)


def test_tdma_check_rejects_small_shift(mc):
    rows = _copy(mc)
    row = next(r for r in rows if r["scheme"] == "tdma" and r["engine"] == "analytic")
    row["outage_r"] = repr(float(row["outage_r"]) * (1 + 1e-7))
    assert checks.check_tdma(rows, SMALL["mc-sweep"])


def test_oracle_passes_and_rejects_shift(sweep):
    w = SMALL["analytic-sweep"]
    assert checks.check_identities(sweep, w) == []
    picked = checks.oracle_rows(sweep, seed=3, count=4)
    assert checks.check_oracle(picked, w) == []
    bad = _copy(picked)
    row = max(bad, key=lambda r: float(r["outage_r"]))
    row["outage_r"] = repr(float(row["outage_r"]) * (1 + 1e-5))
    assert checks.check_oracle(bad, w)


# allocations the full GA returns at N = 30, seed 20240811
GA_ALLOC = {"p1": ("tep", 0.39681101701380944, 0.63605752651255054), "p2": ("eep", 0.59756633859769581, 0.57501594567788206)}


@pytest.fixture(scope="module")
def ga_rows():
    w = SMALL["ga-optimize"]
    config = checks._system_config(35.0, 2.0, 30)
    rows = []
    for problem, (scheme, alpha, beta_r) in GA_ALLOC.items():
        rep = analytics.perf_report(scheme, config, checks._policy(scheme, alpha, beta_r))
        rows.append(
            {"n_elements": "30", "problem": problem, "scheme": scheme, "alpha": repr(alpha), "beta_r": repr(beta_r),
             "sum_throughput": repr(rep.sum_throughput), "aoi": repr(rep.avg_aoi), "feasible": "true"}
        )
    grid = {(30, s): checks.coarse_grid_best(s, config, float(w.sets["ga.delta_th"])) for s in ("tep", "eep")}
    return rows, grid


def test_ga_check_passes_and_rejects_corruptions(ga_rows):
    rows, grid = ga_rows
    w = SMALL["ga-optimize"]
    assert checks.check_ga(rows, w, grid) == []
    for edit in (
        lambda r: r.update(aoi=repr(float(w.sets["ga.delta_th"]) * 1.01)),
        lambda r: r.update(feasible="false"),
        lambda r: r.update(sum_throughput=repr(float(r["sum_throughput"]) * (1 + 1e-4))),
        lambda r: r.update(alpha="0.9"),
    ):
        bad = _copy(rows)
        edit(bad[0])
        assert checks.check_ga(bad, w, grid)
    # an allocation that is priced right but below the coarse grid's best
    bad = _copy(rows)
    config = checks._system_config(35.0, 2.0, 30)
    rep = analytics.perf_report("tep", config, checks._policy("tep", 0.3, 0.5))
    bad[0].update(alpha="0.3", beta_r="0.5", sum_throughput=repr(rep.sum_throughput), aoi=repr(rep.avg_aoi))
    assert rep.avg_aoi <= 10.0 and rep.sum_throughput < grid[(30, "tep")]
    assert any("coarse grid" in f for f in checks.check_ga(bad, w, grid))


def _traced(name, tmp_path):
    record, rows, data = _run(SMALL[name], tmp_path, trace=True)
    _, _, plain = _run(SMALL[name], tmp_path / "plain")
    assert data == plain  # tracing leaves the output unchanged
    raw = dict(record["raw"], import_s=0.0, config_s=0.0)
    mc_rows = sum(r.get("engine") == "montecarlo" for r in rows)
    return tracer.layer_metrics(raw, mc_rows)


def _self_times_sane(m):
    assert 0.0 <= m["cli.self_s"]
    assert 0.0 <= m["optimizer.self_s"] <= m["optimizer.ga_run.s"] + 1e-9


def test_traced_counts_mc_sweep(tmp_path):
    w = SMALL["mc-sweep"]
    m = _traced("mc-sweep", tmp_path)
    points = len(w.sweep_values)
    assert m["analytics.perf_report.calls"] == points * 2
    assert m["montecarlo.decode.calls"] == 2 * points * 3
    assert m["montecarlo.decode_per_cell"] == 2
    assert m["montecarlo.mc_gains.calls"] == 1
    assert m["montecarlo.mc_gains.trials"] == w.trials
    assert m["montecarlo.gain_mb"] == 16 * w.trials / 2**20
    assert m["system.sic_outcome.calls"] == 2 * points * 2
    assert m["system.sic_outcome.elements"] == m["system.sic_outcome.calls"] * w.trials
    assert m["analytics.noma_metrics_batch.calls"] == 0
    assert m["optimizer.ga_run.calls"] == 0
    _self_times_sane(m)


def test_traced_counts_analytic_sweep(tmp_path):
    w = SMALL["analytic-sweep"]
    m = _traced("analytic-sweep", tmp_path)
    calls = m["analytics.perf_report.calls"]
    assert calls == len(w.sweep_values) * len(w.schemes)
    assert m["channel.gamma_fit.calls"] == 2 * calls
    assert m["analytics.clamp_checked"] == 3 * calls
    assert m["analytics.noma_metrics_batch.calls"] == 0
    assert m["montecarlo.mc_gains.calls"] == 0
    assert m["cli.self_s"] >= 0.0


def test_traced_counts_ga_optimize(tmp_path):
    w = SMALL["ga-optimize"]
    m = _traced("ga-optimize", tmp_path)
    runs = len(w.n_grid) * len(w.problems)
    assert m["optimizer.ga_run.calls"] == runs
    assert m["analytics.noma_metrics_batch.rows"] == m["optimizer.evaluate_batch.rows"]
    assert m["analytics.noma_metrics_batch.calls"] == m["optimizer.evaluate_batch.calls"]
    assert m["optimizer.evaluate_batch.calls"] <= runs * w.generations
    assert 0 < m["optimizer.fresh_row_share"] <= 1
    assert m["optimizer.evaluate_batch.rows"] == m["optimizer.fresh_row_share"] * runs * w.population * w.generations
    assert m["analytics.clamp_checked"] == 3 * m["analytics.noma_metrics_batch.rows"]
    assert m["analytics.perf_report.calls"] == 0
    _self_times_sane(m)


def test_missing_function_is_an_absent_metric(monkeypatch):
    monkeypatch.delattr(analytics, "perf_report")
    with tracer.Tracer() as t:
        pass
    assert "analytics.perf_report" not in t.present
    assert not hasattr(analytics.noma_metrics_batch, "__wrapped__")  # restored on exit
    raw = {"totals": t.totals(), "import_s": 0.1, "config_s": None, "clamp": None, "cli_self_s": None,
           "optimizer_self_s": 0.0}
    m = tracer.layer_metrics(raw, mc_rows=0)
    assert not any(k.startswith("analytics.perf_report") for k in m)
    assert m["analytics.noma_metrics_batch.calls"] == 0


def test_covered_is_the_union_within_bounds():
    assert tracer.covered([(0, 2), (1, 3), (5, 6)], 1, 5.5) == pytest.approx(2.5)
    assert tracer.covered([], 0, 1) == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == ["mc-sweep", "ga-optimize", "analytic-sweep"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
