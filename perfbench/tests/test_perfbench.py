"""Tests of the benchmark itself: statistics, spans and rollup, oracles, contract.

Run with ``python -m pytest -q perfbench/tests``.  None of them times
anything; the steadiness of real runs is checked by ``steady.py``.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import spec
import stats
import steady
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# ---------------------------------------------------------------------------
# order statistics and the steadiness verdict


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([5.0], 90) == 5.0


@pytest.mark.parametrize(
    "n, label",
    [(5, "max"), (99, "max"), (100, "p90"), (200, "p95"), (1000, "p99"), (10000, "p99.9")],
)
def test_tail_needs_ten_samples_beyond(n, label):
    value, got = stats.tail([float(i) for i in range(1, n + 1)])
    assert got == label
    if label != "max":
        p = float(label[1:])
        assert sum(v > value for v in range(1, n + 1)) >= 10
        assert value == stats.percentile(range(1, n + 1), p)


METRIC = {"name": "problem_s_p50", "better": "lower", "bound": 0.2}


def test_calibrate_scales_times_and_rates_only():
    units = {"a_s": "s", "rate": "1/s", "rss": "MB"}
    got = stats.calibrate({"a_s": 2.0, "rate": 3.0, "rss": 100.0}, units, speed=0.5)
    assert got == {"a_s": 1.0, "rate": 6.0, "rss": 100.0}


def test_oracle_err_max_covers_a_fixed_set_of_problems():
    records = [{"index": i, "errors": {"a": 0.01 * i}} for i in range(8)]
    records[0]["errors"] = {"a": 0.025, "b": 0.001}
    assert stats.oracle_err_max(records, 2) == 0.025
    assert stats.oracle_err_max(records, 3) == pytest.approx(0.03)
    assert stats.oracle_err_max(records[:4], 3) == stats.oracle_err_max(records, 3)
    assert stats.oracle_err_max([{"index": 1, "errors": {}}], 3) == 0.0


def test_verdict_accepts_agreeing_sets():
    first = [1.00, 1.01, 0.99, 1.02, 0.98]
    v = stats.verdict(first, [x * 1.05 for x in first], METRIC)
    assert v["ok"] and v["steady"]
    assert v["worsening"] == pytest.approx(0.05)


def test_verdict_rejects_a_worse_median_and_a_wide_spread():
    first = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert not stats.verdict(first, [x * 1.3 for x in first], METRIC)["ok"]
    wide = [0.5, 1.0, 1.5, 1.0, 0.6, 1.4]
    assert not stats.verdict(wide, wide, METRIC)["ok"]


def test_verdict_direction_for_higher_is_better():
    rate = {"name": "problems_per_s", "better": "higher", "bound": 0.2}
    first = [2.0, 2.1, 1.9, 2.0]
    assert stats.verdict(first, [x * 1.5 for x in first], rate)["ok"]
    assert not stats.verdict(first, [x * 0.7 for x in first], rate)["ok"]


def _fake_run(scale):
    return {
        "correct": True,
        "metrics": {m["name"]: {"value": scale, "unit": m["unit"]} for m in spec.END_TO_END},
    }


def test_steady_summary_covers_every_metric():
    runs = [[_fake_run(1.0 + 0.01 * i) for i in range(5)], [_fake_run(1.0 + 0.01 * i) for i in range(5)]]
    rows = steady.summarize({"dense_solve": runs})
    assert [r["metric"] for r in rows] == [m["name"] for m in spec.END_TO_END]
    assert all(r["ok"] and r["steady"] for r in rows)


# ---------------------------------------------------------------------------
# spans and rollup


def _span(i, name, start, end, parent=None, **counts):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "problem": 1, **counts}


def test_rollup_self_time_busy_union_and_per_problem():
    s = [
        _span(0, "operators.assemble_operator", 0.0, 10.0, entries=100),
        _span(1, "kernels.kernel_of_distance", 2.0, 5.0, parent=0, entries=100),
        _span(2, "shapes.perimeter", 20.0, 30.0),
        _span(3, spans.PROFILE_SPAN, 22.0, 25.0, parent=2, shape=0),
        _span(4, spans.PROFILE_SPAN, 26.0, 28.0, parent=2, shape=0),
        _span(5, "harmonics.real_sph_harm", 23.0, 24.0, parent=3),
    ]
    m = spans.rollup(s, n_problems=2)
    assert m["operators.busy_s"] == 5.0
    assert m["operators.self_s"] == 3.5
    assert m["kernels.busy_s"] == 1.5
    assert m["shapes.busy_s"] == 5.0  # nested profile spans are not counted twice
    assert m["shapes.profile_calls"] == 1.0
    assert m["shapes.profile_calls_per_shape"] == 2.0
    assert m["harmonics.busy_s"] == 0.5
    assert m["operators.entries"] == 50.0
    assert m["operators.entries_per_s"] == 10.0
    assert m["operators.matrix_bytes_computed"] == 400.0
    assert m["equilibrium.solves"] == 0.0
    assert set(m) | {"cli.import_s", "trace.overhead_frac", "machine.speed"} == set(spec.UNITS) - {
        e["name"] for e in spec.END_TO_END
    }


def test_tracer_wraps_every_alias_and_restores_them(tmp_path):
    import dropcap as dc
    from dropcap import clouds, equilibrium, instability, shapes

    originals = {
        (clouds, "discretize"): clouds.discretize,
        (instability, "discretize"): instability.discretize,
        (dc, "discretize"): dc.discretize,
        (equilibrium, "assemble_operator"): equilibrium.assemble_operator,
    }
    profile = shapes.NearlySpherical.__dict__["profile"]
    tracer = spans.Tracer()
    with tracer.installed():
        assert instability.discretize is dc.discretize is clouds.discretize
        assert clouds.discretize is not originals[(clouds, "discretize")]
        tracer.problem = 7
        res = dc.solve_shape(dc.Ball((0.0, 0.0, 0.0), 1.0), 2.0, n_nodes=200)
        dc.NearlySpherical(modes=((2, 0, 1.0),), eps=0.1)
        with pytest.raises(dc.ValidationError):
            dc.equilibrium_measure("not an operator")
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert shapes.NearlySpherical.__dict__["profile"] is profile

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
        assert s["problem"] == 7 and s["end"] >= s["start"]
    kernel_parent = tracer.spans[by_name["kernels.kernel_of_distance"][0]["parent"]]
    assert kernel_parent["name"] == "operators.assemble_operator"
    assert by_name["equilibrium.equilibrium_measure"][-1]["error"] == "ValidationError"
    m = spans.rollup(tracer.spans, 1)
    n = res.cloud.n_nodes
    assert m["clouds.calls"] == 1 and m["clouds.nodes"] == n
    assert m["operators.entries"] == n * n
    assert m["equilibrium.solves"] == 2
    assert m["equilibrium.iterations"] == res.iterations
    assert m["shapes.profile_calls"] == 1  # the positivity probe at construction
    assert 0.0 <= m["operators.self_s"] <= m["operators.busy_s"]

    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(tracer.spans)
    assert {"name", "start", "end", "parent", "problem"} <= set(lines[0])


# ---------------------------------------------------------------------------
# oracles and problem inputs


def test_closed_forms():
    # R cosh R - sinh R = 1/e at R = 1
    assert workloads.entropic_ball_energy(1.0) == pytest.approx(math.e * math.cosh(1.0) / (4 * math.pi), rel=1e-14)
    assert workloads.sphere_field_energy(2.0, (1.0, 0.0, 0.0)) == -2.0
    assert workloads.rayleigh_threshold(2) == pytest.approx(math.sqrt(8 * math.pi))
    assert workloads.fuglede_expansion(((2, 0, 1.0),), 0.4) == pytest.approx(4 * math.pi + 4 * 0.16)
    assert workloads.fuglede_expansion(((0, 0, 1.0),), 0.1) == pytest.approx(
        4 * math.pi + 0.2 * math.sqrt(4 * math.pi) + 0.01
    )


def test_inputs_follow_the_seed():
    draw = workloads.draw_dense_solve
    assert draw(3, 1) == draw(3, 1)
    assert draw(3, 1) != draw(3, 2)
    assert draw(3, 1) != draw(4, 1)
    modes = [workloads.draw_shape_scan(3, i)["l"] for i in range(6)]
    assert sorted(modes[:3]) == [2, 3, 4] and modes[3:] == modes[:3]
    argv = [c["argv"] for c in workloads.cli_round(5)]
    assert argv == [c["argv"] for c in workloads.cli_round(5)]
    assert any(a.startswith("--field=") for a in argv[4])


def test_checks_record_errors_and_misses():
    chk = workloads.Checks()
    chk.rel("a", 1.01, 1.0, 0.02)
    assert chk.misses == [] and chk.errors == {"a": pytest.approx(0.01)}
    chk.rel("b", 1.5, 1.0, 0.02)
    chk.residual("kkt", 1e-6, 1.0)
    assert len(chk.misses) == 2 and chk.errors["b"] == pytest.approx(0.5)


def _fuglede_output(ratios):
    rows = [
        {"eps": e, "expansion": workloads.fuglede_expansion(((2, 0, 1.0),), e), "ratio_eps3": r}
        for e, r in zip((0.4, 0.2, 0.1), ratios)
    ]
    return json.dumps({"config": {}, "result": {"rows": rows}})


def test_cli_checks():
    chk = workloads.Checks()
    workloads.check_fuglede(0, _fuglede_output([0.3, 0.15, 0.07]), chk)
    assert chk.misses == []
    workloads.check_fuglede(0, _fuglede_output([0.3, 0.35, 0.07]), chk)
    workloads.check_fuglede(3, "", chk)
    workloads.check_version(0, "usage", chk)
    assert len(chk.misses) == 3


# ---------------------------------------------------------------------------
# the contract with the benchmark runner


def test_benchmark_json_is_rendered_from_spec():
    assert spec.main(["--check"]) == 0
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_every_tolerance_is_listed_in_a_why():
    whys = {w["name"]: spec.why(w) for w in spec.WORKLOADS}
    assert set(spec.TOLERANCES) == {k for w in spec.WORKLOADS for k in w["tolerances"]}
    assert "1/R bdry 2e-2" in whys["shape_scan"] and "fuglede 1e-12" in whys["cli_roundtrip"]
    assert all("resid 1e-8" in whys[w] for w in ("dense_solve", "support_collapse", "cli_roundtrip"))


def test_reference_kernel_answers_each_line_and_exits_on_eof():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")],
        input="\n\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    ready, *answers = proc.stdout.splitlines()
    assert ready == "ready" and len(answers) == 2
    assert all(float(t) > 0 for t in answers)


def test_refuses_when_numpy_is_loaded_first():
    code = (
        "import numpy, runpy, sys; "
        "sys.argv = ['run.py', '--workload', 'dense_solve', '--seed', '1']; "
        f"runpy.run_path({str(BENCH / 'run.py')!r}, run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "DROPCAP_THREADS" in proc.stderr


@pytest.mark.parametrize("workload", ["dense_solve", "cli_roundtrip"])
def test_fails_without_a_result_where_the_sources_are_missing(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no dropcap sources" in proc.stderr
