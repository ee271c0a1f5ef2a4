"""Command-line artifacts: exit codes, determinism, formats."""

import csv
import io
import json

import numpy as np
import pytest

from dropcap.cli import main


BALL_JSON = '{"variant": "ball", "center": [0, 0, 0], "radius": 1.0}'


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capacity_json_artifact(capsys, tmp_path):
    shape = tmp_path / "ball.json"
    shape.write_text(BALL_JSON)
    code, out, err = run_cli(
        ["capacity", "--shape", str(shape), "--dim", "3", "--alpha", "2", "--M", "800"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["capacity"] == pytest.approx(1.0, rel=0.02)
    assert payload["config"]["M"] == 800
    assert payload["config"]["subcommand"] == "capacity"


def test_inline_shape_spec(capsys):
    code, out, _ = run_cli(["capacity", "--shape", BALL_JSON, "--M", "400"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["converged"] is True


def test_validation_failures_exit_two(capsys, tmp_path):
    code, _, err = run_cli(["capacity", "--shape", BALL_JSON, "--alpha", "7"], capsys)
    assert code == 2
    assert err.startswith("error:") and "\n" not in err.strip()
    code, _, err = run_cli(["capacity", "--shape", '{"variant": "cube"}'], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["capacity", "--shape", str(bad)], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["family", "many-balls", "--beta", "0.4", "--Q", "1", "--n", "4"], capsys
    )
    assert code == 2
    code, _, err = run_cli(["capacity", "--shape", "/nonexistent/shape.json"], capsys)
    assert code == 2
    code, _, err = run_cli(["capacity", "--shape", BALL_JSON, "--dim", "2"], capsys)
    assert code == 2


def test_nonconvergence_exits_three_with_the_best_iterate(tmp_path, monkeypatch):
    import dropcap.cli
    from dropcap.errors import NonConvergenceError

    M = 300
    masses = np.full(M, 1.0 / M)

    def stalled(op, tol, **kwargs):
        assert op.n_nodes == M
        raise NonConvergenceError("stalled", result=(masses, 0.987), residual=3.5e-4)

    monkeypatch.setattr(dropcap.cli, "equilibrium_measure", stalled)
    common = ["--shape", BALL_JSON, "--M", str(M)]

    out = tmp_path / "capacity.json"
    assert main(["capacity", *common, "--output", str(out)]) == 3
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is False
    assert result["riesz_energy"] == 0.987
    assert result["kkt_residual"] == 3.5e-4

    out = tmp_path / "equilibrium.json"
    assert main(["equilibrium", *common, "--output", str(out)]) == 3
    result = json.loads(out.read_text())["result"]
    assert result == {"converged": False, "riesz_energy": 0.987, "kkt_residual": 3.5e-4}

    out = tmp_path / "equilibrium.csv"
    assert main(["equilibrium", *common, "--format", "csv", "--output", str(out)]) == 3
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == M
    np.testing.assert_array_equal([float(r["mass"]) for r in rows], masses)


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "run.json"
    args = ["capacity", "--shape", BALL_JSON, "--M", "300", "--output", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_seeded_family_is_deterministic(tmp_path):
    out = tmp_path / "scan.json"
    args = [
        "stability", "convex-2d", "--Q", "0,1", "--m-gons", "3,4",
        "--n-random", "2", "--seed", "9", "--M", "200", "--output", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_many_balls_csv_energy_monotone(capsys):
    code, out, _ = run_cli(
        ["family", "many-balls", "--beta", "0.6", "--Q", "1",
         "--n", "4,16,64,256", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    energies = [float(r["energy"]) for r in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] > 4.0 * np.pi
    assert "np.float64" not in out


def test_external_field_oracle(capsys):
    code, out, _ = run_cli(
        ["external-field", "--shape", BALL_JSON, "--field", "1,0,0", "--M", "800"],
        capsys,
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["lambda"]) <= 1e-6
    assert result["F"] == pytest.approx(-0.25, rel=0.05)


def test_entropic_subcommand(capsys):
    code, out, _ = run_cli(["entropic", "--shape", BALL_JSON, "--M", "600"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["J_value"] == pytest.approx(0.3338, rel=0.02)
    assert result["el_residual"] <= 1e-8


def test_entropic_charge_reuses_the_solve(capsys, monkeypatch):
    import dropcap.cli
    import dropcap.entropic

    calls = []
    original = dropcap.entropic.solve_entropic

    def counted(cloud):
        calls.append(cloud.n_nodes)
        return original(cloud)

    monkeypatch.setattr(dropcap.cli, "solve_entropic", counted)
    monkeypatch.setattr(dropcap.entropic, "solve_entropic", counted)
    code, out, _ = run_cli(
        ["entropic", "--shape", BALL_JSON, "--M", "300", "--Q", "2"], capsys
    )
    assert code == 0
    assert len(calls) == 1
    result = json.loads(out)["result"]
    assert result["perimeter"] == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert result["total_energy"] == result["perimeter"] + 4.0 * result["J_value"]


def test_energy_subcommand_csv(capsys):
    code, out, _ = run_cli(
        ["energy", "--shape", BALL_JSON, "--Q", "2", "--M", "500", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    total = float(row["energy"])
    assert total == pytest.approx(4 * np.pi + 4.0 * 1.0, rel=0.02)


def test_slab_subcommand_reports_exponents(capsys):
    code, out, _ = run_cli(
        ["family", "slab", "--n", "16,64,256", "--E", "1", "--M", "400"], capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["fitted_exponents"]["field"] == pytest.approx(1.0, abs=0.02)
    assert result["crossover"] == pytest.approx(101.0, abs=5.0)


def test_rayleigh_subcommand(capsys):
    code, out, _ = run_cli(
        ["stability", "rayleigh", "--l", "2", "--amplitudes=-0.08,0,0.08",
         "--Q", "0,6", "--M", "500"],
        capsys,
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["threshold_estimate"] == pytest.approx(
        np.sqrt(8 * np.pi), rel=0.08
    )


def test_fuglede_subcommand_csv(capsys):
    code, out, _ = run_cli(
        ["stability", "fuglede", "--modes", "2,0,1.0", "--eps", "0.2,0.1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert abs(float(rows[1]["ratio_eps3"])) < abs(float(rows[0]["ratio_eps3"]))


def test_version_prints_conventions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "kernel" in out and "capacity" in out
    assert "|x-y|^(alpha-N)" in out
