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


BALL_4D = '{"variant": "ball", "center": [%s, 0, 0, 0], "radius": 1}'


# (shape JSON, a word the one-line error must contain)
MALFORMED = {
    "center": ('{"variant": "ball", "center": 5, "radius": 1}', "ball"),
    "mode": ('{"variant": "nearly_spherical", "modes": [[2, 0]], "eps": 0.1}', "nearly_spherical"),
    "quad_order": (
        '{"variant": "nearly_spherical", "modes": [[2, 0, 1]], "eps": 0.1, "quad_order": "x"}',
        "nearly_spherical",
    ),
    "balls": ('{"variant": "union_of_balls", "balls": 5}', "union_of_balls"),
    "variant": ('{"variant": ["x"]}', "variant"),
    "nan_width": (
        '{"variant": "box", "center": [0, 0, 0], "half_widths": [NaN, 1, 1]}',
        "half_widths",
    ),
    "union_4d": (
        '{"variant": "union_of_balls", "balls": [%s, %s]}' % (BALL_4D % 0, BALL_4D % 3),
        "dimensions",
    ),
    "inf_width": (
        '{"variant": "box", "center": [0, 0, 0], "half_widths": [Infinity, 1, 1]}',
        "half_widths",
    ),
    "nan_center": ('{"variant": "ball", "center": [NaN, 0, 0], "radius": 1}', "center"),
    "inf_radius": (
        '{"variant": "annulus", "center": [0, 0, 0], "r_inner": 1, "r_outer": Infinity}',
        "r_outer",
    ),
    "huge_quad_order": (
        '{"variant": "nearly_spherical", "modes": [[2, 0, 1]], "eps": 0.1, "quad_order": 100000}',
        "quad_order",
    ),
    "mode_degree": (
        '{"variant": "nearly_spherical", "modes": [[100000, 0, 1]], "eps": 0.1}',
        "l=100000",
    ),
}


@pytest.mark.parametrize("spec, word", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_shapes_exit_two(capsys, spec, word):
    code, _, err = run_cli(["capacity", "--shape", spec, "--M", "400"], capsys)
    assert code == 2
    assert err.startswith("error:") and "\n" not in err.strip()
    assert word in err


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


def test_equilibrium_with_farfield_json_and_csv(capsys):
    args = ["equilibrium", "--shape", BALL_JSON, "--M", "300", "--farfield-radii", "100,200"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["converged"] is True
    assert [row["radius"] for row in result["farfield"]["rows"]] == [100.0, 200.0]
    assert result["farfield"]["deviation"] < 1e-6
    code, out, _ = run_cli([*args, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == result["n_nodes"]
    assert set(rows[0]) == {"x0", "x1", "x2", "weight", "mass", "potential"}
    assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_two_balls_subcommand(capsys):
    code, out, _ = run_cli(["family", "two-balls", "--n", "1,2,4", "--M", "300"], capsys)
    assert code == 0
    points = json.loads(out)["result"]["points"]
    assert [p["n"] for p in points] == [1, 2, 4]
    energies = [p["energy"] for p in points]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    for p in points:
        assert p["numeric_energy"] == pytest.approx(p["energy"], rel=0.02)


def test_lemma_ratio_subcommand(capsys):
    code, out, _ = run_cli(
        ["stability", "lemma-ratio", "--samples", "2", "--eps-max", "0.2", "--M", "200"], capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["samples"] == 2
    assert result["used"] + result["skipped_flat"] + result["skipped_nonpositive"] == 2
    assert result["max_ratio"] > 0.0


@pytest.mark.parametrize("field", ["1,0", "nan,0,0", "1,inf,0"])
def test_bad_field_exits_two(capsys, field):
    code, out, err = run_cli(["external-field", "--shape", BALL_JSON, f"--field={field}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "\n" not in err.strip()
    assert "field" in err


def test_missing_shape_means_the_unit_ball(capsys):
    code, out, _ = run_cli(["capacity", "--M", "300"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["shape"] is None
    assert payload["result"]["capacity"] == pytest.approx(1.0, rel=0.03)


# a valid call of each subcommand that declares fewer than all shared flags
_BASE = {
    "external-field": ["external-field", "--field", "1,0,0"],
    "entropic": ["entropic"],
    "energy": ["energy"],
    "many-balls": ["family", "many-balls", "--beta", "0.6", "--n", "4"],
    "two-balls": ["family", "two-balls", "--n", "2"],
    "slab": ["family", "slab", "--n", "16"],
    "fuglede": ["stability", "fuglede", "--modes", "2,0,1", "--eps", "0.1"],
    "rayleigh": ["stability", "rayleigh", "--l", "2", "--amplitudes=-0.1,0,0.1", "--Q", "0"],
    "lemma-ratio": ["stability", "lemma-ratio"],
    "convex-2d": ["stability", "convex-2d", "--Q", "0"],
}
_FAMILIES = ("many-balls", "two-balls", "slab")
_STABILITY = ("fuglede", "rayleigh", "lemma-ratio", "convex-2d")

# (subcommand, flag, value): the shared flags their runners never read
UNREAD = (
    [(cmd, "--tol", "1e-3") for cmd in _BASE]
    + [(cmd, "--role", "volume") for cmd in ("entropic", *_FAMILIES, *_STABILITY)]
    + [(cmd, "--dim", "3") for cmd in ("slab", *_STABILITY)]
    + [(cmd, "--M", "500") for cmd in ("many-balls", "fuglede")]
)


@pytest.mark.parametrize("cmd, flag, value", UNREAD, ids=[f"{c}{f}" for c, f, _ in UNREAD])
def test_unread_flag_exits_two(capsys, cmd, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([*_BASE[cmd], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
