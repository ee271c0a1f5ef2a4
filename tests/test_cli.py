"""Command-line artifacts: exit codes, determinism, formats."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import dropcap
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
    bad.write_text("[1, 2]")  # a file, since an inline spec starts with "{"
    code, _, err = run_cli(["capacity", "--shape", str(bad)], capsys)
    assert code == 2
    assert err.strip() == "error: shape specification must be a JSON object"
    code, _, err = run_cli(
        ["family", "many-balls", "--beta", "0.4", "--Q", "1", "--n", "4"], capsys
    )
    assert code == 2
    code, _, err = run_cli(["capacity", "--shape", "/nonexistent/shape.json"], capsys)
    assert code == 2
    assert err.startswith("error:") and "/nonexistent/shape.json" in err
    code, _, err = run_cli(["capacity", "--shape", str(tmp_path), "--M", "100"], capsys)
    assert code == 2
    assert err.startswith("error:") and "\n" not in err.strip()
    assert str(tmp_path) in err
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(["capacity", "--shape", str(bad), "--M", "100"], capsys)
    assert code == 2
    assert err.strip() == f"error: shape file {bad} is not UTF-8 text"
    code, _, err = run_cli(["capacity", "--shape", BALL_JSON, "--dim", "2"], capsys)
    assert code == 2


BALL_4D = '{"variant": "ball", "center": [%s, 0, 0, 0], "radius": 1}'
BOX_3D = '{"variant": "box", "center": [0, 0, 0], "half_widths": [1, 1, 1]}'


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
    "ball_1d": ('{"variant": "ball", "center": [0], "radius": 1}', "ball center must have dimension >= 2"),
    "annulus_1d": (
        '{"variant": "annulus", "center": [0], "r_inner": 0.5, "r_outer": 1}',
        "annulus center must have dimension >= 2",
    ),
    "empty_union": ('{"variant": "union_of_balls", "balls": []}', "union of balls needs at least one ball"),
    "union_of_a_box": (
        '{"variant": "union_of_balls", "balls": [%s]}' % BOX_3D,
        "union_of_balls entries must be balls",
    ),
    "union_mixed_dims": (
        '{"variant": "union_of_balls", "balls": [%s, %s]}'
        % (BALL_JSON, '{"variant": "ball", "center": [5, 0], "radius": 1}'),
        "all balls must share one ambient dimension",
    ),
    "box_1d": (
        '{"variant": "box", "center": [0], "half_widths": [1]}',
        "box center must have dimension >= 2",
    ),
    "box_widths": (
        '{"variant": "box", "center": [0, 0, 0], "half_widths": [1, 1]}',
        "box half_widths must match center dimension",
    ),
    "polygon_two_vertices": (
        '{"variant": "convex_polygon", "vertices": [[0, 0], [1, 0]]}',
        "polygon needs at least 3 vertices",
    ),
    "mode_order": (
        '{"variant": "nearly_spherical", "modes": [[2, 3, 1]], "eps": 0.1}',
        "invalid mode (l=2, m=3)",
    ),
    "mode_twice": (
        '{"variant": "nearly_spherical", "modes": [[2, 0, 1], [2, 0, 0.5]], "eps": 0.1}',
        "duplicate mode (l=2, m=0)",
    ),
}


@pytest.mark.parametrize("spec, word", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_shapes_exit_two(capsys, spec, word):
    code, _, err = run_cli(["capacity", "--shape", spec, "--M", "400"], capsys)
    assert code == 2
    assert err.startswith("error:") and "\n" not in err.strip()
    assert word in err


def test_nonconvergence_exits_three_with_the_best_iterate(tmp_path, monkeypatch):
    import dropcap.equilibrium
    from dropcap.errors import NonConvergenceError

    M = 300
    masses = np.full(M, 1.0 / M)

    def stalled(op, tol, **kwargs):
        assert op.n_nodes == M
        raise NonConvergenceError("stalled", result=(masses, 0.987), residual=3.5e-4)

    # the runners look the solver up on its module when they run
    monkeypatch.setattr(dropcap.equilibrium, "equilibrium_measure", stalled)
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


@pytest.mark.parametrize(
    "args",
    [["external-field", "--field", "1,0,0"], ["entropic"]],
    ids=["external-field", "entropic"],
)
def test_a_cg_breakdown_exits_three(capsys, monkeypatch, args):
    import dropcap.entropic
    import dropcap.operators

    def vanishing(solve):
        # the operator vanishes after its first product, so p'Ap = 0 and
        # conjugate gradients break down
        def run(apply, *rest):
            products = []

            def first_only(v):
                products.append(v)
                return apply(v) if len(products) == 1 else 0.0 * v

            return solve(first_only, *rest)

        return run

    for module, name in [
        (dropcap.entropic, "constrained_solve"),
        (dropcap.operators, "constrained_solve"),
        (dropcap.operators, "cg_solve"),
    ]:
        monkeypatch.setattr(module, name, vanishing(getattr(module, name)))
    code, out, err = run_cli([*args, "--shape", BALL_JSON, "--M", "300"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "broke down" in err
    assert "\n" not in err.strip()


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


@pytest.mark.parametrize(
    "args",
    [
        ["many-balls", "--beta", "0.75", "--n", "4,8", "--numeric-nodes", "100"],
        ["many-balls", "--beta", "0.75", "--n", "4,8"],
        ["two-balls", "--n", "1,2", "--M", "200"],
        ["slab", "--n", "16,32", "--M", "200"],
    ],
    ids=["many-balls-numeric", "many-balls", "two-balls", "slab"],
)
def test_family_csv_rows_are_the_json_points(capsys, args):
    code, out, _ = run_cli(["family", *args], capsys)
    assert code == 0
    points = json.loads(out)["result"]["points"]
    code, out, _ = run_cli(["family", *args, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        assert set(row) == set(point)  # the JSON artifact sorts its keys
        for key, value in point.items():
            assert row[key] == ("" if value is None else repr(value)), key


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
    import dropcap.entropic

    calls = []
    original = dropcap.entropic.solve_entropic

    def counted(cloud):
        calls.append(cloud.n_nodes)
        return original(cloud)

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


def test_slab_subcommand_in_a_strong_field_crosses_at_the_shortest_slab(capsys):
    # the energy is negative already where both caps first fit
    code, out, _ = run_cli(["family", "slab", "--n", "16", "--E", "50", "--M", "100"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["crossover"] == pytest.approx((16.0 * np.pi / 3.0) ** (1.0 / 3.0), rel=1e-15)


def test_slab_subcommand_without_field_fits_no_field_exponent(capsys):
    code, out, _ = run_cli(
        ["family", "slab", "--n", "16,32", "--E", "0", "--M", "100"], capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert set(result["fitted_exponents"]) == {"perimeter", "interaction"}
    assert result["crossover"] is None


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_rayleigh_solve_exits_three_and_writes_its_table(tmp_path, second_solve_fails, fmt):
    out = tmp_path / f"rayleigh.{fmt}"
    args = ["stability", "rayleigh", "--l", "2", "--amplitudes=-0.08,0,0.08", "--Q", "0,6", "--M", "300"]
    assert main([*args, "--format", fmt, "--output", str(out)]) == 3
    (err,) = second_solve_fails
    if fmt == "json":
        result = json.loads(out.read_text())["result"]
        assert result["converged"] == [True, False, True]
        assert result["riesz_energies"][1] == err.result[1]
        assert len(result["energy_table"]) == 2
    else:
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["Q"], r["amplitude"]) for r in rows[:3]] == [("0.0", "-0.08"), ("0.0", "0.0"), ("0.0", "0.08")]
        assert [r["converged"] for r in rows] == ["True", "False", "True"] * 2


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


def test_version_is_the_package_version(capsys):
    tomllib = pytest.importorskip("tomllib")
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.splitlines()[0] == f"dropcap {dropcap.__version__}"
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert dropcap.__version__ == tomllib.load(fh)["project"]["version"]


_NOT_RUN_BY_CAPACITY = ("dropcap.instability", "dropcap.external_field", "dropcap.entropic")

# (argv or None for a bare import, whether numpy loads, the scipy
# subpackages the run uses, the dropcap modules it must not load)
STARTUP = {
    # nothing numeric runs before argparse answers
    "import": (None, False, set(), ()),
    "version": (["--version"], False, set(), ()),
    "help": (["--help"], False, set(), ()),
    "bad_M": (["capacity", "--M", "x"], False, set(), ()),
    # the spherical harmonics run their own Legendre recurrence
    "fuglede": (["stability", "fuglede", "--modes", "2,0,1", "--eps", "0.1"], True, set(), ()),
    # closed forms; the union's disjointness check is numpy only
    "many_balls": (["family", "many-balls", "--beta", "0.6", "--n", "4,16"], True, set(), ()),
    # the BLAS symv and the cdist distances, and only the layers it runs
    "capacity": (
        ["capacity", "--M", "200"], True, {"scipy.linalg", "scipy.spatial"}, _NOT_RUN_BY_CAPACITY
    ),
}
_STARTUP_CODE = """
import json, runpy, sys
argv = {argv!r}
if argv is None:
    import dropcap
else:
    sys.argv = ["dropcap", *argv]
    try:
        runpy.run_module("dropcap.cli", run_name="__main__")
    except SystemExit:
        pass
roots = ("numpy", "scipy", "dropcap")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in roots)))
"""


@pytest.mark.parametrize("argv, numpy, uses, unloaded", list(STARTUP.values()), ids=list(STARTUP))
def test_startup_loads_scipy_only_where_used(fresh_python, argv, numpy, uses, unloaded):
    modules = json.loads(fresh_python(_STARTUP_CODE.format(argv=argv)).splitlines()[-1])
    assert ("numpy" in modules) == numpy
    scipy = [m for m in modules if m.split(".")[0] == "scipy"]
    if not uses:
        assert scipy == []
    else:
        assert uses <= {m for m in scipy if m.count(".") == 1}
    assert not set(unloaded) & set(modules)


_TWO_BALLS_JSON = (
    '{"variant": "union_of_balls", "balls": ['
    '{"variant": "ball", "center": [0, 0, 0], "radius": 1.0}, '
    '{"variant": "ball", "center": [3, 0, 0], "radius": 0.5}]}'
)
# the ball; past 3d, where the far-field directions are random unit
# vectors; and a union, which has no center, so the far field is taken
# about the node mean
_FARFIELD_CASES = [
    (["--shape", BALL_JSON, "--M", "300"], [100.0, 200.0]),
    (["--dim", "4", "--alpha", "1.5", "--M", "400"], [300.0, 600.0]),
    (["--shape", _TWO_BALLS_JSON, "--M", "600"], [500.0, 1000.0]),
]


def test_equilibrium_with_farfield_json_and_csv(capsys):
    for case, radii in _FARFIELD_CASES:
        args = ["equilibrium", *case, "--farfield-radii", ",".join(map(str, radii))]
        code, out, _ = run_cli(args, capsys)
        assert code == 0, case
        payload = json.loads(out)
        result = payload["result"]
        assert result["converged"] is True
        assert [row["radius"] for row in result["farfield"]["rows"]] == radii
        assert result["farfield"]["deviation"] < 1e-6, case
        code, out, _ = run_cli([*args, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == result["n_nodes"]
        coords = {f"x{i}" for i in range(payload["config"]["dim"] or 3)}
        assert set(rows[0]) == coords | {"weight", "mass", "potential"}
        assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "radii, word",
    [("nan", "finite"), ("100,inf", "finite"), ("200,100", "increasing"), ("1,2", "reach 100")],
)
def test_bad_farfield_radii_exit_two_before_the_assembly(capsys, monkeypatch, radii, word):
    import dropcap.equilibrium
    import dropcap.operators

    def never(*args, **kwargs):
        raise AssertionError("bad far-field radii reached the assembly or the solve")

    monkeypatch.setattr(dropcap.operators, "assemble_operator", never)
    monkeypatch.setattr(dropcap.equilibrium, "equilibrium_measure", never)
    code, out, err = run_cli(["equilibrium", "--M", "6000", "--farfield-radii", radii], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and word in err


@pytest.mark.parametrize("command, tol", [("capacity", "nan"), ("equilibrium", "0")])
def test_a_bad_tol_exits_two_before_the_cloud(capsys, monkeypatch, command, tol):
    import dropcap.clouds
    import dropcap.operators

    def never(*args, **kwargs):
        raise AssertionError("a bad --tol reached the cloud or the assembly")

    monkeypatch.setattr(dropcap.clouds, "discretize", never)
    monkeypatch.setattr(dropcap.operators, "assemble_operator", never)
    code, out, err = run_cli([command, "--M", "6000", "--tol", tol], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "tol" in err


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


_TRIALS = ["external-field", "--field", "1,0,0", "--M", "200", "--trials"]
_TWO_BALLS = ["family", "two-balls", "--n", "2", "--M", "100", "--E"]
_SLAB = ["family", "slab", "--n", "16,64", "--M", "100", "--E"]
_CONVEX = ["stability", "convex-2d", "--n-random", "0", "--M", "100"]

# (argv, a word the one-line error must contain)
BAD_NUMBERS = {
    "trials_0": ([*_TRIALS, "0"], "trials"),
    "trials_neg": ([*_TRIALS, "-3"], "trials"),
    "two_balls_nan": ([*_TWO_BALLS, "nan"], "field strength"),
    "two_balls_inf": ([*_TWO_BALLS, "inf"], "field strength"),
    "slab_nan": ([*_SLAB, "nan"], "field strength"),
    "slab_inf": ([*_SLAB, "inf"], "field strength"),
    "convex_2d_m_gons_0": ([*_CONVEX, "--Q", "0", "--m-gons", "0"], "sides"),
    # a non-finite charge would reach the artifact as NaN or Infinity
    "energy_Q_nan": (["energy", "--M", "100", "--Q", "nan"], "charge"),
    "entropic_Q_inf": (["entropic", "--M", "100", "--Q", "inf"], "charge"),
    "many_balls_Q_nan": (
        ["family", "many-balls", "--beta", "0.6", "--n", "4", "--Q", "nan"],
        "charge",
    ),
    "rayleigh_Q_inf": (
        ["stability", "rayleigh", "--l", "2", "--amplitudes=-0.1,0,0.1", "--M", "100",
         "--Q", "0,inf"],
        "charge",
    ),
    "convex_2d_Q_nan": ([*_CONVEX, "--Q", "0,nan"], "charge"),
    # a tolerance that no residual can meet, or that every residual meets
    "equilibrium_tol_nan": (["equilibrium", "--tol", "nan", "--M", "100"], "tol"),
    "capacity_tol_neg": (["capacity", "--tol", "-1", "--M", "100"], "tol"),
    "capacity_tol_0": (["capacity", "--tol", "0", "--M", "100"], "tol"),
    "equilibrium_tol_inf": (["equilibrium", "--tol", "inf", "--M", "100"], "tol"),
    # a bounding-box grid past MAX_GRID_CELLS, refused before it is built
    "two_balls_dim_50": (["family", "two-balls", "--dim", "50", "--n", "2", "--M", "100"], "grid"),
    "many_balls_numeric_1e8": (
        ["family", "many-balls", "--beta", "0.6", "--n", "4", "--numeric-nodes", "100000000"],
        "grid",
    ),
    # numpy's generators refuse a negative seed
    "external_field_seed_neg": ([*_TRIALS, "2", "--seed", "-3"], "seed"),
    "lemma_ratio_seed_neg": (
        ["stability", "lemma-ratio", "--samples", "2", "--seed", "-1", "--M", "100"],
        "seed",
    ),
    # in 2d alpha = 2 is the log kernel, so the dimension is checked first
    "external_field_2d": (
        ["external-field", "--dim", "2", "--field", "1,0", "--M", "100"],
        "dimension",
    ),
    "convex_2d_seed_neg": (
        [*_CONVEX, "--Q", "1", "--m-gons", "4", "--seed", "-1"],
        "seed",
    ),
    # a radius that is not finite would reach the artifact as NaN or Infinity
    "farfield_nan": (["equilibrium", "--M", "100", "--farfield-radii", "nan,200"], "radius"),
    "farfield_inf": (["equilibrium", "--M", "100", "--farfield-radii", "inf"], "radius"),
}


@pytest.mark.parametrize("argv, word", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
def test_bad_numbers_exit_two(capsys, argv, word):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "\n" not in err.strip()
    assert word in err


def test_an_unwritable_output_exits_two_with_one_line(capsys, tmp_path):
    path = tmp_path / "missing" / "out.json"
    argv = ["stability", "fuglede", "--modes", "2,0,1.0", "--eps", "0.1", "--output", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}:") and err.count("\n") == 1
    assert not path.parent.exists()


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
