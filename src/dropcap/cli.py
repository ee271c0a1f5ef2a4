"""Command-line front end.

One subcommand per solver or experiment family, batch-driven, with
machine-readable JSON or CSV artifacts.  Every JSON artifact embeds the
fully resolved configuration so a run can be reproduced byte for byte.
Exit codes: 0 on success, 2 on a validation error (single-line
diagnostic on stderr), 3 on solver non-convergence (the best iterate is
still written).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from importlib import metadata

import numpy as np

from . import shapes as shp
from .clouds import default_role, discretize
from .entropic import EntropicEnergy, solve_entropic
from .equilibrium import (
    drop_energy,
    equilibrium_measure,
    farfield_check,
    support_profile,
)
from .errors import DropcapError, NonConvergenceError
from .external_field import LinearPotential, solve_external, verify_optimality
from .instability import (
    convex_scan_2d,
    fuglede_check,
    lemma_ratio_check,
    many_balls_family,
    rayleigh_scan,
    slab_family,
    two_balls_field_family,
)
from .kernels import KernelParams
from .operators import assemble_operator
from .reports import jsonable, render_json

try:
    _VERSION = metadata.version("dropcap")
except metadata.PackageNotFoundError:
    _VERSION = "0.1.0"

_CONVENTIONS = (
    f"dropcap {_VERSION}\n"
    "kernel: |x-y|^(alpha-N) for alpha < N; -log|x-y| for alpha = N (2d log case)\n"
    "energy: full double integral, no 1/2 factor\n"
    "capacity: 1/energy for alpha < N; exp(-energy) for alpha = N\n"
    "potentials: v(x) = integral of the kernel against the measure\n"
)


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _modes(text: str) -> tuple[tuple[int, int, float], ...]:
    """Parse 'l,m,c;l,m,c' triples."""
    out = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise shp.ValidationError(f"mode {chunk!r} is not an l,m,c triple")
        out.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return tuple(out)


def _load_shape(args) -> shp.Shape:
    if args.shape is None:
        dim = args.dim if args.dim is not None else 3
        return shp.Ball((0.0,) * dim, 1.0)
    text = args.shape.strip()
    if not text.startswith("{"):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    shape = shp.shape_from_json(text)
    if args.dim is not None and shp.dim_of(shape) != args.dim:
        raise shp.ValidationError(
            f"--dim {args.dim} does not match the shape's dimension {shp.dim_of(shape)}"
        )
    return shape


def _config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = _VERSION
    return cfg


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row[k]) for k in header])
    return buf.getvalue()


def _emit(args, result, rows) -> None:
    if args.format == "csv":
        _write_text(args.output, _render_csv(rows))
    else:
        payload = {"config": jsonable(_config(args)), "result": jsonable(result)}
        _write_text(args.output, render_json(payload))


def _solve_cloud(args, shape, alpha):
    role = args.role or default_role(alpha)
    cloud = discretize(shape, args.M, role)
    op = assemble_operator(cloud, KernelParams(shp.dim_of(shape), alpha))
    return cloud, op


# ---------------------------------------------------------------------------
# subcommand runners: return (result, csv_rows, exit_code)


def _run_capacity(args):
    shape = _load_shape(args)
    cloud, op = _solve_cloud(args, shape, args.alpha)
    try:
        res = equilibrium_measure(op, tol=args.tol)
    except NonConvergenceError as err:
        masses, lam = err.result
        row = {
            "riesz_energy": float(lam),
            "capacity": None,
            "converged": False,
            "kkt_residual": err.residual,
        }
        return row, [row], 3
    row = {
        "riesz_energy": res.energy,
        "capacity": res.capacity,
        "converged": True,
        "kkt_residual": res.kkt_residual,
        "iterations": res.iterations,
        "active_fraction": res.active_fraction,
    }
    return row, [row], 0


def _run_equilibrium(args):
    shape = _load_shape(args)
    cloud, op = _solve_cloud(args, shape, args.alpha)
    try:
        res = equilibrium_measure(op, tol=args.tol)
    except NonConvergenceError as err:
        masses, lam = err.result
        result = {"converged": False, "riesz_energy": float(lam), "kkt_residual": err.residual}
        rows = [
            {**{f"x{i}": p[i] for i in range(p.shape[0])}, "mass": m}
            for p, m in zip(cloud.points, masses)
        ]
        return result, rows, 3
    result = res.summary()
    result["converged"] = True
    result["support"] = support_profile(res)
    if args.farfield_radii:
        result["farfield"] = farfield_check(res.measure, op.params, args.farfield_radii)
    rows = []
    for p, w, m, v in zip(cloud.points, cloud.weights, res.masses, res.potential_on_nodes):
        row = {f"x{i}": p[i] for i in range(p.shape[0])}
        row.update(weight=w, mass=m, potential=v)
        rows.append(row)
    return result, rows, 0


def _run_external_field(args):
    shape = _load_shape(args)
    phi = LinearPotential(args.field)
    if shp.dim_of(shape) != phi.dim:
        raise shp.ValidationError("--field must have one component per dimension")
    cloud, op = _solve_cloud(args, shape, 2.0)
    res = solve_external(op, phi)
    result = res.summary()
    result["F"] = res.F_value
    result["optimality"] = verify_optimality(res, op, phi, trials=args.trials, seed=args.seed)
    rows = []
    for p, w, m in zip(cloud.points, cloud.weights, res.measure.masses):
        row = {f"x{i}": p[i] for i in range(p.shape[0])}
        row.update(weight=w, mass=m)
        rows.append(row)
    return result, rows, 0


def _run_entropic(args):
    shape = _load_shape(args)
    cloud = discretize(shape, args.M, "volume")
    res = solve_entropic(cloud)
    result = res.summary()
    if args.Q is not None:
        total = EntropicEnergy.of(shape, args.Q, res)
        result["charge"] = args.Q
        result["total_energy"] = total.total
        result["perimeter"] = total.perimeter
    rows = []
    for p, w, d in zip(cloud.points, cloud.weights, res.density):
        row = {f"x{i}": p[i] for i in range(p.shape[0])}
        row.update(weight=w, density=d)
        rows.append(row)
    return result, rows, 0


def _run_energy(args):
    shape = _load_shape(args)
    res = drop_energy(shape, args.Q, args.alpha, n_nodes=args.M, role=args.role)
    row = {
        "perimeter": res.perimeter,
        "charge": res.charge,
        "riesz_energy": res.equilibrium_energy,
        "interaction": res.interaction,
        "energy": res.total,
        "capacity": res.capacity,
    }
    return row, [row], 0


def _family_rows(points):
    rows = []
    for p in points:
        rows.append(
            {
                "n": p.n,
                "perimeter": p.components["perimeter"],
                "interaction": p.components["interaction"],
                "field": p.components["field"],
                "energy": p.analytic_energy,
                "numeric_energy": p.numeric_energy,
            }
        )
    return rows


def _run_many_balls(args):
    points = many_balls_family(
        args.n,
        beta=args.beta,
        charge=args.Q,
        dim=args.dim if args.dim is not None else 3,
        alpha=args.alpha,
        separation=args.separation,
        numeric_nodes=args.numeric_nodes,
    )
    rows = _family_rows(points)
    result = {"family": "many-balls", "points": rows}
    return result, rows, 0


def _run_two_balls(args):
    points = two_balls_field_family(
        args.n,
        field_strength=args.E,
        n_nodes=args.M,
        dim=args.dim if args.dim is not None else 3,
    )
    rows = _family_rows(points)
    result = {"family": "two-balls", "points": rows}
    return result, rows, 0


def _run_slab(args):
    out = slab_family(args.n, field_strength=args.E, n_nodes=args.M)
    rows = _family_rows(out["points"])
    result = {
        "family": "slab",
        "points": rows,
        "fitted_exponents": out["fitted_exponents"],
        "crossover": out["crossover"],
    }
    return result, rows, 0


def _run_fuglede(args):
    rows = fuglede_check(args.modes, args.eps, quad_order=args.quad_order)
    return {"rows": rows}, rows, 0


def _run_rayleigh(args):
    scan = rayleigh_scan(args.l, args.amplitudes, args.Q, n_nodes=args.M)
    rows = []
    for qi, q in enumerate(scan.charges):
        for ti, t in enumerate(scan.amplitudes):
            rows.append(
                {
                    "Q": q,
                    "amplitude": t,
                    "energy": scan.energy_table[qi][ti],
                    "converged": scan.converged[ti],
                }
            )
    code = 0 if all(scan.converged) else 3
    return scan.summary(), rows, code


def _run_lemma_ratio(args):
    result = lemma_ratio_check(
        args.samples, args.eps_max, n_nodes=args.M, seed=args.seed
    )
    return result, [result], 0


def _run_convex_2d(args):
    result = convex_scan_2d(
        args.Q,
        m_gons=args.m_gons,
        n_random=args.n_random,
        seed=args.seed,
        n_nodes=args.M,
    )
    rows = []
    for row in result["rows"]:
        flat = {
            "label": row["label"],
            "perimeter": row["perimeter"],
            "riesz_energy": row["riesz_energy"],
        }
        for q, e in row["energies"].items():
            flat[f"energy_Q{q}"] = e
        rows.append(flat)
    return result, rows, 0


# ---------------------------------------------------------------------------
# parser


# flags shared by several subcommands; each declares only those its runner reads
_SHARED = {
    "shape": {"default": None, "help": "shape JSON file or inline spec"},
    "dim": {"type": int, "default": None, "help": "ambient dimension"},
    "M": {"type": int, "default": 2000, "help": "node budget"},
    "role": {"choices": ("boundary", "volume"), "default": None},
    "alpha": {"type": float, "default": 2.0, "help": "kernel exponent"},
    "tol": {"type": float, "default": 1e-10, "help": "solver tolerance"},
    "Q": {"type": float, "default": 1.0, "help": "total charge"},
}


def _add_common(sub, *shared):
    """--format and --output, then the named flags of _SHARED."""
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default="-", help="artifact path, - for stdout")
    for name in shared:
        sub.add_argument(f"--{name}", **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropcap",
        description="Riesz equilibrium measures, capacities, and charged-drop stability experiments.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=_CONVENTIONS)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("capacity", help="Riesz or logarithmic capacity of a shape")
    _add_common(p, "shape", "dim", "M", "role", "alpha", "tol")
    p.set_defaults(func=_run_capacity)

    p = subs.add_parser("equilibrium", help="equilibrium measure on a node cloud")
    _add_common(p, "shape", "dim", "M", "role", "alpha", "tol")
    p.add_argument("--farfield-radii", type=_floats, default=None)
    p.set_defaults(func=_run_equilibrium)

    p = subs.add_parser("external-field", help="zero-net-charge measure in a linear field")
    _add_common(p, "shape", "dim", "M", "role")
    p.add_argument("--field", type=_floats, required=True, help="field vector, e.g. 1,0,0")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_run_external_field)

    p = subs.add_parser("entropic", help="entropic density relaxation on a volume cloud")
    _add_common(p, "shape", "dim", "M")
    p.add_argument("--Q", type=float, default=None, help="also report perimeter + Q^2 J")
    p.set_defaults(func=_run_entropic)

    p = subs.add_parser("energy", help="perimeter + Q^2 equilibrium-energy of a shape")
    _add_common(p, "shape", "dim", "M", "role", "alpha", "Q")
    p.set_defaults(func=_run_energy)

    fam = subs.add_parser("family", help="energy-decreasing competitor families")
    fsubs = fam.add_subparsers(dest="family", required=True)

    p = fsubs.add_parser("many-balls", help="shatter into n far-apart droplets")
    _add_common(p, "dim", "alpha", "Q")
    p.add_argument("--n", type=_ints, required=True, help="droplet counts, e.g. 4,16,64")
    p.add_argument("--beta", type=float, required=True, help="droplet radius rate n^-beta")
    p.add_argument("--separation", type=float, default=1e3)
    p.add_argument("--numeric-nodes", type=int, default=0, dest="numeric_nodes")
    p.set_defaults(func=_run_many_balls)

    p = fsubs.add_parser("two-balls", help="opposite charges pulled apart by a field")
    _add_common(p, "dim", "M")
    p.add_argument("--n", type=_ints, required=True, help="separations, e.g. 1,2,4,8")
    p.add_argument("--E", type=float, default=1.0, help="field strength")
    p.set_defaults(func=_run_two_balls)

    p = fsubs.add_parser("slab", help="stretching slab with charged end caps")
    _add_common(p, "M")
    p.add_argument("--n", type=_ints, required=True, help="slab lengths, e.g. 16,32,64")
    p.add_argument("--E", type=float, default=1.0, help="field strength")
    p.set_defaults(func=_run_slab)

    stab = subs.add_parser("stability", help="perturbative stability experiments")
    ssubs = stab.add_subparsers(dest="experiment", required=True)

    p = ssubs.add_parser("fuglede", help="perimeter expansion remainder sweep")
    _add_common(p)
    p.add_argument("--modes", type=_modes, required=True, help="l,m,c;l,m,c ...")
    p.add_argument("--eps", type=_floats, required=True, help="amplitudes, e.g. 0.4,0.2,0.1")
    p.add_argument("--quad-order", type=int, default=64, dest="quad_order")
    p.set_defaults(func=_run_fuglede)

    p = ssubs.add_parser("rayleigh", help="charge threshold of one harmonic mode")
    _add_common(p, "M")
    p.add_argument("--l", type=int, required=True, help="spherical-harmonic degree")
    p.add_argument("--amplitudes", type=_floats, required=True, help="e.g. -0.1,0,0.1")
    p.add_argument("--Q", type=_floats, required=True, help="charges, e.g. 0,2,4,6")
    p.set_defaults(func=_run_rayleigh)

    p = ssubs.add_parser("lemma-ratio", help="capacity vs perimeter deficit ratio")
    _add_common(p, "M")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--eps-max", type=float, default=0.1, dest="eps_max")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_run_lemma_ratio)

    p = ssubs.add_parser("convex-2d", help="rank equal-area convex shapes by drop energy")
    _add_common(p, "M")
    p.add_argument("--Q", type=_floats, required=True, help="charges, e.g. 0,0.5,1")
    p.add_argument("--m-gons", type=_ints, default=[3, 4, 5, 6, 8, 12], dest="m_gons")
    p.add_argument("--n-random", type=int, default=3, dest="n_random")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_run_convex_2d)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, rows, code = args.func(args)
    except DropcapError as err:
        msg = " ".join(str(err).split())
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: shape file not found: {err.filename}", file=sys.stderr)
        return 2
    _emit(args, result, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
