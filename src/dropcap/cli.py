"""Command-line front end.

One subcommand per solver or experiment family, batch-driven, with
machine-readable JSON or CSV artifacts.  Every JSON artifact embeds the
fully resolved configuration so a run can be reproduced byte for byte.
Exit codes: 0 on success, 2 on a validation error or an --output that
cannot be written (single-line diagnostic on stderr), 3 on solver
non-convergence (single-line diagnostic on stderr; capacity and
equilibrium still write their best iterate, and stability rayleigh its
table with the failed amplitudes flagged).

Only the standard library, the version and the error types load with
this module, so --version, --help and argument errors answer without
numpy.  Each runner imports the layers it runs when it runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import __version__
from .errors import DropcapError, NonConvergenceError, ValidationError, require_tol

_CONVENTIONS = (
    f"dropcap {__version__}\n"
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
            raise ValidationError(f"mode {chunk!r} is not an l,m,c triple")
        out.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return tuple(out)


def _load_shape(args):
    from . import shapes as shp

    if args.shape is None:
        dim = args.dim if args.dim is not None else 3
        return shp.Ball((0.0,) * dim, 1.0)
    text = args.shape.strip()
    if not text.startswith("{"):
        path = text
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            reason = err.strerror or err
            raise ValidationError(f"cannot read shape file {path}: {reason}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"shape file {path} is not UTF-8 text") from None
    shape = shp.shape_from_json(text)
    if args.dim is not None and shape.dim != args.dim:
        raise ValidationError(
            f"--dim {args.dim} does not match the shape's dimension {shape.dim}"
        )
    return shape


def _config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    return cfg


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_cell(v):
    return repr(float(v)) if isinstance(v, float) else v


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
    from .reports import jsonable, render_json

    if args.format == "csv":
        _write_text(args.output, _render_csv(rows))
    else:
        payload = {"config": jsonable(_config(args)), "result": jsonable(result)}
        _write_text(args.output, render_json(payload))


def _solve_cloud(args, shape, alpha, check=None):
    """The operator of the shape's cloud; check(cloud), if given, runs before the assembly."""
    from .clouds import default_role, discretize
    from .kernels import KernelParams
    from .operators import assemble_operator

    role = args.role or default_role(alpha)
    cloud = discretize(shape, args.M, role)
    if check is not None:
        check(cloud)
    return assemble_operator(cloud, KernelParams(shape.dim, alpha))


def _node_rows(cloud, **columns) -> list[dict]:
    """One row per node: its coordinates x0, x1, ..., then the named columns."""
    import numpy as np

    table = {f"x{i}": x for i, x in enumerate(cloud.points.T)} | columns
    values = (np.asarray(v, dtype=float).tolist() for v in table.values())
    return [dict(zip(table, row)) for row in zip(*values)]


# ---------------------------------------------------------------------------
# subcommand runners: return (result, csv_rows, exit_code)


def _run_capacity(args):
    require_tol(args.tol)
    from .equilibrium import equilibrium_measure

    op = _solve_cloud(args, _load_shape(args), args.alpha)
    try:
        res = equilibrium_measure(op, tol=args.tol)
    except NonConvergenceError as err:
        _, lam = err.result
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
    require_tol(args.tol)
    from .equilibrium import _check_farfield_radii, equilibrium_measure, farfield_check

    def check(cloud):
        # the radii need only the cloud: refuse them before the solve
        if args.farfield_radii:
            _check_farfield_radii(args.farfield_radii, cloud)

    op = _solve_cloud(args, _load_shape(args), args.alpha, check)
    try:
        res = equilibrium_measure(op, tol=args.tol)
    except NonConvergenceError as err:
        masses, lam = err.result
        result = {"converged": False, "riesz_energy": float(lam), "kkt_residual": err.residual}
        return result, _node_rows(op.cloud, mass=masses), 3
    result = res.summary()
    result["converged"] = True
    result["support"] = result["component_masses"]
    if args.farfield_radii:
        result["farfield"] = farfield_check(res.measure, op.params, args.farfield_radii)
    rows = _node_rows(
        op.cloud, weight=op.cloud.weights, mass=res.masses, potential=res.potential_on_nodes
    )
    return result, rows, 0


def _run_external_field(args):
    from .external_field import LinearPotential, solve_external, verify_optimality

    shape = _load_shape(args)
    phi = LinearPotential(args.field)
    if shape.dim != phi.dim:
        raise ValidationError("--field must have one component per dimension")
    op = _solve_cloud(args, shape, 2.0)
    res = solve_external(op, phi)
    result = res.summary()
    result["F"] = res.F_value
    result["optimality"] = verify_optimality(res, op, phi, trials=args.trials, seed=args.seed)
    rows = _node_rows(op.cloud, weight=op.cloud.weights, mass=res.measure.masses)
    return result, rows, 0


def _run_entropic(args):
    from .clouds import discretize
    from .entropic import EntropicEnergy, solve_entropic

    shape = _load_shape(args)
    cloud = discretize(shape, args.M, "volume")
    res = solve_entropic(cloud)
    result = res.summary()
    if args.Q is not None:
        total = EntropicEnergy.of(shape, args.Q, res)
        result["charge"] = args.Q
        result["total_energy"] = total.total
        result["perimeter"] = total.perimeter
    return result, _node_rows(cloud, weight=cloud.weights, density=res.density), 0


def _run_energy(args):
    from .equilibrium import drop_energy

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


def _family(name, points, **extra):
    """The result and the rows of a competitor family: one row per point."""
    rows = [
        {
            "n": p.n,
            **p.components,
            "energy": p.analytic_energy,
            "numeric_energy": p.numeric_energy,
        }
        for p in points
    ]
    return {"family": name, "points": rows, **extra}, rows, 0


def _run_many_balls(args):
    from .instability import many_balls_family

    points = many_balls_family(
        args.n,
        beta=args.beta,
        charge=args.Q,
        dim=args.dim if args.dim is not None else 3,
        alpha=args.alpha,
        separation=args.separation,
        numeric_nodes=args.numeric_nodes,
    )
    return _family("many-balls", points)


def _run_two_balls(args):
    from .instability import two_balls_field_family

    points = two_balls_field_family(
        args.n,
        field_strength=args.E,
        n_nodes=args.M,
        dim=args.dim if args.dim is not None else 3,
    )
    return _family("two-balls", points)


def _run_slab(args):
    from .instability import slab_family

    return _family("slab", **slab_family(args.n, field_strength=args.E, n_nodes=args.M))


def _run_fuglede(args):
    from .instability import fuglede_check

    rows = fuglede_check(args.modes, args.eps, quad_order=args.quad_order)
    return {"rows": rows}, rows, 0


def _run_rayleigh(args):
    from .instability import rayleigh_scan

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
    return scan, rows, code


def _run_lemma_ratio(args):
    from .instability import lemma_ratio_check

    result = lemma_ratio_check(
        args.samples, args.eps_max, n_nodes=args.M, seed=args.seed
    )
    return result, [result], 0


def _run_convex_2d(args):
    from .instability import convex_scan_2d

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
        return 3 if isinstance(err, NonConvergenceError) else 2
    try:
        _emit(args, result, rows)
    except OSError as err:
        print(f"error: cannot write {args.output}: {err.strerror or err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
