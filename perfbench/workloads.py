"""Seeded problems of each workload and their closed-form oracle checks.

A library problem draws its inputs from a ``random.Random`` seeded by
(run seed, problem index), calls dropcap, and records each oracle's
relative error in a ``Checks``.  The oracles are the closed forms named
in ``spec.WORKLOADS``, written out here; nothing is taken from dropcap
or its tests.  The CLI workload is a fixed round of subcommands whose
outputs are checked the same way.

This module must not load numpy at import: ``run.py`` times
``import dropcap`` as part of set-up.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

from spec import TOLERANCES as TOL

ORIGIN = (0.0, 0.0, 0.0)


class Checks:
    """Oracle errors and misses of one problem."""

    def __init__(self):
        self.errors: dict[str, float] = {}
        self.misses: list[str] = []

    def rel(self, label: str, got: float, want: float, tol: float) -> None:
        err = abs(got - want) / abs(want)
        self.errors[label] = max(self.errors.get(label, 0.0), err)
        if not err <= tol:
            self.misses.append(f"{label}: relative error {err:.3g} > {tol:g}")

    def require(self, label: str, ok: bool) -> None:
        if not ok:
            self.misses.append(label)

    def residual(self, label: str, value: float, scale: float) -> None:
        self.require(
            f"{label} {value:.3g} above {TOL['residual']:g} x {scale:.3g}",
            value <= TOL["residual"] * max(1.0, scale),
        )


def problem_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


# ---------------------------------------------------------------------------
# closed forms


def newton_ball_energy(R: float) -> float:
    """Minimal Coulomb energy of a unit charge on B_R (uniform on the sphere)."""
    return 1.0 / R


def sphere_field_energy(R: float, field) -> float:
    """Neutral conducting sphere in a uniform field E: F = -R^3 |E|^2 / 4."""
    return -(R**3) * sum(e * e for e in field) / 4.0


def entropic_ball_energy(R: float) -> float:
    """Entropy-penalized ball: cosh R / (4 pi (R cosh R - sinh R))."""
    return math.cosh(R) / (4.0 * math.pi * (R * math.cosh(R) - math.sinh(R)))


def rayleigh_threshold(l: int) -> float:
    """Charge where harmonic mode l turns unstable: sqrt(2 pi (l + 2))."""
    return math.sqrt(2.0 * math.pi * (l + 2))


def fuglede_expansion(modes, eps: float) -> float:
    """Second-order perimeter 4 pi + eps 2 sqrt(4 pi) c00 + eps^2 sum c^2 (1 + l(l+1)/2)."""
    c00 = sum(c for l, m, c in modes if l == 0 and m == 0)
    second = sum(c * c * (1.0 + 0.5 * l * (l + 1)) for l, m, c in modes)
    return 4.0 * math.pi + eps * 2.0 * math.sqrt(4.0 * math.pi) * c00 + eps * eps * second


def _field(rng: random.Random) -> tuple[float, float, float]:
    """Uniform direction, strength in [0.5, 2], rounded to what a CLI user types."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    strength = rng.uniform(0.5, 2.0)
    return tuple(round(strength * x / norm, 3) for x in v)


# ---------------------------------------------------------------------------
# library workloads


def draw_dense_solve(seed: int, index: int) -> dict:
    rng = problem_rng(seed, index)
    return {"R": rng.uniform(0.8, 1.25), "field": _field(rng), "R_volume": rng.uniform(0.8, 1.25)}


def solve_dense_solve(dc, p: dict, chk: Checks) -> None:
    coulomb = dc.KernelParams(3, 2.0)
    R = p["R"]
    op = dc.assemble_operator(dc.discretize(dc.Ball(ORIGIN, R), 4000, "boundary"), coulomb)
    eq = dc.equilibrium_measure(op)
    chk.rel("ball_energy", eq.energy, newton_ball_energy(R), TOL["capacity_boundary"])
    chk.residual("kkt residual", eq.kkt_residual, eq.energy)
    fr = dc.solve_external(op, dc.LinearPotential(p["field"]))
    F = sphere_field_energy(R, p["field"])
    chk.rel("field_energy", fr.F_value, F, TOL["field_energy"])
    chk.residual("field EL residual", fr.el_residual, R * math.hypot(*p["field"]))
    Rv = p["R_volume"]
    en = dc.solve_entropic(dc.discretize(dc.Ball(ORIGIN, Rv), 2000, "volume"))
    chk.rel("entropic_energy", en.J_value, entropic_ball_energy(Rv), TOL["entropic_energy"])
    chk.residual("entropic EL residual", en.el_residual, en.multiplier)


def draw_support_collapse(seed: int, index: int) -> dict:
    rng = problem_rng(seed, index)
    return {"R_volume": rng.uniform(0.8, 1.25), "R_annulus": rng.uniform(0.8, 1.25)}


def solve_support_collapse(dc, p: dict, chk: Checks) -> None:
    coulomb = dc.KernelParams(3, 2.0)
    R = p["R_volume"]
    vol = dc.discretize(dc.Ball(ORIGIN, R), 2550, "volume")
    eq = dc.equilibrium_measure(dc.assemble_operator(vol, coulomb))
    chk.rel("volume_ball_energy", eq.energy, newton_ball_energy(R), TOL["capacity_volume"])
    chk.residual("volume kkt residual", eq.kkt_residual, eq.energy)
    Ra = p["R_annulus"]
    shell = dc.discretize(dc.Annulus(ORIGIN, Ra / 2.0, Ra), 2000, "boundary")
    an = dc.equilibrium_measure(dc.assemble_operator(shell, coulomb))
    chk.rel("annulus_energy", an.energy, newton_ball_energy(Ra), TOL["capacity_boundary"])
    chk.residual("annulus kkt residual", an.kkt_residual, an.energy)
    inner = shell.component_masses(an.masses)["inner"]
    chk.require(f"annulus inner mass {inner:.3g} > {TOL['inner_mass']:g}", inner <= TOL["inner_mass"])


def draw_shape_scan(seed: int, index: int) -> dict:
    """l cycles through 2, 3, 4 in a seeded order, so every run has the same mix."""
    modes = random.Random(f"{seed}:l").sample((2, 3, 4), 3)
    return {"seed": problem_rng(seed, index).randrange(2**31), "l": modes[index % 3]}


def solve_shape_scan(dc, p: dict, chk: Checks) -> None:
    samples = 20
    lr = dc.lemma_ratio_check(samples, 0.3, n_nodes=600, seed=p["seed"])
    counted = lr["used"] + lr["skipped_flat"] + lr["skipped_nonpositive"]
    chk.require("lemma ratio: sample counts do not add up", counted == samples)
    chk.require(
        "lemma ratio: expected 0 < mean <= max",
        lr["used"] >= 1 and 0.0 < lr["mean_ratio"] <= lr["max_ratio"] < math.inf,
    )
    l = p["l"]
    scan = dc.rayleigh_scan(l, (-0.08, 0.0, 0.08), (0.0, 6.0), n_nodes=1200)
    chk.require("rayleigh scan: a solve did not converge", all(scan.converged))
    i0 = scan.amplitudes.index(0.0)
    chk.rel("rayleigh_unit_sphere", scan.riesz_energies[i0], 1.0, TOL["capacity_boundary"])
    if scan.threshold_estimate is None:
        chk.require("rayleigh scan: no threshold estimate", False)
    else:
        chk.rel(
            "rayleigh_threshold",
            scan.threshold_estimate,
            rayleigh_threshold(l),
            TOL["rayleigh_threshold"],
        )
    cv = dc.convex_scan_2d((0.0, 0.5, 1.0), n_nodes=600, seed=p["seed"])
    firsts = [order[0] for order in cv["rankings"].values()]
    chk.require(f"convex scan: disk does not rank first ({firsts})", set(firsts) == {"disk"})


LIBRARY = {
    "dense_solve": (draw_dense_solve, solve_dense_solve),
    "support_collapse": (draw_support_collapse, solve_support_collapse),
    "shape_scan": (draw_shape_scan, solve_shape_scan),
}


# ---------------------------------------------------------------------------
# CLI workload


def cli_round(seed: int) -> list[dict]:
    """The seven invocations of one round; the field is drawn from the seed."""
    field = _field(random.Random(f"{seed}:field"))
    text = ",".join(repr(x) for x in field)
    return [
        {"name": "version", "argv": ["--version"], "numeric": False, "check": check_version},
        {"name": "bad_M", "argv": ["capacity", "--M", "x"], "numeric": False, "check": check_bad_m},
        {"name": "capacity", "argv": ["capacity", "--M", "2000"], "numeric": True, "check": check_capacity},
        {
            "name": "energy_csv",
            "argv": ["energy", "--Q", "2", "--format", "csv"],
            "numeric": True,
            "check": check_energy_csv,
        },
        {
            "name": "external_field",
            # the = form keeps a leading minus sign from reading as an option
            "argv": ["external-field", f"--field={text}", "--M", "2000"],
            "numeric": True,
            "check": lambda rc, out, chk: check_external_field(rc, out, chk, field),
        },
        {
            "name": "entropic",
            "argv": ["entropic", "--Q", "2", "--M", "2000"],
            "numeric": True,
            "check": check_entropic,
        },
        {
            "name": "fuglede",
            "argv": ["stability", "fuglede", "--modes", "2,0,1.0", "--eps", "0.4,0.2,0.1"],
            "numeric": True,
            "check": check_fuglede,
        },
    ]


def _exit(rc: int, want: int, chk: Checks) -> bool:
    chk.require(f"exit code {rc}, expected {want}", rc == want)
    return rc == want


def _json_result(out: str, chk: Checks):
    try:
        return json.loads(out)["result"]
    except (ValueError, KeyError) as err:
        chk.require(f"unreadable JSON artifact: {err}", False)
        return None


def check_version(rc, out, chk):
    if _exit(rc, 0, chk):
        chk.require("--version does not name dropcap", out.startswith("dropcap "))


def check_bad_m(rc, out, chk):
    _exit(rc, 2, chk)


def check_capacity(rc, out, chk):
    if _exit(rc, 0, chk) and (res := _json_result(out, chk)) is not None:
        chk.require("capacity did not converge", res["converged"] is True)
        chk.rel("capacity", res["capacity"], 1.0 / newton_ball_energy(1.0), TOL["capacity_boundary"])
        chk.residual("kkt residual", res["kkt_residual"], res["riesz_energy"])


def check_energy_csv(rc, out, chk):
    if not _exit(rc, 0, chk):
        return
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != 1:
        chk.require(f"energy CSV has {len(rows)} rows, expected 1", False)
        return
    row = rows[0]
    want = 4.0 * math.pi + 4.0 * newton_ball_energy(1.0)
    chk.rel("riesz_energy", float(row["riesz_energy"]), newton_ball_energy(1.0), TOL["capacity_boundary"])
    chk.rel("drop_energy", float(row["energy"]), want, TOL["capacity_boundary"])


def check_external_field(rc, out, chk, field):
    if _exit(rc, 0, chk) and (res := _json_result(out, chk)) is not None:
        F = sphere_field_energy(1.0, field)
        chk.rel("field_energy", res["F"], F, TOL["field_energy"])
        chk.residual("field EL residual", res["el_residual"], math.hypot(*field))
        chk.require(
            "optimality audit found a lower competitor",
            res["optimality"]["min_energy_gap"] > 0.0,
        )


def check_entropic(rc, out, chk):
    if _exit(rc, 0, chk) and (res := _json_result(out, chk)) is not None:
        J = entropic_ball_energy(1.0)
        chk.rel("entropic_energy", res["J_value"], J, TOL["entropic_energy"])
        chk.rel("entropic_total", res["total_energy"], 4.0 * math.pi + 4.0 * J, TOL["entropic_energy"])
        chk.residual("entropic EL residual", res["el_residual"], res["multiplier"])


def check_fuglede(rc, out, chk):
    if not (_exit(rc, 0, chk) and (res := _json_result(out, chk)) is not None):
        return
    rows = res["rows"]
    for row in rows:
        want = fuglede_expansion(((2, 0, 1.0),), row["eps"])
        chk.rel("fuglede_expansion", row["expansion"], want, TOL["fuglede_expansion"])
    ratios = [abs(row["ratio_eps3"]) for row in rows]
    chk.require(
        "fuglede remainder / eps^3 does not shrink with eps",
        all(b < a for a, b in zip(ratios, ratios[1:])),
    )
