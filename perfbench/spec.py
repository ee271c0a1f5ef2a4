"""What the benchmark measures: workloads, metrics, bounds and oracle tolerances.

This module is the one place these are defined.  ``run.py`` takes metric
names and units from here, and ``BENCHMARK.json`` at the repository root
is rendered from it:

    python3 perfbench/spec.py          # rewrite BENCHMARK.json
    python3 perfbench/spec.py --check  # exit 1 if BENCHMARK.json is stale

It imports nothing from dropcap and nothing that loads numpy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_SECONDS = 20

# Reference kernel (reference.py): the dense pipeline in plain
# numpy/scipy (1/r matrix, LU, solve) on a fixed cloud of REFERENCE_N
# points.  A helper process with BLAS pinned to nproc threads runs it
# before each set-up and then between problems, at most once per
# REFERENCE_EVERY_S seconds.  Every time metric is reported at
# reference-machine speed: wall time x nominal time / median time
# measured during the run, so slow drift in the speed of a shared
# machine cancels (perfbench/README.md).  The nominal time is the median
# over 44 runs on a 2-core Xeon VM with OpenBLAS 0.3.31 and 2 threads.
REFERENCE_N = 1500
REFERENCE_NOMINAL_S = 0.19
REFERENCE_EVERY_S = 2.0

# Relative-error tolerances of the closed-form oracles.  Each is a few
# times the error the seed commit shows at the workload's resolution
# (in brackets), so a solver that loses accuracy fails before it drifts
# far.  Residual limits are relative to the problem's own scale.
TOLERANCES = {
    # unit sphere / annulus Newton energy 1/R on boundary clouds [4e-3 at M=4000, 6e-3 at M=2000]
    "capacity_boundary": 2e-2,
    # alpha=2 volume ball, support collapsing to the outer shell [1.7e-2]
    "capacity_volume": 5e-2,
    # conducting sphere in a uniform field, F = -R^3 |E|^2 / 4 [1.2e-2 at M=4000, 1.7e-2 at M=2000]
    "field_energy": 5e-2,
    # entropic ball J(R) = cosh R / (4 pi (R cosh R - sinh R)) [1e-4]
    "entropic_energy": 2e-3,
    # Rayleigh threshold of mode l, sqrt(2 pi (l + 2)) [1.3e-2]
    "rayleigh_threshold": 5e-2,
    # perimeter expansion 4 pi + eps p1 + eps^2 p2, closed-form coefficients
    "fuglede_expansion": 1e-12,
    # mass left on the annulus' inner sphere
    "inner_mass": 1e-3,
    # KKT / Euler-Lagrange residuals, relative to the energy or field scale
    "residual": 1e-8,
}

# How each workload's why names a tolerance.
TOLERANCE_LABELS = {
    "capacity_boundary": "1/R bdry",
    "capacity_volume": "1/R vol",
    "field_energy": "F",
    "entropic_energy": "J",
    "rayleigh_threshold": "threshold",
    "fuglede_expansion": "fuglede",
    "inner_mass": "inner mass",
    "residual": "resid",
}

WORKLOADS = [
    {
        "name": "dense_solve",
        "why": (
            "3 dense solve paths (bordered LU, lu_factor+2 solves, entropic "
            "bordered) at M=4000 where n^2 memory binds; loads operators, "
            "equilibrium; shapes flat"
        ),
        "tolerances": ["capacity_boundary", "field_energy", "entropic_energy", "residual"],
        "detail": (
            "One problem: a unit-sphere boundary cloud at M = 4000, "
            "equilibrium_measure (oracle I = 1/R), then solve_external on the "
            "same operator with a seeded field (oracle F = -R^3|E|^2/4), and "
            "solve_entropic on a volume ball at M = 2000 with seeded R in "
            "[0.8, 1.25] (oracle cosh R / (4 pi (R cosh R - sinh R))).  All "
            "three dense solve paths run at the size where n^2 memory starts "
            "to bind.  Every equilibrium solve takes 1 active-set iteration "
            "and no shape profile is evaluated.  Loads operators, "
            "equilibrium, external_field and entropic; this is where an SPD/CG "
            "solve seam and a matrix-free operator show.  Predicted flat: "
            "shapes, harmonics, instability, cli."
        ),
    },
    {
        "name": "support_collapse",
        "why": (
            "restricted solves on shrinking active sets: alpha=2 volume "
            "ball (5 iters), annulus (2 iters); loads equilibrium; shapes flat"
        ),
        "tolerances": ["capacity_volume", "capacity_boundary", "inner_mass", "residual"],
        "detail": (
            "One problem: an alpha = 2 volume ball of about 2550 nodes and an "
            "annulus boundary cloud at M = 2000 (r_in = R/2), both with seeded "
            "R.  The ball's support collapses to about 20% of the nodes in 5 "
            "iterations (oracle 1/R); the annulus drops its inner sphere in 2 "
            "iterations (oracle 1/R, inner mass <= 1e-3).  Same equilibrium "
            "layer as dense_solve, used differently: the cost is repeated "
            "restricted solves on shrinking active sets.  Warm starts and "
            "active-set changes move this workload and, by prediction, not "
            "dense_solve.  Predicted flat: shapes, harmonics, instability, cli."
        ),
    },
    {
        "name": "shape_scan",
        "why": (
            "many small problems: lemma ratio, Rayleigh scan, 2d convex scan "
            "(disk ranks first); loads shapes, harmonics, instability; dense "
            "factorization minor"
        ),
        "tolerances": ["rayleigh_threshold", "capacity_boundary"],
        "detail": (
            "One problem: lemma_ratio_check(20, 0.3, n_nodes=600, seed=s), "
            "then rayleigh_scan(l, (-0.08, 0, 0.08), (0, 6), n_nodes=1200) "
            "with seeded l in {2, 3, 4} (threshold within 5% of "
            "sqrt(2 pi (l + 2))), then convex_scan_2d((0, 0.5, 1), n_nodes=600, "
            "seed=s) (the disk ranks first).  Many small problems: shapes and "
            "harmonics (6 NearlySpherical.profile calls per lemma sample), "
            "instability orchestration and small assembles dominate; dense "
            "factorization is a minor share.  This is where a profile cache "
            "shows, and it should show nowhere else.  Predicted flat: "
            "external_field, entropic, cli."
        ),
    },
    {
        "name": "cli_roundtrip",
        "why": (
            "python -m dropcap.cli runs one at a time, 7 subcommands; loads "
            "cli, reports, eager import; shapes flat; checks exit codes, "
            "same reruns"
        ),
        "tolerances": [
            "capacity_boundary", "field_energy", "entropic_energy", "fuglede_expansion", "residual",
        ],
        "detail": (
            "Runs python -m dropcap.cli subprocesses one at a time: --version, "
            "capacity --M x (expect exit 2), capacity --M 2000, energy --Q 2 "
            "--format csv, external-field --field <seeded> --M 2000, entropic "
            "--Q 2 --M 2000 and stability fuglede --modes 2,0,1.0 --eps "
            "0.4,0.2,0.1.  cli, reports and the eager import (most of a "
            "capacity run) are layers no library workload touches.  The "
            "entropic --Q double solve also shows here.  A problem is one "
            "invocation; the timed phase runs whole rounds of the seven."
        ),
    },
]

# Every end-to-end metric is reported on every workload, with tracing off.
END_TO_END = [
    {"name": "problems_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "problem_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "problem_s_tail", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "oracle_err_max", "unit": "ratio", "better": "lower", "bound": 0.1},
    {"name": "startup_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# Reported by the traced run.  Busy and self times and counts are per
# traced problem, so a faster commit that fits more problems into the
# run does not read as more work.
PER_LAYER = [
    ("shapes.busy_s", "s", "lower"),
    ("shapes.profile_calls", "count", "lower"),
    ("shapes.profile_calls_per_shape", "count", "lower"),
    ("harmonics.busy_s", "s", "lower"),
    ("clouds.calls", "count", "lower"),
    ("clouds.busy_s", "s", "lower"),
    ("clouds.nodes", "count", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.entries", "count", "lower"),
    ("operators.busy_s", "s", "lower"),
    ("operators.self_s", "s", "lower"),
    ("operators.entries", "count", "lower"),
    ("operators.entries_per_s", "1/s", "higher"),
    ("operators.matrix_bytes_computed", "B", "lower"),
    ("equilibrium.busy_s", "s", "lower"),
    ("equilibrium.solves", "count", "lower"),
    ("equilibrium.iterations", "count", "lower"),
    ("equilibrium.iterations_per_solve", "count", "lower"),
    ("equilibrium.s_per_iteration", "s", "lower"),
    ("equilibrium.active_fraction_mean", "ratio", "lower"),
    ("equilibrium.kkt_residual_max", "1", "lower"),
    ("equilibrium.nonconverged", "count", "lower"),
    ("external_field.busy_s", "s", "lower"),
    ("external_field.el_residual_max", "1", "lower"),
    ("entropic.busy_s", "s", "lower"),
    ("entropic.self_s", "s", "lower"),
    ("entropic.el_residual_max", "1", "lower"),
    ("instability.busy_s", "s", "lower"),
    ("instability.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("reports.busy_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("machine.speed", "ratio", "higher"),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]


def _short(x: float) -> str:
    """1e-08 -> 1e-8, 0.02 -> 2e-2."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def why(workload: dict) -> str:
    """The workload's why with the tolerances of the oracles it checks."""
    tols = ", ".join(f"{TOLERANCE_LABELS[k]} {_short(TOLERANCES[k])}" for k in workload["tolerances"])
    text = f"{workload['why']}; tol {tols}"
    if len(text) > 200 or "\n" in text:
        raise ValueError(f"why of {workload['name']} must be one line of <= 200 chars")
    return text


def render() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": why(w)} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render_text() -> str:
    return json.dumps(render(), indent=2) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    text = render_text()
    if argv == ["--check"]:
        current = SPEC_PATH.read_text() if SPEC_PATH.exists() else ""
        if current != text:
            print(f"{SPEC_PATH.name} is stale; run python3 perfbench/spec.py", file=sys.stderr)
            return 1
        return 0
    if argv:
        print("usage: python3 perfbench/spec.py [--check]", file=sys.stderr)
        return 2
    SPEC_PATH.write_text(text)
    print(f"wrote {SPEC_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
