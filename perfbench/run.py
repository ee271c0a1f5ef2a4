#!/usr/bin/env python3
"""Layered benchmark of dropcap: discretize -> assemble -> solve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dropcap from ``src/``.
Each workload is a closed loop of problems in this one process (the CLI
workload starts one ``python -m dropcap.cli`` at a time), with BLAS
pinned to ``nproc`` threads through DROPCAP_THREADS.  Every problem is
checked against closed-form oracles.  With ``--trace 0`` the last line
of stdout is the JSON result with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, in
which every other problem runs with spans installed (``spans.py``).
The environment header, each metric with its unit, and per-problem
records go to the lines before it and to ``perfbench/out/``.

Every time is reported at reference-machine speed: a fixed kernel, the
dense pipeline in plain numpy/scipy, is timed in a helper process
(``reference.py``) before each set-up and every
``spec.REFERENCE_EVERY_S`` seconds between problems, and wall times are
scaled by its nominal over its median measured time, so slow drift in
the speed of a shared machine cancels.  Raw wall times are kept in the
detail file.
"""

import sys

if "numpy" in sys.modules:
    sys.exit("perfbench: numpy was loaded before DROPCAP_THREADS was set; run this file directly")

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path

import spans
import spec
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 3  # setup_s is the median of this many fresh set-ups
IMPORT_SAMPLES = 9  # startup and import times are medians of this many imports
ORACLE_PROBLEMS = 3  # oracle_err_max covers the warm-up and timed problems 1..this
CHILD_TIMEOUT_S = 60
IDLE_WAIT_LIMIT_S = 1.0  # BLAS threads spin for about 0.1 s after a call
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def pin_threads() -> dict:
    """Pin BLAS to nproc threads through DROPCAP_THREADS for us and our children."""
    os.environ["DROPCAP_THREADS"] = str(NPROC)
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_sources() -> None:
    if not (SRC / "dropcap" / "__init__.py").is_file():
        raise SetupError(f"no dropcap sources under {SRC}; run from a checkout of the repository")


def import_dropcap():
    """Import dropcap from this checkout's sources, never from elsewhere."""
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dc = importlib.import_module("dropcap")
    if Path(dc.__file__).resolve().parent != (SRC / "dropcap").resolve():
        raise SetupError(f"imported dropcap from {dc.__file__}, not from {SRC}")
    return dc


def record(chk: workloads.Checks, wall: float, traced: bool, **extra) -> dict:
    return {
        **extra,
        "wall_s": wall,
        "traced": traced,
        "ok": not chk.misses,
        "misses": chk.misses,
        "errors": chk.errors,
    }


# ---------------------------------------------------------------------------
# library workloads


def library_problem(dc, name: str, seed: int, index: int, tracer=None) -> dict:
    draw, solve = workloads.LIBRARY[name]
    params = draw(seed, index)
    chk = workloads.Checks()
    ctx = tracer.installed() if tracer else contextlib.nullcontext()
    with ctx:
        if tracer:
            tracer.problem = index
        t0 = time.perf_counter()
        try:
            solve(dc, params, chk)
        except Exception as err:  # any failure of the program is a failed problem
            chk.require(f"{type(err).__name__}: {' '.join(str(err).split())}", False)
        wall = time.perf_counter() - t0
    return record(chk, wall, tracer is not None, index=index)


def setup_sample(name: str, seed: int) -> dict:
    """import dropcap plus the untimed warm-up problem, timed together."""
    t0 = time.perf_counter()
    dc = import_dropcap()
    t1 = time.perf_counter()
    warm = library_problem(dc, name, seed, 0)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t2 - t0, "warmup": warm}


def child_setup_sample(args, env) -> dict:
    """One set-up in a fresh process, so import and first-call costs repeat."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_library(args, env, reference) -> dict:
    reference.measure()
    samples = [setup_sample(args.workload, args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        reference.measure()
        samples.append(child_setup_sample(args, env))
    dc = sys.modules["dropcap"]

    def step(i, tracer):
        return library_problem(dc, args.workload, args.seed, i, tracer)

    records, tracer = timed_loop(args.seconds, step, args.trace, reference, min_problems=ORACLE_PROBLEMS)
    imports = [s["import_s"] for s in samples]
    imports += [fresh_import_s(env) for _ in range(IMPORT_SAMPLES - len(imports))]
    import_s = statistics.median(imports)
    return {
        "setup": samples,
        "records": records,
        "oracle_problems": ORACLE_PROBLEMS,
        "tracer": tracer,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "import_s": import_s,
        "startup_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "extra_records": [s["warmup"] for s in samples],
    }


# ---------------------------------------------------------------------------
# CLI workload


def cli_subprocess(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dropcap.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def cli_in_process(argv):
    """cli.main in this process, looked up per call so a traced main is used."""
    cli = sys.modules["dropcap.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits for --version and bad arguments
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        wall = time.perf_counter() - t0
    return rc, out.getvalue(), wall


def fresh_import_s(env) -> float:
    """Wall time of import dropcap in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import dropcap; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"import dropcap failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_cli(args, env, reference) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES):
        reference.measure()
        rc, out, wall = cli_subprocess(["--version"], env)
        chk = workloads.Checks()
        workloads.check_version(rc, out, chk)
        setup.append(record(chk, wall, False, index=0, name="setup_version"))
    commands = workloads.cli_round(args.seed)
    first_output: dict[str, str] = {}

    def invoke(cmd, tracer):
        if not args.trace:
            return cli_subprocess(cmd["argv"], env)
        with tracer.installed() if tracer else contextlib.nullcontext():
            return cli_in_process(cmd["argv"])

    def step(i, tracer):
        cmd = commands[(i - 1) % len(commands)]
        round_no = (i - 1) // len(commands) + 1
        if tracer:
            tracer.problem = f"{round_no}:{cmd['name']}"
        chk = workloads.Checks()
        rc, out, wall = invoke(cmd, tracer)
        cmd["check"](rc, out, chk)
        if first_output.setdefault(cmd["name"], out) != out:
            chk.require("output differs from the first round's", False)
        return record(chk, wall, tracer is not None, index=i, name=cmd["name"], numeric=cmd["numeric"], round=round_no)

    import_s = None
    if args.trace:
        import_s = statistics.median(fresh_import_s(env) for _ in range(IMPORT_SAMPLES))
        import_dropcap()
        importlib.import_module("dropcap.cli")
        for i in range(1, len(commands) + 1):  # in-process warm-up round, untimed
            step(i, None)
        first_output.clear()
    records, tracer = timed_loop(args.seconds, step, args.trace, reference, round_len=len(commands))
    return {
        "setup": setup,
        "records": records,
        "oracle_problems": len(commands),
        "tracer": tracer,
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "import_s": import_s,
        "startup_s": statistics.median(r["wall_s"] for r in records if not r["numeric"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "extra_records": setup,
    }


# ---------------------------------------------------------------------------
# timing and metrics


def wait_for_idle_threads() -> None:
    """Wait until no other thread of this process is running.

    BLAS worker threads spin for a while after a call returns; left
    alone they would slow the reference kernel by as much as they spin.
    """
    own = str(threading.get_native_id())
    deadline = time.perf_counter() + IDLE_WAIT_LIMIT_S
    while time.perf_counter() < deadline:
        try:
            tasks = [t for t in os.listdir("/proc/self/task") if t != own]
            states = [Path(f"/proc/self/task/{t}/stat").read_text().rsplit(")", 1)[1].split()[0] for t in tasks]
        except OSError:  # no procfs, or a thread ended while we looked
            return
        if "R" not in states:
            return
        time.sleep(0.005)


class Reference:
    """The machine-speed kernel of ``reference.py``, in a helper process.

    The helper gets an explicit BLAS thread count (nproc) and neither
    dropcap nor its thread setting, so nothing dropcap does to its own
    threads or heap reaches the kernel.  Its idle BLAS threads sleep at
    once rather than spin into the next problem.  measure() runs the
    kernel while the driver waits, due() says whether REFERENCE_EVERY_S
    have passed since the last measurement, and speed() is nominal time /
    median measured time: about 1 on the reference machine, below 1 while
    neighbours slow this one down.
    """

    def __init__(self, env):
        env = {k: v for k, v in env.items() if k not in ("PYTHONPATH", "DROPCAP_THREADS")}
        env.update({var: str(NPROC) for var in THREAD_VARS}, OPENBLAS_THREAD_TIMEOUT="4")
        self.times: list[float] = []
        self._last = -math.inf
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise SetupError("reference kernel process did not start")

    def measure(self) -> None:
        wait_for_idle_threads()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SetupError(f"reference kernel process exited ({self._proc.poll()})")
        self.times.append(float(line))
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= spec.REFERENCE_EVERY_S

    def speed(self) -> float:
        return spec.REFERENCE_NOMINAL_S / statistics.median(self.times)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def timed_loop(seconds: float, step, trace: bool, reference: Reference, round_len: int = 1, min_problems: int = 1):
    """Closed loop of problems until `seconds` have passed at a round boundary.

    At least `min_problems` run, so the problems oracle_err_max covers
    run on any commit.  The reference kernel runs between problems when
    due, outside the problems' timing.  An untraced loop of rounds of
    mixed problems stops only after an odd number of rounds: then the
    median of the pooled problems falls on one problem's time, not midway
    between two kinds.  A traced run alternates untraced and traced
    rounds, starting untraced, and always runs at least one of each.
    """
    if trace:
        min_problems = max(min_problems, 2 * round_len)
    tracer = spans.Tracer() if trace else None
    records = []
    i = 1
    t0 = time.perf_counter()
    while True:
        if reference.due():
            reference.measure()
        traced = trace and ((i - 1) // round_len) % 2 == 1
        records.append(step(i, tracer if traced else None))
        i += 1
        rounds, partial = divmod(i - 1, round_len)
        if partial == 0 and i > min_problems and time.perf_counter() - t0 >= seconds:
            if trace or round_len == 1 or rounds % 2 == 1:
                break
    return records, tracer


def end_to_end(run: dict) -> tuple[dict, dict]:
    records = run["records"]
    walls = [r["wall_s"] for r in records]
    tail_value, tail_label = stats.tail(walls)
    metrics = {
        "problems_per_s": sum(r["ok"] for r in records) / sum(walls),
        "problem_s_p50": statistics.median(walls),
        "problem_s_tail": tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
        "oracle_err_max": stats.oracle_err_max(records + run["extra_records"], run["oracle_problems"]),
        "startup_s_p50": run["startup_s"],
        "setup_s": run["setup_s"],
    }
    notes = {"problem_s_tail": f"{tail_label} of {len(walls)} problems"}
    return metrics, notes


def per_layer(run: dict) -> tuple[dict, dict]:
    traced = [r for r in run["records"] if r["traced"]]
    plain = [r for r in run["records"] if not r["traced"]]
    metrics = spans.rollup(run["tracer"].spans, len(traced))
    metrics["cli.import_s"] = run["import_s"]
    rate_traced = len(traced) / sum(r["wall_s"] for r in traced)
    rate_plain = len(plain) / sum(r["wall_s"] for r in plain)
    metrics["trace.overhead_frac"] = 1.0 - rate_traced / rate_plain
    notes = {"trace.overhead_frac": f"{len(traced)} traced vs {len(plain)} untraced problems"}
    return metrics, notes


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": NPROC,
        "threads": {v: os.environ.get(v) for v in ("DROPCAP_THREADS", *THREAD_VARS)},
        "reference_threads": NPROC,
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe and args.workload == "cli_roundtrip":
        parser.error("--setup-probe is for library workloads")

    env = pin_threads()
    try:
        check_sources()
        if args.setup_probe:
            print(json.dumps(setup_sample(args.workload, args.seed)))
            return 0
        reference = Reference(env)
        try:
            run = (run_cli if args.workload == "cli_roundtrip" else run_library)(args, env, reference)
        finally:
            reference.close()
        run["speed"] = reference.speed()
    except (SetupError, ImportError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    raw, notes = per_layer(run) if args.trace else end_to_end(run)
    metrics = stats.calibrate(raw, spec.UNITS, run["speed"])
    if args.trace:
        metrics["machine.speed"] = run["speed"]
    metrics = {name: metrics[name] for name in spec.UNITS if name in metrics}
    counted = run["records"] + run["extra_records"]
    failed = [r for r in counted if not r["ok"]]
    env_header = environment(args)
    print("# env " + json.dumps(env_header, sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine speed={run['speed']:.4f}; times are at reference speed")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {value:.6g} {spec.UNITS[name]}{note}")
    print(f"{'failed_frac':36s} {len(failed) / len(counted):.6g} ratio  ({len(failed)}/{len(counted)} problems)")
    for r in failed:
        print(f"# FAILED {json.dumps({k: v for k, v in r.items() if k != 'errors'})}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run["tracer"] is not None:
        run["tracer"].write_jsonl(OUT / f"{stem}.spans.jsonl")
    detail = {
        "env": env_header,
        "metrics": metrics,
        "raw_metrics": raw,
        "machine_speed": run["speed"],
        "reference_times_s": reference.times,
        "notes": notes,
        "setup": run["setup"],
        "records": run["records"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
