#!/usr/bin/env python3
"""trisol benchmark: time to a verified solution, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload p1 --seed 0 --seconds 8 --trace 0

Workloads are fixed CLI calls (see WORKLOADS and perfbench/README.md).  Each
op runs `trisol.cli.main` in its own child process, one at a time (a closed
loop with one client), with the BLAS thread pool pinned to 1.  Every op is
checked: a solve must certify u-, u+, u* with the expected Morse indices and
residuals recomputed from the CSVs; an oracle sweep must find the expected
branches.

--trace 0 runs ops for --seconds seconds and reports the end-to-end metrics
as medians over the ops.  --trace 1 runs a traced op and an untraced op
(plus a second traced op in the first traced run of the sources) and
reports the per-layer metrics of tracer.py; traced counts must repeat
exactly.  --workload all runs every workload in turn.

Every seed runs the presets as shipped (lambda = 60); --seed is recorded
with the results.  The path search's iteration count is chaotic in lambda
(perfbench/README.md has the measurements), so inputs drawn from the seed
would make every end-to-end metric spread far beyond its bound.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `correct` is false when an op exits 0 with outputs that
fail the checks, crashes with a traceback, when two traced runs disagree,
or when the stage spans of a traced p1 or p2 op cover less than 95% of its
wall time; an op that stops with a named error and exit code 1 or 2 is
counted in `failed` and charged the acceptance wall budget in wall_s.  The
full record, with the environment, goes to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import DETERMINISTIC, METRICS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

# name -> (CLI arguments, kind of check, acceptance wall budget in seconds)
WORKLOADS = {
    "p1": (["solve", "--preset", "p1-interval"], "solve", 60.0),
    "p1-511": (["solve", "--preset", "p1-interval", "--n", "511"], "solve", 60.0),
    "p2": (["solve", "--preset", "p2-square"], "solve", 300.0),
    "oracle": (["oracle", "--preset", "p1-interval"], "oracle", 60.0),
}
LAMBDA = 60.0           # both presets solve -lap u = 60 u - u^3
SETUP_SAMPLES = 30      # set-up times per run: op spawns, topped up by probes
PROBES_BEFORE = 10      # import-only probes before the first op
RUN_CAP_S = 150.0       # start no op that could end past this point of a run
CHILD_DEADLINE_S = 170.0
CLOSURE_MIN = 0.95      # stage spans / traced wall on p1 and p2
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# -- inputs ----------------------------------------------------------------

def cli_args(workload: str, op_dir: Path) -> list[str]:
    return list(WORKLOADS[workload][0]) + ["--out", str(op_dir / "out")]


# -- checks ----------------------------------------------------------------

def g(t):
    return LAMBDA * t - t * t * t


def dirichlet_index(lengths: list[float], mu: float) -> int:
    """Number of continuum Dirichlet eigenvalues <= mu, with multiplicity
    (the definition of trisol.spectrum.sandwich_index, computed independently)."""
    modes = [range(1, int(math.sqrt(mu) * L / math.pi) + 2) for L in lengths]
    return sum(1 for mode in itertools.product(*modes)
               if sum((m * math.pi / L) ** 2 for m, L in zip(mode, lengths)) <= mu)


def residual_sup(path: Path, grid: dict) -> tuple[float, float]:
    """sup |-lap u - g(u)| and sup |u| of a field CSV (boundary rows included)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    u = data[:, -1].reshape([n + 2 for n in grid["counts"]])
    inner = u[(slice(1, -1),) * u.ndim]
    lap = np.zeros_like(inner)
    for axis, h in enumerate(grid["spacings"]):
        lo = [slice(1, -1)] * u.ndim
        hi = [slice(1, -1)] * u.ndim
        lo[axis], hi[axis] = slice(None, -2), slice(2, None)
        lap += (2.0 * inner - u[tuple(lo)] - u[tuple(hi)]) / (h * h)
    return float(np.max(np.abs(lap - g(inner)))), float(np.max(np.abs(u)))


def check_solve(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    problems = []
    false_flags = sorted(k for k, v in report["flags"].items() if v is not True)
    if false_flags:
        problems.append(f"flags not true: {false_flags}")
    grid = report["grid"]
    k = dirichlet_index(grid["lengths"], LAMBDA)   # g'(0) = lambda
    indices = [p["morse_index"] for p in report["points"]]
    if indices != [0, 0, 1, k]:
        problems.append(f"Morse indices {indices}, expected [0, 0, 1, {k}]")
    root = LAMBDA ** 0.5
    scale = max(1.0, float(np.max(np.abs(g(np.linspace(-root, root, 4001))))))
    for point in report["points"]:
        res, sup = residual_sup(out / point["file"], grid)
        if not res <= 1e-8 * scale:
            problems.append(f"{point['file']}: residual {res:.3e} > {1e-8 * scale:.3e}")
        if not sup <= root + 1e-9:
            problems.append(f"{point['file']}: sup |u| = {sup!r} > a+ = {root!r}")
    return problems


def check_oracle(out: Path) -> list[str]:
    branches = json.loads((out / "oracle.json").read_text())["branches"]
    problems = []
    if len(branches) < 3:
        problems.append(f"{len(branches)} branches, expected at least 3")
    if not any(b["slope"] > 0 and b["interior_sign_changes"] == 0 for b in branches):
        problems.append("no one-sign positive branch")
    for b in branches:
        if not abs(b["endpoint"]) <= 1e-12 * max(1.0, b["amplitude"]):
            problems.append(f"branch at slope {b['slope']!r}: endpoint {b['endpoint']:.3e}")
    return problems


CHECKS = {"solve": check_solve, "oracle": check_oracle}


# -- one op ----------------------------------------------------------------

def spawn(op_dir: Path, args: list[str], trace: bool, probe: bool,
          deadline: float) -> dict:
    """Run child.py once and wait for it; returns its record plus the
    parent's view: exit code, set-up time, peak RSS and stderr tail."""
    result_path = op_dir / "result.json"
    flags = (["--trace"] if trace else []) + (["--probe"] if probe else [])
    # bytecode is cached, as for an installed package: the uncounted first
    # spawn of a run writes it
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PIN)
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), *flags, "--", *args],
            cwd=ROOT, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        ended = time.monotonic()
    stderr = (op_dir / "stderr.txt").read_text(errors="replace")
    try:
        record = json.loads(result_path.read_text())
    except (OSError, ValueError):
        record = {}
    record.update(exit_code=proc.returncode, timed_out=timed_out,
                  rss_mb=usage.ru_maxrss / 1024.0, elapsed_s=ended - spawned,
                  traceback="Traceback (most recent call last)" in stderr,
                  stderr_tail=stderr.strip().splitlines()[-1] if stderr.strip() else "")
    if "main_entered" in record:
        record["setup_s"] = record.pop("main_entered") - spawned
    return record


def run_op(workload: str, op_dir: Path, trace: bool,
           deadline: float) -> dict:
    """One checked op.  status is passed, failed (a named error or failed
    flags, exit 1 or 2) or wrong (exit 0 with bad outputs, or a crash)."""
    _, kind, budget = WORKLOADS[workload]
    op_dir.mkdir(parents=True, exist_ok=True)
    try:
        op = spawn(op_dir, cli_args(workload, op_dir), trace, False, deadline)
        rc = op["exit_code"]
        if op["timed_out"]:
            op["status"], op["problems"] = "failed", ["killed at the run deadline"]
        elif rc != op.get("rc") or op["traceback"] or rc not in (0, 1, 2):
            op["status"], op["problems"] = "wrong", [f"crash: {op['stderr_tail']}"]
        elif rc == 0:
            try:
                op["problems"] = CHECKS[kind](op_dir / "out")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op["problems"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
            op["status"] = "wrong" if op["problems"] else "passed"
        else:
            op["status"], op["problems"] = "failed", [op["stderr_tail"]]
        out = op_dir / "out"
        op["bytes_written"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    # a failure can never read as a speed-up: it is charged the budget
    wall = op.get("wall_s", op["elapsed_s"])
    op["charged_wall_s"] = wall if op["status"] == "passed" else budget + wall
    return op


def describe(i: int, op: dict) -> str:
    text = (f"op {i}: {op['status']} exit {op['exit_code']} "
            f"wall {op.get('wall_s', float('nan')):.4f} s "
            f"setup {op.get('setup_s', float('nan')):.4f} s rss {op['rss_mb']:.1f} MB")
    if op["status"] != "passed":
        text += f" error {op.get('error')}: {'; '.join(op['problems'])}"
    return text


def probe_setups(work: Path, count: int, deadline: float) -> list[float]:
    """Set-up times of spawns that import trisol and stop before main."""
    setups = []
    for i in range(count):
        op_dir = work / f"probe{i}"
        op_dir.mkdir(parents=True, exist_ok=True)
        try:
            probe = spawn(op_dir, [], False, True, deadline)
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        if probe["exit_code"] != 0 or "setup_s" not in probe:
            raise RuntimeError(f"set-up probe failed: {probe['stderr_tail']}")
        setups.append(probe["setup_s"])
    return setups


# -- runs ------------------------------------------------------------------

def measure(workload: str, seconds: int, work: Path,
            started: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics: ops in a closed loop for `seconds` seconds.

    setup_s is the median of at least SETUP_SAMPLES set-up times: those of
    the ops and of import-only probes, PROBES_BEFORE of them before the ops
    and the rest after, so that a single slow spawn cannot move it.  The
    probes' time is not part of the `seconds` the ops run for.
    """
    deadline = started + CHILD_DEADLINE_S
    probe_setups(work, 1, deadline)     # fills bytecode caches; not counted
    setups = probe_setups(work, PROBES_BEFORE, deadline)
    ops: list[dict] = []
    t0 = time.monotonic()
    while True:
        op = run_op(workload, work / f"op{len(ops)}", False, deadline)
        ops.append(op)
        print(describe(len(ops), op), flush=True)
        longest = max(o["elapsed_s"] for o in ops)
        now = time.monotonic()
        if now - t0 >= seconds or now - started + longest > RUN_CAP_S:
            break
    setups += [op["setup_s"] for op in ops if "setup_s" in op]
    setups += probe_setups(work, max(SETUP_SAMPLES - len(setups), 0), deadline)
    metrics = {
        "wall_s": (statistics.median(op["charged_wall_s"] for op in ops), "s", len(ops)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in ops), "MB", len(ops)),
    }
    failed = sum(op["status"] != "passed" for op in ops)
    print(f"failed_frac = {failed / len(ops)} ({failed} of {len(ops)} ops)")
    return metrics, ops


def measure_traced(workload: str, work: Path, started: float,
                   counts_file: Path) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics: a traced op, an untraced op, a second traced op.

    The counts are checked against counts_file, which holds those of the
    first traced run of the same sources and numerical stack; only that
    first run makes the second traced op, and it writes counts_file only
    when its two traced ops agree.  An op that could not end by RUN_CAP_S
    is skipped, with the ones after it: without the untraced op
    trace.overhead_s is absent, and without the second traced op no
    counts_file is written.
    """
    deadline = started + CHILD_DEADLINE_S
    probe_setups(work, 1, deadline)
    ops: list[dict] = []
    layers, problems = [], []
    plan = (True, False) if counts_file.is_file() else (True, False, True)
    for i, trace in enumerate(plan):
        if ops and time.monotonic() - started + max(op["elapsed_s"] for op in ops) > RUN_CAP_S:
            print(f"op {i + 1} and later skipped: they could overrun the run")
            break
        op = run_op(workload, work / f"op{i}", trace, deadline)
        op["traced"] = trace
        ops.append(op)
        print(describe(i + 1, op) + (" (traced)" if trace else ""), flush=True)
        if not trace:
            continue
        if "trace" not in op:
            problems.append(f"op {i + 1} left no trace")
            continue
        stages = sum(op["trace"]["stages"].values())
        values = layer_metrics(op["trace"])
        values["cli.bytes_written"] = op["bytes_written"]
        values["trace.unaccounted_s"] = op["wall_s"] - stages
        op["closure"] = stages / op["wall_s"]
        layers.append(values)
    counts = [{k: v[k] for k in DETERMINISTIC if k in v} for v in layers]
    first_run = not counts_file.is_file()
    if not first_run:
        counts.append(json.loads(counts_file.read_text()))
    agree = True
    for other in counts[1:]:
        if other != counts[0]:
            agree = False
            problems.append("traced counts differ between two runs: " + ", ".join(
                f"{k} {counts[0].get(k)} vs {other.get(k)}"
                for k in sorted(set(counts[0]) | set(other))
                if counts[0].get(k) != other.get(k)))
    if first_run and len(counts) >= 2 and agree:
        counts_file.write_text(json.dumps(counts[0]))
    metrics = {}
    if layers:
        for name in layers[0]:
            metrics[name] = statistics.median(v[name] for v in layers if name in v)
        traced = [op["wall_s"] for op in ops if op["traced"] and "wall_s" in op]
        untraced = [op["wall_s"] for op in ops if not op["traced"] and "wall_s" in op]
        if traced and untraced:
            metrics["trace.overhead_s"] = statistics.median(traced) - untraced[0]
    units = {name: unit for name, (unit, _, _) in METRICS.items()}
    units.update({"cli.bytes_written": "bytes", "trace.overhead_s": "s",
                  "trace.unaccounted_s": "s"})
    absent = sorted(set(units) - set(metrics))
    if absent:
        print(f"absent: {absent}; names not found: "
              f"{ops[0].get('trace', {}).get('missing')}")
    closures = [op["closure"] for op in ops if "closure" in op]
    if closures:
        print("stage closure (stage spans / traced wall): "
              + ", ".join(f"{c:.4f}" for c in closures))
        if workload in ("p1", "p2") and min(closures) < CLOSURE_MIN:
            problems.append(f"stage spans cover {min(closures):.4f} of the traced wall, "
                            f"less than {CLOSURE_MIN}")
    return {k: (v, units[k], len(layers)) for k, v in metrics.items()}, ops, problems


# -- environment -----------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 of the package sources, which names the code even outside git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PIN,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "seed": seed,
    }


# -- entry point -----------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    env = environment(seed)
    print(f"workload {workload} seed {seed} trace {int(trace)} env {json.dumps(env)}")
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    problems: list[str] = []
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    if trace:
        # counts react to rounding, so they are keyed by the numerical stack too
        stack = json.dumps([env[k] for k in ("src_sha256", "python", "numpy", "blas")])
        key = hashlib.sha256(stack.encode()).hexdigest()[:16]
        counts_file = results / f"counts-{workload}-{key}.json"
        metrics, ops, problems = measure_traced(workload, work, started, counts_file)
    else:
        metrics, ops = measure(workload, seconds, work, started)
    shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload} {name} = {value!r} {unit} (median of {samples})")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems and all(op["status"] != "wrong" for op in ops),
        "attempted": len(ops),
        "failed": sum(op["status"] != "passed" for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for op in ops:
        op.pop("trace", None)
    (results / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps({"workload": workload, "env": env, "result": result,
                    "problems": problems, "ops": ops}, indent=1, default=str))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "trisol" / "cli.py").is_file():
        print(f"no trisol sources under {ROOT / 'src'}; run from a trisol checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
