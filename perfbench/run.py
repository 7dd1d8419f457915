"""Closed-loop benchmark of the sievedops pipelines, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is taken from src/ next to this directory.
One client runs one op at a time and waits for it (a closed loop with one
client).  Each pass runs the workload's seeded op list in a fresh
interpreter; passes repeat until --seconds have gone by, and each op's
latency is its median over the passes.  `import sievedops.cli` is timed
after one untimed warm-up import that compiles the bytecode: in several
fresh interpreters before the passes and at the start of every pass; setup_s
is the median.

Op latencies are also given in `ref`: multiples of a fixed reference
computation that every pass runs between its ops (worker.reference_slice),
timed just before and just after each op.
The host's speed swings by half or more from minute to minute, and the
latencies in ref cancel most of that swing; the end-to-end metrics are in
ref, and the same figures in ms and s are printed beside them.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, trace_overhead_frac
and an `-X importtime` breakdown.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}; the lines before it restate
every figure with its unit, the op-list digest and the machine.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy
from scipy.special import betainc

from workloads import WORKLOADS, digest, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
MIN_PASSES = 3  # per kind of pass (untraced, traced)
CHILD_TIMEOUT_S = 150
EXACT_OPS = {"identity", "structure", "pair", "ode", "mapping", "gen_poly"}
IMPORT_PACKAGES = ("numpy", "scipy", "sievedops")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SIEVED_OPS_THREADS", "SIEVED_OPS_PURE_PYTHON", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def worker(args: list, env: dict) -> dict:
    proc = run_child([str(HERE / "worker.py"), *args], env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_breakdown(env: dict) -> dict:
    """Seconds of `import sievedops.cli` spent in each package's own modules."""
    proc = run_child(["-X", "importtime", "-c", "import sievedops.cli"], env)
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].split(":")[-1].strip().isdigit():
            continue
        module = parts[2].strip()
        top = module.split(".")[0]
        if top in totals:
            totals[top] += int(parts[0].split(":")[-1]) / 1e6
    return totals


def op_reference_ms(p: dict) -> list:
    """For each op of pass p, the mean of the reference slices run just
    before and just after it."""
    refs, at = p["ref_ms"], p["ref_at"]
    out = []
    for i in range(len(p["op_ms"])):
        after = bisect.bisect_right(at, i)  # the first slice run after op i
        out.append((refs[after - 1] + refs[after]) / 2)
    return out


def op_medians(passes: list, normalized: bool) -> list:
    """Each op's latency, as its median over the passes: in ref
    (normalized) or in milliseconds."""
    cols = zip(*([ms / ref for ms, ref in zip(p["op_ms"], op_reference_ms(p))]
                 if normalized else p["op_ms"] for p in passes))
    return [statistics.median(col) for col in cols]


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all the
    order statistics, with weights peaked at rank q*n.  It does not jump
    from one op to its neighbour when two ops trade places."""
    n = len(values)
    weights = numpy.diff(betainc(q * (n + 1), (1 - q) * (n + 1), numpy.arange(n + 1) / n))
    return float(numpy.dot(weights, sorted(values)))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "scipy": scipy_version,
            "commit": commit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    ops = generate(workload, seed)
    env = child_env()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops_path = tmp / "ops.json"
        ops_path.write_text(json.dumps(ops))
        worker(["import"], env)  # warm-up: bytecode compilation stays out of setup_s
        setup = [worker(["import"], env)["import_s"] for _ in range(SETUP_IMPORTS)]
        imports = [import_breakdown(env) for _ in range(IMPORTTIME_RUNS if trace else 0)]

        plain, traced, durations = [], [], []
        deadline = time.monotonic() + seconds
        while True:
            use_trace = trace and len(plain) > len(traced)
            t0 = time.monotonic()
            result = worker(["run", str(ops_path), str(tmp), "1" if use_trace else "0"], env)
            durations.append(time.monotonic() - t0)
            (traced if use_trace else plain).append(result)
            enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if enough and time.monotonic() + statistics.median(durations) > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ops, setup, imports, plain, traced


def summarize(workload, seed, seconds, trace) -> dict:
    ops, setup, imports, plain, traced = run(workload, seed, seconds, trace)
    passes = plain + traced
    problems = []
    for p in passes:
        if not Path(p["module"]).resolve().is_relative_to(SRC.resolve()):
            problems.append(f"sievedops imported from {p['module']}, not {SRC}")
        if len(p["ok"]) != len(ops):
            problems.append(f"a pass ran {len(p['ok'])} of {len(ops)} ops")
    if any(p["ok"] != passes[0]["ok"] for p in passes):
        problems.append("passes disagree op-for-op on pass/fail")
    fails_by_kind: dict = {}
    for op, ok in zip(ops, passes[0]["ok"]):
        if not ok:
            fails_by_kind[op["op"]] = fails_by_kind.get(op["op"], 0) + 1
    wrong_exact = sorted(k for k in fails_by_kind if k in EXACT_OPS)
    if wrong_exact:
        problems.append(f"exact checks failed: {wrong_exact}")

    # Every pass runs every op and the passes must agree, so each op counts
    # once: the counts depend on the seed alone, not on how many passes fit.
    attempted = len(ops)
    failed = passes[0]["ok"].count(False)
    per_op = op_medians(plain, normalized=True)
    per_op_ms = op_medians(plain, normalized=False)
    wall = sum(per_op)
    p95 = quantile(per_op, 0.95)
    # each pass's own import counts as a set-up sample too
    setup_samples = setup + [p["import_s"] for p in passes]
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_ref": (wall, "ref"),
        "op_p50_ref": (quantile(per_op, 0.50), "ref"),
        "op_p95_ref": (p95, "ref"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
    }
    # the same figures in host seconds; printed, not in the result line
    raw = {
        "wall_s": (sum(per_op_ms) / 1e3, "s"),
        "op_p50_ms": (quantile(per_op_ms, 0.50), "ms"),
        "op_p95_ms": (quantile(per_op_ms, 0.95), "ms"),
        "ref_slice_ms": (statistics.median(r for p in plain for r in p["ref_ms"]), "ms"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    per_layer = {}
    if trace:
        units = {"calls": "count", "self_s": "s", "out_deg_sum": "count",
                 "mul_per_call": "ratio", "newton_iters": "count",
                 "converged_frac": "ratio", "energy_per_iter": "ratio"}
        keys = set.intersection(*(set(p["layers"]) for p in traced))
        for key in sorted(keys):
            value = statistics.median(p["layers"][key] for p in traced)
            per_layer[key] = (value, units[key.rsplit(".", 1)[1]])
        for pkg in IMPORT_PACKAGES:
            per_layer[f"import.{pkg}_s"] = (statistics.median(i[pkg] for i in imports), "s")
        traced_wall = sum(op_medians(traced, normalized=True))
        per_layer["trace_overhead_frac"] = (traced_wall / wall - 1.0, "ratio")

    info = {
        "workload": workload, "seed": seed, "ops": len(ops), "digest": digest(ops),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": len(setup_samples),
        "ref_slices_per_pass": statistics.median(len(p["ref_ms"]) for p in passes),
        "fails_by_kind": fails_by_kind,
        "errors_by_type": sorted(set(passes[0]["errors"].values())),
        "op_samples": len(per_op),
        "op_samples_beyond_p95": sum(v > p95 for v in per_op),
        "backend": passes[0]["backend"], "numpy": passes[0]["numpy"],
        **machine(),
    }
    for name, (value, unit) in {**end_to_end, **raw, **per_layer}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    metrics = per_layer if trace else end_to_end
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sievedops" / "__init__.py").is_file():
        print(f"perfbench: no sievedops package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = summarize(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
