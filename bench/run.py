"""opreduce benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduce-checked --seed 1 --seconds 20 --trace 0

The run generates its spec files from the seed, measures set-up time (fresh
interpreters importing ``opreduce.cli``, before and after the workload),
and starts ``worker.py`` in a fresh process that repeats the workload's
fixed command list, single threaded and closed loop, for the rest of the
``--seconds`` seconds.  Every output is checked
against the reference digests.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  A table
of every metric comes first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SETUP_SAMPLES = 7  # taken before the worker starts, and again after it ends
SETUP_KERNEL_CALLS = 3  # calibration kernel calls after each counted import
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
import calibrate  # noqa: E402
import specgen  # noqa: E402
import worker  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}


def package_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_samples(env: dict[str, str], count: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import opreduce.cli.

    Returns the measured times and the same times in reference-speed
    seconds, each scaled by calibration kernel calls made right after it.
    """
    argv = [sys.executable, "-c", "import opreduce.cli"]
    measured, scaled = [], []
    for k in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT)
        # wait() with a timeout polls with sleeps of up to 50 ms, which would
        # quantise the sample; a timer kills a hung child instead.
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"importing opreduce.cli failed with exit code {code}")
        if k:  # the first import may compile bytecode; it is not counted
            measured.append(elapsed)
            scaled.append(elapsed * calibrate.scale(calibrate.sample(SETUP_KERNEL_CALLS)))
    return measured, scaled


def run_worker(config: dict, run_dir: Path, env: dict[str, str]) -> dict:
    config_path, result_path = run_dir / "config.json", run_dir / "result.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), str(config_path), str(result_path)]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def print_table(rows: list[tuple[str, float, str]], notes: list[str]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    for note in notes:
        print(f"# {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "opreduce" / "cli.py").is_file():
        print(f"error: no opreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        commands = specgen.generate(args.workload, args.seed, run_dir / "specs")
        env = package_env()
        probe_start = time.perf_counter()
        setup, setup_scaled = [], []
        if not args.trace:
            setup, setup_scaled = setup_samples(env, SETUP_SAMPLES)
        # The set-up probes after the worker take about as long as those before it.
        worker_seconds = max(1.0, args.seconds - 2 * (time.perf_counter() - probe_start))
        config = {
            "root": str(ROOT),
            "workload": args.workload,
            "commands": [
                {"kind": c.kind, "pool": c.pool, "spec": str(c.spec) if c.spec else None, "oracle_seed": c.oracle_seed}
                for c in commands
            ],
            "seconds": worker_seconds,
            "trace": args.trace,
            "out_dir": str(run_dir / "out"),
            "spans_path": str(WORK_DIR / f"spans-{args.workload}.jsonl"),
        }
        result = run_worker(config, run_dir, env)
        if not args.trace:
            measured, scaled = setup_samples(env, SETUP_SAMPLES)
            setup += measured
            setup_scaled += scaled
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    notes = [
        f"workload {args.workload}, seed {args.seed}, pool items {sorted({c.pool for c in commands})}",
        f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} commands failed the output check)",
    ]
    notes += [f"failure: {line}" for line in result["failures"]]
    if args.trace:
        values = result["layer_metrics"]
        metrics = {name: {"value": values[name], "unit": worker.unit_of(name)} for name in sorted(values)}
        notes.append(
            f"{result['traced_passes']} traced passes; per-layer values are means per traced pass; "
            f"self times add up to the root span for all {result['additivity_checked']} traced commands"
        )
    else:
        raw = dict(result["raw"], setup_s=statistics.median(setup))
        values = dict(result["metrics"], setup_s=statistics.median(setup_scaled))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        notes += [
            f"{result['passes']} untraced passes of {len(commands)} commands; wall_s is the mean pass; "
            f"cmd_p50_s is the median of {result['latencies']} command latencies",
            f"setup_s is the median of {len(setup)} fresh interpreters importing opreduce.cli, "
            "half before the workload and half after",
            f"timings are in reference-speed seconds: each measured time x {calibrate.REFERENCE_S} s / "
            "mean time of the calibration kernel calls made while it ran (worker) or right after it (set-up); "
            f"the worker's {result['kernel_samples']} kernel calls took {result['kernel_s']:.6g} s on average",
            "measured seconds: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        ]
    print_table([(name, m["value"], m["unit"]) for name, m in metrics.items()], notes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
