"""On-demand scaling report: one timing per command and size.

Usage, from the root of a checkout:

    python3 bench/scaling.py [--out PATH]

Times the CLI commands reduce, solve, verify and oracle once at n = 4, 8, 10,
and the library production route (parse_spec_dict, total_reduce_adjugate,
reduced_to_json, json.dumps) at every size including n = 16 and 32.  A cell
that cannot run is recorded as skipped with its reason.  This is not a gated
workload; it writes a file from which the ROADMAP baseline table can be
read (default: results/scaling.json next to this script).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import shutil
import sys
import time
from pathlib import Path

import checks
import specgen
import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SIZES = (4, 8, 10, 16, 32)
CLI_CAP = 12  # the CLI's default --nmax brute-force cap
ORACLE_TRIALS = 3
SEED = 0  # every cell's input is drawn from this seed


def shift_horizon(n: int) -> int:
    return 2 * n + 2


def build_spec(kind: str, n: int) -> dict:
    rng = random.Random(SEED * 1_000_003 + n)
    if kind in ("reduce", "verify"):
        return specgen.checked_shift_spec(rng, n, shift_horizon(n))
    if kind == "solve":
        return specgen.initial_value_spec(rng, n, shift_horizon(n))
    return specgen.derivative_spec(rng, n, n)


def run_cell(pkg, kind: str, n: int, scratch: Path) -> dict:
    cell = {"command": kind, "n": n}
    if kind != "library" and n > CLI_CAP:
        cell.update(status="skipped", reason=f"n > --nmax {CLI_CAP}: every CLI command runs the exponential minor route")
        return cell
    out = scratch / f"{kind}-{n}.json"
    if kind == "oracle":
        argv = ["oracle", "--nmin", str(n), "--nmax", str(n), "--trials", str(ORACLE_TRIALS), "--seed", str(SEED)]
        cell["trials"] = ORACLE_TRIALS
    else:
        spec = build_spec(kind, n)
        path = scratch / f"spec-{kind}-{n}.json"
        path.write_text(specgen.spec_text(spec), encoding="utf-8")
        argv = [kind, "--spec", str(path)]
        if spec["operator"] == "shift":
            cell["horizon"] = shift_horizon(n)
    if kind == "library":
        data = json.loads(path.read_text(encoding="utf-8"))
        start = time.perf_counter()
        parsed = pkg.specio.parse_spec_dict(data)
        reduced = pkg.reduction.total_reduce_adjugate(parsed.matrix, parsed.phi, parsed.operator)
        text = json.dumps(pkg.specio.reduced_to_json(reduced))
        seconds = time.perf_counter() - start
        code = 0
    else:
        start = time.perf_counter()
        code = pkg.cli.main([*argv, "--format", "json", "--out", str(out)])
        seconds = time.perf_counter() - start
        text = out.read_text(encoding="utf-8")
    flags_ok = checks.check_report(kind, code, text)[0] is None
    cell.update(status="ok", seconds=seconds, flags_ok=flags_ok)
    return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "results" / "scaling.json")
    args = parser.parse_args(argv)
    pkg = worker.import_package(ROOT / "src")
    scratch = BENCH_DIR / ".work" / "scaling"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cells = []
    try:
        for kind in ("reduce", "solve", "verify", "oracle", "library"):
            for n in SIZES:
                cell = run_cell(pkg, kind, n, scratch)
                print(json.dumps(cell), flush=True)
                cells.append(cell)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "seed": SEED,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(c.get("flags_ok", True) for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
