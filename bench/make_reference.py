"""Write reference.json: the content digest of every pool item's outputs.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

Runs each command of every pool item of every workload once, untimed, and
stores the digest of each output's mathematical content (see checks.py).
The stored file was produced at the commit that
introduced the benchmark; regenerate it only when the mathematics of a
report is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import specgen
import worker

ROOT = Path(__file__).resolve().parent.parent


def pool_digests(pkg, workload_name: str, scratch: Path) -> dict[str, str]:
    """Digest of every output of every pool item of one workload."""
    commands = specgen.commands_for(workload_name, list(range(specgen.POOL_SIZE)), scratch / "specs")
    digests = {}
    for command in commands:
        record = worker.Workload(pkg, [command], scratch / "out").run_pass(0, None)
        kind, ident, code, path = record["outputs"][0]
        text = Path(path).read_text(encoding="utf-8")
        Path(path).unlink()
        reason, report = checks.check_report(kind, code, text) if isinstance(code, int) else (code, None)
        if reason is not None:
            raise SystemExit(f"{workload_name} {ident}: {reason}")
        digests[ident] = checks.content_digest(kind, report)
        print(f"{workload_name} {ident} ok", flush=True)
    return digests


def main() -> int:
    pkg = worker.import_package(ROOT / "src")
    stored = {"digests": {}, "pool_size": specgen.POOL_SIZE}
    scratch = Path(__file__).resolve().parent / ".work" / "reference"
    (scratch / "out").mkdir(parents=True, exist_ok=True)
    try:
        for name in specgen.WORKLOADS:
            stored["digests"][name] = pool_digests(pkg, name, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
