"""Correctness check of one command's output.

A command passes when its exit code is 0, the report's own flags are true,
and the digest of its mathematical content equals the reference digest in
``reference.json``.  The digest covers only the mathematical content --
``char_poly``, the evaluated right-hand sides, the trajectories, the
residuals, and for ``oracle`` the identity-suite counts -- so a report that
gains new fields still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Report flags that must be true, per command kind.
FLAGS = {
    "reduce": ("route_agreement",),
    "verify": ("route_agreement", "all_zero"),
    "solve": ("route_agreement", "all_zero"),
    "oracle": ("all_passed",),
    "library": (),
}


def _residuals(blocks: list[dict]) -> list[dict]:
    return [block["residual"] for block in blocks]


def math_content(kind: str, report: dict) -> dict:
    """The part of a report that the reference digest covers."""
    if kind in ("reduce", "library"):
        return {
            "char_poly": report["char_poly"],
            "rhs": [block["evaluated"] for block in report["rhs"]],
        }
    if kind == "verify":
        return {"char_poly": report["char_poly"], "residuals": _residuals(report["residuals"])}
    if kind == "solve":
        return {
            "char_poly": report["char_poly"],
            "trajectories": [[t["origin"], t["values"]] for t in report["trajectories"]],
            "residuals": _residuals(report["verification"]),
        }
    if kind == "oracle":
        return {"checks": report["checks"]}
    raise ValueError(f"unknown command kind {kind!r}")


def content_digest(kind: str, report: dict) -> str:
    canonical = json.dumps(math_content(kind, report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_report(kind: str, exit_code: int, text: str) -> tuple[str | None, dict | None]:
    """Exit code and the report's own flags: (reason it fails or None, parsed report)."""
    if exit_code != 0:
        return f"exit code {exit_code}", None
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"malformed report: {exc}", None
    if not isinstance(report, dict):
        return "malformed report: not a JSON object", None
    for flag in FLAGS[kind]:
        if report.get(flag) is not True:
            return f"flag {flag} is not true", report
    return None, report


def check_output(kind: str, exit_code: int, text: str, expected: str | None) -> str | None:
    """None when the output passes, else the reason it fails."""
    reason, report = check_report(kind, exit_code, text)
    if reason is not None:
        return reason
    if expected is None:
        return "no reference digest"
    try:
        digest = content_digest(kind, report)
    except (KeyError, TypeError) as exc:
        return f"malformed report: missing {exc}"
    if digest != expected:
        return "content digest differs from the reference"
    return None


def load_reference(workload: str) -> dict[str, str]:
    """Reference digests of one workload, by command ident."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"][workload]
