"""Command-line front end.

Subcommands: reduce, solve, cramer, oracle, verify.  Each ``cmd_*`` computes
a report payload and whether its identities held, and nothing else; its
parser registers it beside its text renderer, which yields the text report
piece by piece.  `main` loads the spec, opens the report stream, and writes
the payload as JSON (machine) or text (human) while it is encoded, so no
encoded copy of a whole report is ever held; then it picks the exit code.
All numbers are rational literal strings in both formats.  Exit codes: 0
success, 2 input error, or a report that cannot be written at any point (a
closed stdout pipe included), 3 mathematical degeneracy (singular matrix),
4 identity-suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from fractions import Fraction

from .cauchy import reduce_checked, solve_cauchy, verify_total_reduction
from .exactcore import Matrix, mat_vec
from .faddeev import adjugate_coeffs, adjugate_coeffs_minors, cayley_hamilton_check
from .operators import OperatorKind
from .reduction import (
    SingularMatrixError,
    cramer_solve,
    cramer_via_zero_reduction,
    lemma1_check,
    lemma2_check,
)
from .specio import (
    SpecError,
    element_to_json,
    load_spec,
    reduced_to_json,
    residual_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_IDENTITY = 4

BRUTE_FORCE_CAP = 12


def _operator_poly_text(cp) -> str:
    text = f"A^{cp.n}"
    for k in range(1, cp.n + 1):
        dk = cp.coefficient(k)
        if dk == 0:
            continue
        sign = "-" if dk < 0 else "+"
        power = cp.n - k
        base = "I" if power == 0 else f"A^{power}"
        text += f" {sign} {abs(dk)!s}*{base}"
    return text


def _listed(values) -> Iterator[str]:
    """``", ".join(values)`` a piece at a time, so that a long list is never held joined."""
    for k, value in enumerate(values):
        if k:
            yield ", "
        yield value


def _element_text(payload: dict) -> Iterator[str]:
    if payload["kind"] == "sequence":
        yield f"sequence(origin={payload['origin']}): "
        yield from _listed(payload["values"])
    elif payload["coeffs"]:
        yield "polynomial(ascending): "
        yield from _listed(payload["coeffs"])
    else:
        yield "polynomial: 0"


def _reduce_text(payload: dict) -> Iterator[str]:
    yield f"totally reduced system, n = {payload['n']}, operator = {payload['operator']}\n"
    yield f"left-hand side (all variables): {payload['lhs']}\n"
    for block in payload["rhs"]:
        i = block["variable"]
        yield f"equation for x{i}:\n"
        for term in block["terms"]:
            sign = "+" if term["sign"] > 0 else "-"
            yield (
                f"  {sign} delta_{term['order']}^{i}(B; A^{term['power']} phi)"
                f"  [coeffs: {', '.join(term['coeffs'])}]\n"
            )
        yield "  evaluated rhs: "
        yield from _element_text(block["evaluated"])
        yield "\n"
    yield f"route agreement: {str(payload['route_agreement']).lower()}\n"


def _residual_text(payload: dict, residuals: list, extra=()) -> Iterator[str]:
    """Left-hand side, one status line per residual, extra lines, then the verdicts."""
    yield f"left-hand side: {payload['lhs']}\n"
    for block in residuals:
        window = block.get("window")
        where = f" on [{window['origin']}, {window['origin'] + window['length'] - 1}]" if window else ""
        status = "zero" if block["is_zero"] else "NONZERO"
        yield f"residual x{block['variable']}{where}: {status}\n"
    yield from extra
    yield f"route agreement: {str(payload['route_agreement']).lower()}\n"
    yield f"all residuals zero: {str(payload['all_zero']).lower()}\n"


def _solve_text(payload: dict) -> Iterator[str]:
    yield f"initial-value solution, n = {payload['n']}, t0 = {payload['t0']}, horizon = {payload['horizon']}\n"
    for traj in payload["trajectories"]:
        yield f"x{traj['variable']}: "
        yield from _listed(traj["values"])
        yield "\n"
    derived = (
        f"derived conditions x{block['variable']} (powers 1..{len(block['values'])}): "
        f"{', '.join(block['values'])} (match trajectory: {str(block['matches_trajectory']).lower()})\n"
        for block in payload["derived_conditions"]
        if block["values"]
    )
    yield from _residual_text(payload, payload["verification"], derived)


def _cramer_text(payload: dict) -> Iterator[str]:
    yield f"cramer solution of B x + phi = 0, n = {payload['n']}\n"
    yield f"x: {', '.join(payload['solution'])}\n"
    yield f"residual B x + phi: {', '.join(payload['residual'])}\n"
    yield f"zero-operator pipeline agreement: {str(payload['pipeline_agreement']).lower()}\n"


def _oracle_text(payload: dict) -> Iterator[str]:
    yield (
        f"identity suites: n in {payload['nmin']}..{payload['nmax']}, "
        f"{payload['trials']} trials, seed {payload['seed']}\n"
    )
    for name, result in payload["checks"].items():
        yield f"{name}: pass {result['pass']}, fail {result['fail']}\n"
    yield f"all passed: {str(payload['all_passed']).lower()}\n"


def _verify_text(payload: dict) -> Iterator[str]:
    yield f"verification of candidate solution, n = {payload['n']}\n"
    yield from _residual_text(payload, payload["residuals"])


@contextmanager
def _report_stream(path: str):
    """stdout for ``-``, else ``path`` opened for writing before the command runs.

    One handler covers the destination's whole life: opening it, every
    write made in the block, and the closing flush (stdout) or close (a
    file), which can fail with the bytes a failed write left pending.  Any
    such `OSError` is raised as `SpecError` naming ``path``, in place of
    whatever else was on its way out.  Code in the block does no other I/O.
    """
    try:
        if path == "-":
            stream = sys.stdout
            if stream is None:
                raise SpecError("cannot write report to -: standard output is closed")
            finish = stream.flush
        else:
            stream = open(path, "w", encoding="utf-8")
            finish = stream.close
        try:
            yield stream
        finally:
            finish()
    except OSError as exc:
        raise SpecError(f"cannot write report to {path}: {exc}") from None


@contextmanager
def _no_int_str_digit_limit():
    """Lift CPython's int/str digit limit for the block, then restore it."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def cmd_reduce(args, spec) -> tuple[dict, bool]:
    reduced, agreement = reduce_checked(spec.matrix, spec.phi, spec.operator)
    payload = {
        "command": "reduce",
        "n": spec.n,
        "operator": spec.operator.value,
        "lhs": _operator_poly_text(reduced.cp),
        **reduced_to_json(reduced),
        "route_agreement": agreement,
    }
    return payload, agreement


def cmd_solve(args, spec) -> tuple[dict, bool]:
    if spec.operator is not OperatorKind.SHIFT:
        raise SpecError("solve needs the shift operator")
    if spec.initial is None:
        raise SpecError("spec field initial: missing (required by solve)")
    horizon = args.horizon if args.horizon is not None else spec.horizon
    if horizon is None:
        raise SpecError("spec field horizon: missing (required by solve; or pass --horizon)")
    t0, x0 = spec.initial
    if spec.phi.entries[0].origin != t0:
        raise SpecError("free column origin must match t0")
    trajectories, verification, derived = solve_cauchy(spec.matrix, spec.phi, x0, horizon)
    derived_blocks = []
    ok_derived = True
    for i in range(1, spec.n + 1):
        values = derived[i - 1]
        matches = all(
            values[j - 1] == trajectories[i - 1].value_at(t0 + j) for j in range(1, spec.n)
        )
        ok_derived = ok_derived and matches
        derived_blocks.append(
            {
                "variable": i,
                "values": list(map(str, values)),
                "matches_trajectory": matches,
            }
        )
    payload = {
        "command": "solve",
        "n": spec.n,
        "operator": spec.operator.value,
        "t0": t0,
        "horizon": horizon,
        "lhs": _operator_poly_text(verification.reduced.cp),
        "char_poly": list(map(str, verification.reduced.cp.d)),
        "trajectories": [
            {"variable": i + 1, **{k: v for k, v in element_to_json(trajectories[i]).items() if k != "kind"}}
            for i in range(spec.n)
        ],
        "verification": [residual_to_json(i, r) for i, r in enumerate(verification.residuals, start=1)],
        "derived_conditions": derived_blocks,
        "route_agreement": verification.route_agreement,
        "all_zero": verification.all_zero(),
    }
    return payload, verification.all_zero() and ok_derived


def cmd_cramer(args, spec) -> tuple[dict, bool]:
    if spec.operator is not OperatorKind.ZERO:
        raise SpecError("cramer needs the zero operator")
    constants = []
    for idx, element in enumerate(spec.phi):
        if element.degree() > 0:
            raise SpecError(f"spec field phi[{idx}]: cramer needs constant entries")
        constants.append(element.evaluate(0))
    solution = cramer_solve(spec.matrix, constants)
    pipeline = cramer_via_zero_reduction(spec.matrix, constants)
    residual = tuple(a + c for a, c in zip(mat_vec(spec.matrix, solution), constants))
    agreement = solution == pipeline and all(r == 0 for r in residual)
    payload = {
        "command": "cramer",
        "n": spec.n,
        "solution": list(map(str, solution)),
        "residual": list(map(str, residual)),
        "pipeline_agreement": agreement,
    }
    return payload, agreement


def _random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n))


def cmd_oracle(args) -> tuple[dict, bool]:
    if args.nmin < 1 or args.nmin > args.nmax:
        raise SpecError(f"invalid dimension range {args.nmin}..{args.nmax}")
    if args.nmax > BRUTE_FORCE_CAP:
        raise SpecError(f"dimension range exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    if args.trials < 1:
        raise SpecError("trials must be >= 1")
    rng = random.Random(args.seed)
    span = args.nmax - args.nmin + 1
    checks = {
        "lemma1": {"pass": 0, "fail": 0},
        "lemma2": {"pass": 0, "fail": 0},
        "char_poly_routes": {"pass": 0, "fail": 0},
        "cayley_hamilton": {"pass": 0, "fail": 0},
    }

    def record(name: str, ok: bool) -> None:
        checks[name]["pass" if ok else "fail"] += 1

    for trial in range(args.trials):
        n = args.nmin + trial % span
        b = _random_matrix(rng, n)
        ac, mc = adjugate_coeffs(b), adjugate_coeffs_minors(b)
        record("lemma1", all(lemma1_check(b, mc, k) for k in range(1, n + 1)))
        record("lemma2", all(lemma2_check(ac, mc, k) for k in range(n)))
        reference = mc.cp.d
        if args.inject_fault:
            reference = (-reference[0],) + reference[1:]
        record("char_poly_routes", ac.cp.d == reference)
        record("cayley_hamilton", cayley_hamilton_check(b, ac))

    all_passed = all(result["fail"] == 0 for result in checks.values())
    payload = {
        "command": "oracle",
        "seed": args.seed,
        "trials": args.trials,
        "nmin": args.nmin,
        "nmax": args.nmax,
        "checks": checks,
        "all_passed": all_passed,
    }
    return payload, all_passed


def cmd_verify(args, spec) -> tuple[dict, bool]:
    if spec.x is None:
        raise SpecError("spec field x: missing (required by verify)")
    report = verify_total_reduction(spec.matrix, spec.x, spec.phi, spec.operator)
    payload = {
        "command": "verify",
        "n": spec.n,
        "operator": spec.operator.value,
        "lhs": _operator_poly_text(report.reduced.cp),
        "char_poly": list(map(str, report.reduced.cp.d)),
        "residuals": [residual_to_json(i, r) for i, r in enumerate(report.residuals, start=1)],
        "route_agreement": report.route_agreement,
        "all_zero": report.all_zero(),
    }
    return payload, report.all_zero()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opreduce",
        description="Exact total reduction of linear first-order operator systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_spec=True, enumerates=False):
        """--spec for a spec command, --out and --format; --nmax for one that enumerates minors."""
        if needs_spec:
            p.add_argument("--spec", required=True, help="path to the system spec file (JSON)")
        p.add_argument("--out", default="-", help="output path, or - for stdout")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if enumerates:
            p.add_argument("--nmax", type=int, default=BRUTE_FORCE_CAP, help="brute-force dimension cap")

    p_reduce = sub.add_parser("reduce", help="emit the totally reduced system (both routes)")
    add_common(p_reduce, enumerates=True)
    p_reduce.set_defaults(func=cmd_reduce, text=_reduce_text)

    p_solve = sub.add_parser("solve", help="iterate a shift-kind system and verify the reduction")
    add_common(p_solve, enumerates=True)
    p_solve.add_argument("--horizon", type=int, default=None, help="trajectory length override")
    p_solve.set_defaults(func=cmd_solve, text=_solve_text)

    p_cramer = sub.add_parser("cramer", help="solve B x + phi = 0 for a zero-operator spec")
    add_common(p_cramer)
    p_cramer.set_defaults(func=cmd_cramer, text=_cramer_text)

    p_oracle = sub.add_parser("oracle", help="run randomized identity suites")
    add_common(p_oracle, needs_spec=False)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.add_argument("--nmin", type=int, default=1)
    p_oracle.add_argument("--nmax", type=int, default=6)
    p_oracle.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p_oracle.set_defaults(func=cmd_oracle, text=_oracle_text)

    p_verify = sub.add_parser("verify", help="check a candidate solution against the reduced system")
    add_common(p_verify, enumerates=True)
    p_verify.set_defaults(func=cmd_verify, text=_verify_text)

    return parser


def _report(args) -> bool:
    """Run the command and write its report; True iff the command's identities held.

    The spec is read under the int/str digit limit, which guards against
    hostile literals, and before ``--out`` opens, which may name it.  The
    report, whose exact numbers can outgrow the limit, is written without it,
    as it is encoded: JSON chunk by chunk, text piece by piece.  So the
    command's peak memory is its computation and payload, with no encoded
    copy of the report on top.  The command does no I/O, so a failure to
    open, write or finish the report, at any point, is `_report_stream`'s
    `SpecError`; what was written before it stays in the file.
    """
    operands = [args]
    if args.command != "oracle":
        spec = load_spec(args.spec)
        if hasattr(args, "nmax") and spec.n > args.nmax:
            raise SpecError(
                f"dimension n = {spec.n} exceeds the brute-force cap {args.nmax}; "
                "raise --nmax to override"
            )
        operands.append(spec)
    with _report_stream(args.out) as stream, _no_int_str_digit_limit():
        payload, ok = args.func(*operands)
        if args.format == "json":
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            stream.writelines(args.text(payload))
    return ok


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return EXIT_OK if _report(args) else EXIT_IDENTITY
    except SingularMatrixError:
        print("error: det(B) = 0, system matrix is singular", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    try:
        sys.exit(main())
    finally:
        # If stdout's reader has gone (for a report, main has said so), the
        # unwritten bytes go to the null device, not to a failing flush at exit.
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
