"""Command-line front end.

Subcommands: reduce, solve, cramer, oracle, verify.  Reports are emitted as
JSON (machine) or text (human); all numbers are rational literal strings in
both.  Exit codes: 0 success, 2 input error, 3 mathematical degeneracy
(singular matrix), 4 identity-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from .cauchy import CauchyProblem, solve_cauchy, verify_total_reduction
from .exactcore import Matrix, format_rational, mat_vec
from .faddeev import adjugate_coeffs, adjugate_coeffs_minors, cayley_hamilton_check
from .operators import OperatorKind
from .reduction import (
    SingularMatrixError,
    cramer_solve,
    cramer_via_zero_reduction,
    lemma1_check,
    lemma2_check,
    total_reduce_adjugate,
    total_reduce_minors,
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


def _rational_strings(values) -> list[str]:
    return [format_rational(v) for v in values]


def _operator_poly_text(cp) -> str:
    text = f"A^{cp.n}"
    for k in range(1, cp.n + 1):
        dk = cp.coefficient(k)
        if dk == 0:
            continue
        sign = "-" if dk < 0 else "+"
        power = cp.n - k
        base = "I" if power == 0 else f"A^{power}"
        text += f" {sign} {format_rational(abs(dk))}*{base}"
    return text


def _element_text(payload: dict) -> str:
    if payload["kind"] == "sequence":
        return f"sequence(origin={payload['origin']}): {', '.join(payload['values'])}"
    if not payload["coeffs"]:
        return "polynomial: 0"
    return f"polynomial(ascending): {', '.join(payload['coeffs'])}"


def _reduce_text(payload: dict) -> str:
    lines = [
        f"totally reduced system, n = {payload['n']}, operator = {payload['operator']}",
        f"left-hand side (all variables): {payload['lhs']}",
    ]
    for block in payload["rhs"]:
        i = block["variable"]
        lines.append(f"equation for x{i}:")
        for term in block["terms"]:
            sign = "+" if term["sign"] > 0 else "-"
            lines.append(
                f"  {sign} delta_{term['order']}^{i}(B; A^{term['power']} phi)"
                f"  [coeffs: {', '.join(term['coeffs'])}]"
            )
        lines.append(f"  evaluated rhs: {_element_text(block['evaluated'])}")
    lines.append(f"route agreement: {str(payload['route_agreement']).lower()}")
    return "\n".join(lines) + "\n"


def _residual_lines(payload: dict, residuals: list, extra: list) -> list:
    """Left-hand side, one status line per residual, extra lines, then the verdicts."""
    lines = [f"left-hand side: {payload['lhs']}"]
    for block in residuals:
        window = block.get("window")
        where = f" on [{window['origin']}, {window['origin'] + window['length'] - 1}]" if window else ""
        status = "zero" if block["is_zero"] else "NONZERO"
        lines.append(f"residual x{block['variable']}{where}: {status}")
    return lines + extra + [
        f"route agreement: {str(payload['route_agreement']).lower()}",
        f"all residuals zero: {str(payload['all_zero']).lower()}",
    ]


def _solve_text(payload: dict) -> str:
    lines = [
        f"initial-value solution, n = {payload['n']}, t0 = {payload['t0']}, horizon = {payload['horizon']}",
    ]
    for traj in payload["trajectories"]:
        lines.append(f"x{traj['variable']}: {', '.join(traj['values'])}")
    derived = [
        f"derived conditions x{block['variable']} (powers 1..{len(block['values'])}): "
        f"{', '.join(block['values'])} (match trajectory: {str(block['matches_trajectory']).lower()})"
        for block in payload["derived_conditions"]
        if block["values"]
    ]
    return "\n".join(lines + _residual_lines(payload, payload["verification"], derived)) + "\n"


def _cramer_text(payload: dict) -> str:
    lines = [
        f"cramer solution of B x + phi = 0, n = {payload['n']}",
        f"x: {', '.join(payload['solution'])}",
        f"residual B x + phi: {', '.join(payload['residual'])}",
        f"zero-operator pipeline agreement: {str(payload['pipeline_agreement']).lower()}",
    ]
    return "\n".join(lines) + "\n"


def _oracle_text(payload: dict) -> str:
    lines = [
        f"identity suites: n in {payload['nmin']}..{payload['nmax']}, "
        f"{payload['trials']} trials, seed {payload['seed']}",
    ]
    for name, result in payload["checks"].items():
        lines.append(f"{name}: pass {result['pass']}, fail {result['fail']}")
    lines.append(f"all passed: {str(payload['all_passed']).lower()}")
    return "\n".join(lines) + "\n"


def _verify_text(payload: dict) -> str:
    lines = [f"verification of candidate solution, n = {payload['n']}"]
    return "\n".join(lines + _residual_lines(payload, payload["residuals"], [])) + "\n"


def _emit(payload: dict, text_renderer, args) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = text_renderer(payload)
    try:
        args.stream.write(body)
        args.stream.flush()
    except OSError as exc:
        raise SpecError(f"cannot write report to {args.out}: {exc}") from None


@contextmanager
def _report_stream(path: str):
    """stdout for ``-``, else ``path`` opened for writing before any work is done."""
    if path == "-":
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot write report to {path}: {exc}") from None
    with handle:
        yield handle


@contextmanager
def _no_int_str_digit_limit():
    """Lift CPython's int/str digit limit for the block, then restore it.

    Interpreters without the limit (before 3.10.7) run the block unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _spec_command(body):
    """Load ``--spec``, check ``--nmax``, then run ``body(args, spec)``.

    The spec is parsed under the interpreter's int/str digit limit, which
    guards against hostile literals.  Exact results can grow far past it,
    so the report is computed and written without the limit.
    """

    @functools.wraps(body)
    def command(args) -> int:
        spec = load_spec(args.spec)
        if spec.n > args.nmax:
            raise SpecError(
                f"dimension n = {spec.n} exceeds the brute-force cap {args.nmax}; "
                "raise --nmax to override"
            )
        with _no_int_str_digit_limit():
            return body(args, spec)

    return command


@_spec_command
def cmd_reduce(args, spec) -> int:
    reduced = total_reduce_adjugate(spec.matrix, spec.phi, spec.operator)
    agreement = reduced == total_reduce_minors(spec.matrix, spec.phi, spec.operator)
    payload = {
        "command": "reduce",
        "n": spec.n,
        "operator": spec.operator.value,
        "lhs": _operator_poly_text(reduced.cp),
        **reduced_to_json(reduced),
        "route_agreement": agreement,
    }
    _emit(payload, _reduce_text, args)
    return EXIT_OK if agreement else EXIT_IDENTITY


@_spec_command
def cmd_solve(args, spec) -> int:
    if spec.operator is not OperatorKind.SHIFT:
        raise SpecError("solve needs the shift operator")
    if spec.initial is None:
        raise SpecError("spec field initial: missing (required by solve)")
    horizon = args.horizon if args.horizon is not None else spec.horizon
    if horizon is None:
        raise SpecError("spec field horizon: missing (required by solve; or pass --horizon)")
    t0, x0 = spec.initial
    problem = CauchyProblem(b=spec.matrix, phi=spec.phi, t0=t0, x0=x0, horizon=horizon)
    trajectories, verification, derived = solve_cauchy(problem)
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
                "values": _rational_strings(values),
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
        "char_poly": _rational_strings(verification.reduced.cp.d),
        "trajectories": [
            {"variable": i + 1, **{k: v for k, v in element_to_json(trajectories[i]).items() if k != "kind"}}
            for i in range(spec.n)
        ],
        "verification": [residual_to_json(i, r) for i, r in enumerate(verification.residuals, start=1)],
        "derived_conditions": derived_blocks,
        "route_agreement": verification.route_agreement,
        "all_zero": verification.all_zero(),
    }
    _emit(payload, _solve_text, args)
    ok = verification.all_zero() and ok_derived
    return EXIT_OK if ok else EXIT_IDENTITY


@_spec_command
def cmd_cramer(args, spec) -> int:
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
        "solution": _rational_strings(solution),
        "residual": _rational_strings(residual),
        "pipeline_agreement": agreement,
    }
    _emit(payload, _cramer_text, args)
    return EXIT_OK if agreement else EXIT_IDENTITY


def _random_column(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))


def _random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix(_random_column(rng, n) for _ in range(n))


def cmd_oracle(args) -> int:
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
        v = _random_column(rng, n)
        ac, mc = adjugate_coeffs(b), adjugate_coeffs_minors(b)
        record("lemma1", all(lemma1_check(b, mc, k, v) for k in range(1, n + 1)))
        record("lemma2", all(lemma2_check(ac, mc, k, v) for k in range(n)))
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
    _emit(payload, _oracle_text, args)
    return EXIT_OK if all_passed else EXIT_IDENTITY


@_spec_command
def cmd_verify(args, spec) -> int:
    if spec.x is None:
        raise SpecError("spec field x: missing (required by verify)")
    report = verify_total_reduction(spec.matrix, spec.x, spec.phi, spec.operator)
    payload = {
        "command": "verify",
        "n": spec.n,
        "operator": spec.operator.value,
        "lhs": _operator_poly_text(report.reduced.cp),
        "char_poly": _rational_strings(report.reduced.cp.d),
        "residuals": [residual_to_json(i, r) for i, r in enumerate(report.residuals, start=1)],
        "route_agreement": report.route_agreement,
        "all_zero": report.all_zero(),
    }
    _emit(payload, _verify_text, args)
    return EXIT_OK if report.all_zero() else EXIT_IDENTITY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opreduce",
        description="Exact total reduction of linear first-order operator systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="path to the system spec file (JSON)")
        p.add_argument("--out", default="-", help="output path, or - for stdout")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if needs_spec:
            p.add_argument("--nmax", type=int, default=BRUTE_FORCE_CAP, help="brute-force dimension cap")

    p_reduce = sub.add_parser("reduce", help="emit the totally reduced system (both routes)")
    add_common(p_reduce)
    p_reduce.set_defaults(func=cmd_reduce)

    p_solve = sub.add_parser("solve", help="iterate a shift-kind system and verify the reduction")
    add_common(p_solve)
    p_solve.add_argument("--horizon", type=int, default=None, help="trajectory length override")
    p_solve.set_defaults(func=cmd_solve)

    p_cramer = sub.add_parser("cramer", help="solve B x + phi = 0 for a zero-operator spec")
    add_common(p_cramer)
    p_cramer.set_defaults(func=cmd_cramer)

    p_oracle = sub.add_parser("oracle", help="run randomized identity suites")
    add_common(p_oracle, needs_spec=False)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.add_argument("--nmin", type=int, default=1)
    p_oracle.add_argument("--nmax", type=int, default=6)
    p_oracle.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a candidate solution against the reduced system")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _report_stream(args.out) as args.stream:
            return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SingularMatrixError:
        print("error: det(B) = 0, system matrix is singular", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())
