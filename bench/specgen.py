"""Deterministic inputs for the benchmark workloads.

Each workload draws its commands from a fixed pool of POOL_SIZE items; the
run seed only chooses which pool items a run uses, so the reference digests
in ``reference.json`` (one per pool item) cover every seed.  Pool item ``i``
of a workload is generated from its own RNG, so the same seed always gives
byte-identical spec files.

The generator does its own ``Fraction`` arithmetic and never imports
``opreduce``: the manufactured ``verify`` candidate ``x`` is built here and
``phi(t) = x(t+1) - B x(t)`` is computed here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

POOL_SIZE = 32
BOUND = 9  # matrix entries are p/q with |p| <= 9, 1 <= q <= 9

# Sizes fixed by the workload definitions (see README.md in this directory).
REDUCE_N = 8
REDUCE_HORIZON = 2 * REDUCE_N + 2
SOLVE_N = 5
SOLVE_HORIZON = 240
LIBRARY_N = 16
LIBRARY_DEGREE = 16
ORACLE_ARGS = ("--nmin", "1", "--nmax", "6", "--trials", "100")

# How many pool items one pass of each workload's fixed command list uses.
# A pass takes a few seconds, so a run holds several passes.  Items of one
# workload differ in cost by only a few per cent.
ITEMS_PER_PASS = {
    "reduce-checked": 2,
    "solve-long": 4,
    "adjugate-large": 3,
    "oracle-sweep": 1,
}
WORKLOADS = tuple(ITEMS_PER_PASS)
_WORKLOAD_ID = {name: k + 1 for k, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Command:
    """One command of a workload's fixed list.

    ``kind`` is the CLI subcommand (``reduce``, ``verify``, ``solve``,
    ``oracle``) or ``library`` for the library production route.  ``spec``
    is the spec file, or None for ``oracle``, whose input is ``oracle_seed``.
    """

    kind: str
    pool: int
    spec: Path | None = None
    oracle_seed: int | None = None

    @property
    def ident(self) -> str:
        return f"{self.kind}:{self.pool:02d}"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))


def _matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[_rational(rng) for _ in range(n)] for _ in range(n)]


def _pool_rng(workload: str, index: int) -> random.Random:
    if not 0 <= index < POOL_SIZE:
        raise ValueError(f"pool index {index} out of range 0..{POOL_SIZE - 1}")
    return random.Random(_WORKLOAD_ID[workload] * 1_000_003 + index)


def manufacture_phi(b: list[list[Fraction]], x: list[list[Fraction]]) -> list[list[Fraction]]:
    """phi(t) = x(t+1) - B x(t) for every t where x(t+1) is defined."""
    n = len(b)
    steps = len(x[0]) - 1
    return [
        [x[i][t + 1] - sum((b[i][s] * x[s][t] for s in range(n)), Fraction(0)) for t in range(steps)]
        for i in range(n)
    ]


def _sequence_column(rows: list[list[Fraction]]) -> list[dict]:
    return [{"origin": 0, "values": [str(v) for v in row]} for row in rows]


def _matrix_text(b: list[list[Fraction]]) -> list[list[str]]:
    return [[str(v) for v in row] for row in b]


def checked_shift_spec(rng: random.Random, n: int, horizon: int) -> dict:
    """Shift system with a manufactured candidate x, so reduce and verify share it."""
    b = _matrix(rng, n)
    x = [[_rational(rng) for _ in range(horizon + 1)] for _ in range(n)]
    return {
        "n": n,
        "matrix": _matrix_text(b),
        "operator": "shift",
        "phi": _sequence_column(manufacture_phi(b, x)),
        "x": _sequence_column(x),
    }


def initial_value_spec(rng: random.Random, n: int, horizon: int) -> dict:
    """Shift system with initial data x(0) and a random free column over the horizon."""
    b = _matrix(rng, n)
    phi = [[_rational(rng) for _ in range(horizon)] for _ in range(n)]
    x0 = [_rational(rng) for _ in range(n)]
    return {
        "n": n,
        "matrix": _matrix_text(b),
        "operator": "shift",
        "phi": _sequence_column(phi),
        "initial": {"t0": 0, "x0": [str(v) for v in x0]},
        "horizon": horizon,
    }


def derivative_spec(rng: random.Random, n: int, degree: int) -> dict:
    """Derivative system whose phi entries are polynomials of exact degree `degree`."""
    b = _matrix(rng, n)
    phi = []
    for _ in range(n):
        coeffs = [_rational(rng) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, BOUND), rng.randint(1, BOUND)))
        phi.append({"coeffs": [str(c) for c in coeffs]})
    return {"n": n, "matrix": _matrix_text(b), "operator": "derivative", "phi": phi}


def oracle_seed(index: int) -> int:
    return _pool_rng("oracle-sweep", index).randrange(2**31)


_SPEC_BUILDERS = {
    "reduce-checked": lambda rng: checked_shift_spec(rng, REDUCE_N, REDUCE_HORIZON),
    "solve-long": lambda rng: initial_value_spec(rng, SOLVE_N, SOLVE_HORIZON),
    "adjugate-large": lambda rng: derivative_spec(rng, LIBRARY_N, LIBRARY_DEGREE),
}


def pool_indices(workload: str, seed: int) -> list[int]:
    """Pool items used by one run of the workload at this seed."""
    if workload not in ITEMS_PER_PASS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed * 16 + _WORKLOAD_ID[workload])
    return rng.sample(range(POOL_SIZE), ITEMS_PER_PASS[workload])


def spec_text(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":")) + "\n"


def spec_bytes(workload: str, index: int) -> bytes:
    return spec_text(_SPEC_BUILDERS[workload](_pool_rng(workload, index))).encode()


def commands_for(workload: str, indices: list[int], directory: Path) -> list[Command]:
    """Write the spec files for these pool items and return the command list."""
    if workload == "oracle-sweep":
        return [Command("oracle", index, oracle_seed=oracle_seed(index)) for index in indices]
    directory.mkdir(parents=True, exist_ok=True)
    commands = []
    for index in indices:
        path = directory / f"{workload}-{index:02d}.json"
        path.write_bytes(spec_bytes(workload, index))
        if workload == "reduce-checked":
            commands += [Command("reduce", index, path), Command("verify", index, path)]
        elif workload == "solve-long":
            commands.append(Command("solve", index, path))
        else:
            commands.append(Command("library", index, path))
    return commands


def generate(workload: str, seed: int, directory: Path) -> list[Command]:
    """Spec files and the fixed command list of one run; same seed, same bytes."""
    return commands_for(workload, pool_indices(workload, seed), directory)
