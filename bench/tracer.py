"""Span tracing of opreduce's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every attribute of every
loaded ``opreduce`` module that holds it -- for example ``opreduce.minors.det``
as well as ``opreduce.exactcore.det`` -- so calls are seen whichever module
they go through.  ``Tracer.uninstall`` puts every original back, so untraced
passes run unpatched code.

A span is ``[name, start_ns, end_ns, parent, command]``.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
part of its interval that its children cover; over integer nanoseconds the
self times of one command's spans add up exactly to its root span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Traced functions: (layer, function).  The span name is "layer.function".
TARGETS = (
    ("cli", "main"),
    ("specio", "load_spec"),
    ("specio", "parse_spec_dict"),
    ("specio", "reduced_to_json"),
    ("specio", "residual_to_json"),
    ("specio", "element_to_json"),
    ("specio", "term_to_json"),
    ("faddeev", "adjugate_coeffs"),
    ("faddeev", "char_poly"),
    ("faddeev", "char_poly_minors"),
    ("faddeev", "cayley_hamilton_check"),
    ("minors", "delta_k_i_coeffs"),
    ("minors", "delta_vec"),
    ("minors", "delta_k_i"),
    ("minors", "delta_k"),
    ("exactcore", "det"),
    ("operators", "apply_vector"),
    ("operators", "lincomb"),
    ("operators", "eval_scalar_equation"),
    ("reduction", "total_reduce_adjugate"),
    ("reduction", "total_reduce_minors"),
    ("reduction", "lemma1_check"),
    ("reduction", "lemma2_check"),
    ("cauchy", "iterate_difference"),
    ("cauchy", "derived_initial_conditions"),
    ("cauchy", "verify_total_reduction"),
    ("cauchy", "solve_cauchy"),
)

# Spans whose return values feed the *_bits metrics; they are read after the
# command's root span has closed, outside any timed span.
CAPTURED = ("faddeev.adjugate_coeffs", "cauchy.iterate_difference")

NAME, START, END, PARENT, COMMAND = range(5)
PACKAGE = "opreduce"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.captured: list[tuple[str, object]] = []
        self.command: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for layer, func in TARGETS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            original = getattr(home, func)
            wrapper = self.wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, captured = self.spans, self._stack, self.captured
        capture = name in CAPTURED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.command])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = spans[index]
                record[START] = start
                record[END] = end
            if capture:
                captured.append((name, result))
            return result

        traced.__bench_traced__ = True
        return traced

    def take_captured(self) -> list[tuple[str, object]]:
        taken = list(self.captured)
        self.captured.clear()
        return taken

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, command in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "command": command}
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        reach = lo
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result.append(hi - lo - covered)
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def check_additivity(spans: list[list], selfs: list[int]) -> int:
    """Check, per command, that the self times of its spans sum to its root span.

    Returns the number of commands checked; raises ValueError on the first
    command where the identity fails.
    """
    roots: dict[object, int] = {}
    sums: dict[object, int] = {}
    for span, own in zip(spans, selfs):
        command = span[COMMAND]
        if span[PARENT] < 0:
            if command in roots:
                raise ValueError(f"command {command!r} has more than one root span")
            roots[command] = span[END] - span[START]
        sums[command] = sums.get(command, 0) + own
    for command, total in sums.items():
        if roots.get(command) != total:
            raise ValueError(
                f"self times of command {command!r} sum to {total} ns, root span is {roots.get(command)} ns"
            )
    return len(roots)
