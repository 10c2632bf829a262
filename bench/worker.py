"""Run one workload's fixed command list in this fresh process.

Usage: python3 worker.py CONFIG_JSON RESULT_JSON

``run.py`` starts this script once per run, so each run's peak resident set
belongs to one workload alone.  The command list is repeated in passes until
the configured seconds are used up.  With tracing on, passes alternate
untraced and traced, so the traced wall time can be compared with an
untraced pass of the same commands.  Outputs are checked after the last
pass, after the peak resident set has been read.

``wall_s`` is the mean over the untraced passes of the sum of the pass's
command latencies, and ``cmd_p50_s`` the median of every command latency of
those passes.  Both are reported in reference-speed seconds (see
calibrate.py): the calibration kernel is sampled during the untraced passes,
its time is taken out of the latencies, and each latency is scaled by the
kernel samples taken while it ran.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibrate
import checks
import specgen
import tracer as tracing

# Per-layer metrics: (name, kind, span names or layer).  "self" sums the
# self time of the named spans, "total" their duration, "calls" counts them
# and "layer" sums the self time of every span of one layer.
PER_LAYER = (
    ("cli.main.total_s", "total", ("cli.main",)),
    ("cli.self_s", "layer", "cli"),
    ("library.route.total_s", "total", ("library.route",)),
    ("library.self_s", "layer", "library"),
    ("specio.self_s", "layer", "specio"),
    ("specio.load_spec_s", "self", ("specio.load_spec", "specio.parse_spec_dict")),
    (
        "specio.to_json_s",
        "self",
        ("specio.reduced_to_json", "specio.residual_to_json", "specio.element_to_json", "specio.term_to_json"),
    ),
    ("faddeev.self_s", "layer", "faddeev"),
    ("faddeev.adjugate_coeffs_s", "self", ("faddeev.adjugate_coeffs",)),
    ("faddeev.adjugate_coeffs.calls", "calls", ("faddeev.adjugate_coeffs",)),
    ("faddeev.char_poly_s", "self", ("faddeev.char_poly",)),
    ("faddeev.char_poly_minors.total_s", "total", ("faddeev.char_poly_minors",)),
    ("faddeev.cayley_hamilton.total_s", "total", ("faddeev.cayley_hamilton_check",)),
    ("minors.self_s", "layer", "minors"),
    ("minors.delta_k_i_coeffs_s", "self", ("minors.delta_k_i_coeffs",)),
    ("minors.delta_k_i_coeffs.calls", "calls", ("minors.delta_k_i_coeffs",)),
    ("minors.delta_vec.total_s", "total", ("minors.delta_vec",)),
    ("minors.delta_k_i_s", "self", ("minors.delta_k_i",)),
    ("minors.delta_k_s", "self", ("minors.delta_k",)),
    ("exactcore.self_s", "layer", "exactcore"),
    ("exactcore.det_s", "self", ("exactcore.det",)),
    ("exactcore.det.calls", "calls", ("exactcore.det",)),
    ("operators.self_s", "layer", "operators"),
    ("operators.apply_vector_s", "self", ("operators.apply_vector",)),
    ("operators.apply_vector.calls", "calls", ("operators.apply_vector",)),
    ("operators.lincomb_s", "self", ("operators.lincomb",)),
    ("operators.lincomb.calls", "calls", ("operators.lincomb",)),
    ("operators.eval_scalar_equation_s", "self", ("operators.eval_scalar_equation",)),
    ("reduction.self_s", "layer", "reduction"),
    ("reduction.total_reduce_adjugate.total_s", "total", ("reduction.total_reduce_adjugate",)),
    ("reduction.total_reduce_adjugate_s", "self", ("reduction.total_reduce_adjugate",)),
    ("reduction.total_reduce_minors.total_s", "total", ("reduction.total_reduce_minors",)),
    ("reduction.lemma_checks.total_s", "total", ("reduction.lemma1_check", "reduction.lemma2_check")),
    ("cauchy.self_s", "layer", "cauchy"),
    ("cauchy.iterate_difference_s", "self", ("cauchy.iterate_difference",)),
    ("cauchy.derived_initial_conditions_s", "self", ("cauchy.derived_initial_conditions",)),
    ("cauchy.derived_initial_conditions.calls", "calls", ("cauchy.derived_initial_conditions",)),
    ("cauchy.verify_total_reduction_s", "self", ("cauchy.verify_total_reduction",)),
)
# Metrics derived from results or pass timings rather than summed over spans.
DERIVED = (
    "reduction.cross_check_share",
    "faddeev.dk_max_bits",
    "faddeev.bk_max_bits",
    "cauchy.trajectory_max_bits",
    "specio.report_bytes",
    "trace.spans",
    "trace.overhead_frac",
)
# Wall time between calibration kernel samples during untraced passes.
CALIBRATION_INTERVAL_S = 0.1
LAYERS = ("cli", "library", "specio", "faddeev", "minors", "exactcore", "operators", "reduction", "cauchy")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def import_package(src: Path):
    """Import opreduce from this checkout's src directory, and nowhere else."""
    sys.path.insert(0, str(src))
    import opreduce.cli

    location = Path(opreduce.cli.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"opreduce was imported from {location}, not from {src}")
    return opreduce


def bits(q) -> int:
    """Height of a rational: the larger bit length of numerator and denominator."""
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Workload:
    def __init__(self, opreduce, commands: list[specgen.Command], out_dir: Path):
        self.pkg = opreduce
        self.commands = commands
        self.out_dir = out_dir
        # The library route starts at parse_spec_dict, so the JSON is decoded once, untimed.
        self.spec_data = {
            c.ident: json.loads(c.spec.read_text(encoding="utf-8")) for c in commands if c.kind == "library"
        }

    def _cli(self, command: specgen.Command, out: Path) -> int:
        if command.kind == "oracle":
            argv = ["oracle", *specgen.ORACLE_ARGS, "--seed", str(command.oracle_seed)]
        else:
            argv = [command.kind, "--spec", str(command.spec)]
        # Looked up at call time, so a traced pass goes through the wrapper.
        return self.pkg.cli.main([*argv, "--format", "json", "--out", str(out)])

    def _library(self, command: specgen.Command) -> str:
        specio, reduction = self.pkg.specio, self.pkg.reduction
        spec = specio.parse_spec_dict(self.spec_data[command.ident])
        reduced = reduction.total_reduce_adjugate(spec.matrix, spec.phi, spec.operator)
        return json.dumps(specio.reduced_to_json(reduced))

    def run_pass(self, index: int, tracer: tracing.Tracer | None) -> dict:
        """Run every command once; returns timings and where each output went.

        An untraced pass samples the calibration kernel while it runs and
        takes the sampler's time out of each latency.
        """
        gc.collect()
        latencies, kernel_during, outputs, bits_seen = [], [], [], {}
        library = self._library if tracer is None else tracer.wrap("library.route", self._library)
        sampler = calibrate.Sampler(CALIBRATION_INTERVAL_S)
        with sampler if tracer is None else nullcontext():
            for command in self.commands:
                out = self.out_dir / f"p{index}-{command.ident.replace(':', '-')}.json"
                library_text = None
                if tracer is not None:
                    tracer.command = f"p{index}:{command.ident}"
                spent, sampled = sampler.spent, len(sampler.samples)
                start = time.perf_counter()
                try:
                    if command.kind == "library":
                        library_text = library(command)
                        code = 0
                    else:
                        code = self._cli(command, out)
                except Exception as exc:  # an internal failure counts against the command
                    code = f"raised {exc!r}"
                latencies.append(time.perf_counter() - start - (sampler.spent - spent))
                kernel_during.append(sampler.samples[sampled:])
                if library_text is not None:
                    out.write_text(library_text, encoding="utf-8")
                if tracer is not None:
                    _record_bits(tracer.take_captured(), bits_seen)
                outputs.append((command.kind, command.ident, code, str(out)))
        return {
            "traced": tracer is not None,
            "wall": sum(latencies),
            "latencies": latencies,
            "kernel_times": sampler.samples,
            "kernel_during": kernel_during,
            "outputs": outputs,
            "bits": bits_seen,
        }


def _record_bits(captured, seen: dict) -> None:
    for name, result in captured:
        if name == "faddeev.adjugate_coeffs":
            dk = max(bits(d) for d in result.cp.d)
            bk = max(bits(v) for m in result.coeffs for row in m.rows() for v in row)
            seen["faddeev.dk_max_bits"] = max(seen.get("faddeev.dk_max_bits", 0), dk)
            seen["faddeev.bk_max_bits"] = max(seen.get("faddeev.bk_max_bits", 0), bk)
        elif name == "cauchy.iterate_difference":
            traj = max(bits(v) for seq in result for v in seq.values)
            seen["cauchy.trajectory_max_bits"] = max(seen.get("cauchy.trajectory_max_bits", 0), traj)


def layer_metrics(spans: list[list], traced_passes: int) -> dict[str, float]:
    """Per-pass means of the PER_LAYER metrics over the traced passes."""
    selfs = tracing.self_times(spans)
    by_name: dict[str, list[int]] = {}  # name -> [self ns, total ns, calls]
    by_layer = {layer: 0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        entry = by_name.setdefault(span[tracing.NAME], [0, 0, 0])
        entry[0] += own
        entry[1] += span[tracing.END] - span[tracing.START]
        entry[2] += 1
        by_layer[tracing.layer_of(span[tracing.NAME])] += own
    values = {}
    for name, kind, what in PER_LAYER:
        if kind == "layer":
            raw = by_layer[what]
        else:
            slot = {"self": 0, "total": 1, "calls": 2}[kind]
            raw = sum(by_name.get(span_name, (0, 0, 0))[slot] for span_name in what)
        values[name] = raw / traced_passes if kind == "calls" else raw / 1e9 / traced_passes
    return values


def tally_outputs(passes: list[dict], reference: dict[str, str]) -> tuple[int, list[str], list[int]]:
    """Check and delete every pass's outputs: (attempted, failure lines, report bytes per pass)."""
    attempted, failures, report_bytes = 0, [], []
    for p in passes:
        size = 0
        for kind, ident, code, path in p.pop("outputs"):
            attempted += 1
            out = Path(path)
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            size += len(text.encode())
            reason = checks.check_output(kind, code, text, reference.get(ident)) if isinstance(code, int) else code
            if reason is not None:
                failures.append(f"{ident}: {reason}")
            out.unlink(missing_ok=True)
        report_bytes.append(size)
    return attempted, failures, report_bytes


def run(config: dict) -> dict:
    root = Path(config["root"])
    pkg = import_package(root / "src")
    commands = [
        specgen.Command(c["kind"], c["pool"], Path(c["spec"]) if c["spec"] else None, c["oracle_seed"])
        for c in config["commands"]
    ]
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = Workload(pkg, commands, out_dir)
    trace = bool(config["trace"])
    tracer = tracing.Tracer() if trace else None

    deadline = time.perf_counter() + config["seconds"]
    passes = []
    while True:
        round_start = time.perf_counter()
        passes.append(workload.run_pass(len(passes), None))
        if tracer is not None:
            tracer.install()
            try:
                passes.append(workload.run_pass(len(passes), tracer))
            finally:
                tracer.uninstall()
        round_wall = time.perf_counter() - round_start
        if time.perf_counter() + round_wall > deadline:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted, failures, report_bytes = tally_outputs(passes, checks.load_reference(config["workload"]))

    plain = [p for p in passes if not p["traced"]]
    latencies = [t for p in plain for t in p["latencies"]]
    kernel_times = [t for p in plain for t in p["kernel_times"]]
    speed = calibrate.scale(kernel_times)
    # Each latency is scaled by the kernel samples taken while it ran (the
    # run's mean when none fell inside it), so that a command counts the
    # same whichever speed state it happened to run in.
    scaled = [
        [t * (calibrate.scale(during) if during else speed) for t, during in zip(p["latencies"], p["kernel_during"])]
        for p in plain
    ]
    raw = {"wall_s": statistics.fmean(p["wall"] for p in plain), "cmd_p50_s": statistics.median(latencies)}
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "passes": len(plain),
        "latencies": len(latencies),
        "kernel_s": statistics.fmean(kernel_times),
        "kernel_samples": len(kernel_times),
        "raw": raw,
        "metrics": {
            "wall_s": statistics.fmean(sum(pass_) for pass_ in scaled),
            "cmd_p50_s": statistics.median(t for pass_ in scaled for t in pass_),
            "peak_rss_mb": peak_rss_kb / 1024,
        },
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        spans = tracer.spans
        values = layer_metrics(spans, len(traced))
        checked = tracing.check_additivity(spans, tracing.self_times(spans))
        root_total = values["cli.main.total_s"] + values["library.route.total_s"]
        values["reduction.cross_check_share"] = (
            values["reduction.total_reduce_minors.total_s"] / root_total if root_total else 0.0
        )
        for name in ("faddeev.dk_max_bits", "faddeev.bk_max_bits", "cauchy.trajectory_max_bits"):
            values[name] = max(p["bits"].get(name, 0) for p in traced)
        values["specio.report_bytes"] = statistics.median(report_bytes)
        values["trace.spans"] = len(spans) / len(traced)
        values["trace.overhead_frac"] = (
            statistics.fmean(p["wall"] for p in traced) / statistics.fmean(p["wall"] for p in plain) - 1
        )
        result["layer_metrics"] = values
        result["additivity_checked"] = checked
        result["traced_passes"] = len(traced)
        tracer.write(config["spans_path"])
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 worker.py CONFIG_JSON RESULT_JSON", file=sys.stderr)
        return 2
    config = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(config)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
