"""Tests of the benchmark itself: python3 -m pytest -q bench/tests"""

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

import calibrate
import checks
import run
import specgen
import tracer as tracing
import worker

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pkg():
    return worker.import_package(REPO / "src")


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", specgen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = specgen.generate(workload, 7, tmp_path / "a")
    second = specgen.generate(workload, 7, tmp_path / "b")
    assert [c.ident for c in first] == [c.ident for c in second]
    assert [c.oracle_seed for c in first] == [c.oracle_seed for c in second]
    if workload != "oracle-sweep":
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert len({tuple(specgen.pool_indices(workload, seed)) for seed in range(10)}) > 1


def test_manufactured_candidate_solves_the_system(pkg, tmp_path):
    from opreduce.cauchy import manufacture_solution
    from opreduce.operators import OperatorKind

    spec = pkg.specio.parse_spec_dict(json.loads(specgen.spec_bytes("reduce-checked", 0)))
    assert spec.n == specgen.REDUCE_N
    assert spec.phi.entries[0].horizon == specgen.REDUCE_HORIZON
    assert manufacture_solution(spec.matrix, spec.x, OperatorKind.SHIFT) == spec.phi


def _small_report(pkg, tmp_path, kind: str) -> str:
    spec = tmp_path / "spec.json"
    spec.write_text(specgen.spec_text(specgen.checked_shift_spec(random.Random(1), 2, 6)))
    out = tmp_path / f"{kind}.json"
    assert pkg.cli.main([kind, "--spec", str(spec), "--format", "json", "--out", str(out)]) == 0
    return out.read_text()


def test_output_check_accepts_added_fields_and_rejects_wrong_content(pkg, tmp_path):
    text = _small_report(pkg, tmp_path, "verify")
    reference = checks.content_digest("verify", json.loads(text))
    assert checks.check_output("verify", 0, text, reference) is None

    report = json.loads(text)
    report["diagnostics"] = {"stage_s": 1.0}
    assert checks.check_output("verify", 0, json.dumps(report), reference) is None

    report = json.loads(text)
    report["char_poly"][0] = "12345"
    assert "digest" in checks.check_output("verify", 0, json.dumps(report), reference)
    report = json.loads(text)
    report["all_zero"] = False
    assert "all_zero" in checks.check_output("verify", 0, json.dumps(report), reference)
    assert checks.check_output("verify", 4, text, reference) == "exit code 4"
    assert checks.check_output("verify", 0, text, None) == "no reference digest"
    assert "malformed" in checks.check_output("verify", 0, text[:-20], reference)


def test_corrupted_report_is_counted_in_fail_frac(pkg, tmp_path):
    text = _small_report(pkg, tmp_path, "reduce")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(text)
    report = json.loads(text)
    report["rhs"][0]["evaluated"]["values"][0] = "999/7"
    bad.write_text(json.dumps(report))
    reference = {"reduce:00": checks.content_digest("reduce", json.loads(text))}
    passes = [
        {"outputs": [("reduce", "reduce:00", 0, str(good)), ("reduce", "reduce:00", 0, str(bad))]},
        {"outputs": [("reduce", "reduce:00", "raised RuntimeError()", str(tmp_path / "missing.json"))]},
    ]
    attempted, failures, report_bytes = worker.tally_outputs(passes, reference)
    assert attempted == 3
    assert len(failures) == 2
    assert len(failures) / attempted == pytest.approx(2 / 3)
    assert report_bytes[1] == 0
    assert not good.exists() and not bad.exists()


def test_self_time_on_synthetic_nesting():
    spans = [
        ["cli.main", 0, 100, -1, "c1"],
        ["reduction.total_reduce_minors", 10, 40, 0, "c1"],
        ["exactcore.det", 20, 30, 1, "c1"],
        ["operators.lincomb", 50, 90, 0, "c1"],
        ["library.route", 200, 300, -1, "c2"],
        ["specio.parse_spec_dict", 210, 250, 4, "c2"],
        ["exactcore.det", 260, 270, 4, "c2"],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [30, 20, 10, 40, 50, 40, 10]
    assert tracing.check_additivity(spans, selfs) == 2
    metrics = worker.layer_metrics(spans, traced_passes=1)
    assert metrics["cli.main.total_s"] == pytest.approx(100e-9)
    assert metrics["cli.self_s"] == pytest.approx(30e-9)
    assert metrics["library.self_s"] == pytest.approx(50e-9)
    assert metrics["exactcore.det.calls"] == 2
    assert metrics["exactcore.det_s"] == pytest.approx(20e-9)
    assert metrics["reduction.total_reduce_minors.total_s"] == pytest.approx(30e-9)
    with pytest.raises(ValueError):
        tracing.check_additivity(spans, [s + 1 for s in selfs])


def test_self_time_counts_overlapping_children_once():
    spans = [["cli.main", 0, 100, -1, "c"], ["exactcore.det", 10, 50, 0, "c"], ["exactcore.det", 40, 60, 0, "c"]]
    assert tracing.self_times(spans)[0] == 50


def _package_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "opreduce" or name.startswith("opreduce.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_every_wrapper_is_removed_after_a_traced_pass(pkg, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(specgen.spec_text(specgen.checked_shift_spec(random.Random(2), 3, 8)))
    commands = [specgen.Command("reduce", 0, spec), specgen.Command("verify", 0, spec)]
    before = _package_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the same function is wrapped at every module attribute that holds it
        assert pkg.minors.det is pkg.exactcore.det is pkg.det
        assert getattr(pkg.minors.det, "__bench_traced__", False)
        assert getattr(pkg.cauchy.total_reduce_minors, "__bench_traced__", False)
        assert getattr(pkg.cli.solve_cauchy, "__bench_traced__", False)
        record = worker.Workload(pkg, commands, tmp_path).run_pass(0, tracer)
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(getattr(v, "__bench_traced__", False) for v in after.values())
    assert [code for _, _, code, _ in record["outputs"]] == [0, 0]
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"cli.main", "exactcore.det", "reduction.total_reduce_minors", "cauchy.verify_total_reduction"} <= names
    assert tracing.check_additivity(tracer.spans, tracing.self_times(tracer.spans)) == 2


def test_sampler_times_the_kernel_while_active_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler(0.02)
    with sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.scale([calibrate.REFERENCE_S * 2] * 3) == pytest.approx(0.5)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    layer_names = [name for name, _, _ in worker.PER_LAYER] + list(worker.DERIVED)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == worker.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(specgen.WORKLOADS)


def test_reference_covers_every_pool_item():
    stored = json.loads(checks.REFERENCE_PATH.read_text())
    assert stored["pool_size"] == specgen.POOL_SIZE
    per_item = {"reduce-checked": 2, "solve-long": 1, "adjugate-large": 1, "oracle-sweep": 1}
    for workload in specgen.WORKLOADS:
        assert len(stored["digests"][workload]) == per_item[workload] * specgen.POOL_SIZE
