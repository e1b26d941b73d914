"""Tests of the benchmark itself, on smoke-size inputs.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_outputs(workload: str, seed: int) -> list[str]:
    return [W.run_item(workload, item) for item in W.inputs(workload, seed, smoke=True)]


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(workload):
    def text(seed):
        return [str(x) for x in W.inputs(workload, seed, smoke=True)]

    assert text(1) == text(1)
    assert text(1) != text(2)
    if workload != "wide":  # exhaustive sets: same items, another start
        assert sorted(text(1)) == sorted(text(2))


def test_full_wide_set_is_deterministic_and_distinct():
    a = W.wide_items(7)
    assert a == W.wide_items(7)
    assert a != W.wide_items(8)
    assert len({item.text for item in a}) == len(a) == 1000


def test_full_sets_keep_every_stride_th_state_from_a_seeded_start():
    a = W.order(4862, 7, smoke=False)
    assert a == W.order(4862, 7, smoke=False) != W.order(4862, 8, smoke=False)
    assert sorted(a) == list(range(0, 4862, W.STRIDE)) and len(a) >= 1000
    assert len(W.inputs("families", 7)) == len(range(0, 4204, W.STRIDE)) >= 1000


def test_recorded_family_counts_match_the_recorded_totals():
    for max_mn, total in W.FAMILY_COUNTS.items():
        counts = W.family_counts(max_mn)
        assert len(counts) == len(W.family_states(max_mn))
        assert sum(counts) == total


def test_wide_generator_makes_realizable_states_of_each_kind():
    from catlattice import coeff, states

    first_steps = {}
    for item in W.wide_items(3, smoke=True):
        C = states.parse_state(item.text)
        assert states.is_realizable(C)
        _, trace = coeff.coefficient(C)
        first_steps.setdefault(item.kind, set()).add(trace[0].kind)
    assert first_steps["stack"] == {"vertical-decompose"}
    assert {"tree-formula", "rotate-pi"} <= first_steps["piece"]


# -- printed metrics ----------------------------------------------------------


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], int) == name.endswith(".calls")
    text = "\n".join(lines[:-1])
    for name in want:
        short = name.rsplit(".", 1)[0] if trace == "1" else name
        assert short in text
    assert "failed_frac" in text


def test_layer_metrics_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == [
        name for name, _ in metric_names()
    ] + ["trace.overhead_frac"]


# -- reference checks -----------------------------------------------------------


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_gate_passes_true_outputs_and_catches_a_wrong_value(workload):
    outputs = smoke_outputs(workload, 4)
    assert W.check(workload, 4, outputs, smoke=True) == ([], [])
    k = next(i for i, out in enumerate(outputs) if out and i >= len(outputs) // 2)
    bad = list(outputs)
    if workload == "families":  # same family, wrong companion value
        bad[k] = outputs[k].rsplit(":", 1)[0] + ":A^99"
    else:
        bad[k] = "A^99"
    assert W.check(workload, 4, bad, smoke=True)[0] == [k]
    bad[k] = None  # the item raised
    assert W.check(workload, 4, bad, smoke=True)[0] == [k]


def test_gate_flags_a_missing_family():
    outputs = smoke_outputs("families", 4)
    k = next(i for i, out in enumerate(outputs) if ";" in out)
    outputs[k] = outputs[k].split(";", 1)[1]
    wrong, notes = W.check("families", 4, outputs, smoke=True)
    assert wrong == [] and notes


# -- host speed -----------------------------------------------------------------


def test_reference_pass_does_fixed_work_and_scales_by_fastest_items():
    assert len(reference.timed_pass()) == len(reference.ITEMS)
    passes = [[1.0, 5.0], [2.0, 3.0]]  # fastest items sum to 4 ms
    assert reference.scale(passes) == reference.REFERENCE_S / 0.004


# -- tracing ------------------------------------------------------------------


def test_tracer_restores_every_patched_attribute():
    from catlattice import coeff, kauffman, states

    def held():
        return (coeff.find_removable_arcs, states.find_removable_arcs,
                kauffman.new_connection, coeff.coefficient)

    originals = held()
    tracer = Tracer()
    tracer.patch()
    try:
        assert coeff.find_removable_arcs is not originals[0]
        assert coeff.find_removable_arcs is states.find_removable_arcs
        coeff.coefficient(states.parse_state("cat(1,1): T1-L1, R1-B1"))
    finally:
        tracer.unpatch()
    assert tracer.restored()
    assert held() == originals
    assert tracer.layer_metrics()["coeff.coefficient.calls"] == 1


def test_traced_counts_cover_outermost_calls_only():
    from catlattice import coeff, kauffman, samples

    tracer = Tracer()
    tracer.patch()
    try:
        C = samples.factor_sample_state()
        companion, _ = coeff.vertical_factor_parts(C, samples.factor_sample_family())
        kauffman.bracket_coefficient_at(companion)
    finally:
        tracer.unpatch()
    layers = tracer.layer_metrics()
    assert layers["kauffman.bracket_coefficient_at.calls"] == 1
    assert layers["states.glue_vertical.calls"] > 0
    assert 0 < layers["kauffman.bracket_coefficient_at.self_s"]


def test_traced_call_counts_repeat_for_a_seed(tmp_path):
    def traced():
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), "trace",
             "--workload", "table", "--seed", "2", "--smoke",
             "--spans", str(tmp_path / "spans.tsv.gz")],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                     PYTHONHASHSEED="0"),
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["restored"]
        return {k: v for k, v in result["layers"].items() if k.endswith(".calls")}

    first = traced()
    assert first == traced()
    assert first["kauffman.bracket_coefficient_at.calls"] == 0


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = run_bench("--workload", "table", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
