"""Self-test of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench

Covers the self-time arithmetic on synthetic spans, the wrapping and exact
restoration of traced names, seed determinism of the generated inputs, the
planted-truth checks, and that BENCHMARK.json lists what run.py reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def _span(sid, name, start, end, parent=None, item=0, attrs=None):
    return (sid, name, start, end, parent, item, attrs)


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        _span(0, "bench.item", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),   # overlaps a: [1, 5] is covered once
        _span(3, "c", 9.0, 12.0, parent=0),  # runs past the parent: clipped to [9, 10]
        _span(4, "d", 1.5, 2.5, parent=1),   # grandchild: only a loses this time
    ]
    selves = tracing.self_times(spans)
    assert selves[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selves[1] == pytest.approx(2.0 - 1.0)
    assert selves[2] == pytest.approx(3.0)
    assert selves[4] == pytest.approx(1.0)


def test_nested_self_times_sum_to_the_item_time():
    spans = [
        _span(0, "bench.item", 0.0, 8.0),
        _span(1, "analysis.orbit_report", 0.5, 7.5, parent=0),
        _span(2, "rank.real_rank", 1.0, 2.0, parent=1, attrs=("float", 640, False)),
        _span(3, "rank.real_rank", 3.0, 6.0, parent=1, attrs=("float", 320, True)),
        _span(4, "cli.main", 0.0, 1.0, item="warmup0"),  # not a timed item
    ]
    summary = tracing.summarize(spans, {0: 1.0})
    assert summary["items"] == 1 and summary["item_s"] == pytest.approx(8.0)
    total = sum(layer["self_s"] for layer in summary["layers"].values())
    assert total == pytest.approx(summary["item_s"])
    assert summary["layers"]["rank.real_rank.float"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert "cli.main" not in summary["layers"]
    assert (summary["view_bytes"], summary["float_queries"], summary["ill_queries"]) == (960, 2, 1)


def _bindings():
    """Every (module, name) -> object binding of a traced target in luorbit."""
    import luorbit
    import luorbit.cli  # noqa: F401

    originals = {getattr(sys.modules[f"luorbit.{m}"], a) for m, a in tracing.TARGETS}
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "luorbit" or name.startswith("luorbit.")
        for key, value in vars(module).items()
        if any(value is o for o in originals)
    }


def test_install_wraps_every_binding_and_restore_puts_back_the_originals():
    import luorbit

    before = _bindings()
    assert ("luorbit.analysis", "real_rank") in before and ("luorbit", "real_rank") in before
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert len(patches) == len(before)
        for (name, key), original in before.items():
            assert getattr(sys.modules[name], key) is not original
        tracer.open(tracing.ITEM, item=0)
        luorbit.orbit_report(luorbit.singlet_product(4, [(1, 3), (2, 4)]))
        tracer.close()
    finally:
        tracing.restore(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"analysis.orbit_report", "analysis.classify_min_orbit", "rank.real_rank",
            "lie_action.tangent_matrix", "states.singlet_product"} <= names
    assert all(s[tracing.ITEM_ID] == 0 for s in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = [workloads.make_item(workload, 7, "timed", i) for i in range(30)]
    again = [workloads.make_item(workload, 7, "timed", i) for i in range(30)]
    other = [workloads.make_item(workload, 8, "timed", i) for i in range(30)]
    assert first == again
    assert first != other
    assert [s["cls"] for s in first] == [s["cls"] for s in other]
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        f"print(json.dumps([workloads.make_item({workload!r}, 7, 'timed', i) for i in range(30)]))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True, env={"PYTHONHASHSEED": "random"})
    assert json.loads(out.stdout) == json.loads(json.dumps(first))


def test_exact_inputs_match_the_program_constructions():
    import luorbit as lo

    for index in range(len(workloads.EXACT_CLI)):
        spec = workloads.make_item("exact_cli", 3, "timed", index)
        amps = workloads._exact_amplitudes(spec)
        got = lo.StateVector.from_json_dict({"n": spec["n"], "mode": "exact", "amplitudes": amps})
        n = spec["n"]
        if spec["kind"] == "S":
            want = lo.singlet_product(n, spec["pairs"], spec["lone"], mode="exact")
        elif spec["kind"] == "P":
            pair = tuple(spec["pairs"][0])
            rest = tuple(q for q in range(1, n + 1) if q not in pair)
            rest_state = lo.StateVector.from_json_dict(
                {"n": n - 2, "mode": "exact", "amplitudes": spec["rest"]})
            want = lo.embed_product(n, [(pair, lo.canonical_pair_state("exact")),
                                        (rest, rest_state)])
        else:
            continue
        assert got.vector == want.vector


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_planted_truth_and_catch_a_wrong_verdict(workload, tmp_path):
    spec = workloads.make_item(workload, 5, "timed", 0)
    files = workloads.prepare(workload, spec, str(tmp_path))
    output = workloads.execute(workload, spec, files)
    assert workloads.check(workload, spec, files, output) == ""
    wrong = dict(spec, n=spec["n"] + 1)
    files = workloads.prepare(workload, spec, str(tmp_path))
    output = workloads.execute(workload, spec, files)
    assert workloads.check(workload, wrong, files, output) != ""


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_compare_marks_wide_spreads_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [130.0, 131.0, 129.0, 130.5, 129.5], "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, [100.2, 99.8, 100.1, 100.0, 99.9], "lower", 0.1)[1] == "same"
    assert compare.verdict(steady, [80.0, 80.5, 79.5, 80.2, 79.8], "lower", 0.1)[1] == "better"
    # a lower median that loses too many of the pairs is no gain
    assert compare.verdict(steady, [97.0, 97.5, 96.5, 101.5, 97.2], "lower", 0.1)[1] == "same"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[1] == "unresolved"
