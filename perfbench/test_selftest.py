"""Self-test of the benchmark on tiny scenes, in a few seconds:

    python3 -m pytest perfbench

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that the traced/untraced equality check fires on an altered output, that
an operation raising SpecAngleError is counted as failed while the run goes
on, and that the host-speed sampler leaves its own time out of a call's.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from workloads import Map, Op, Protocol, SceneFit  # noqa: E402

TINY_PIPELINES = Protocol.defaults["pipelines"]
TINY = {
    "protocol": (Protocol, dict(size=24, bands=16, classes=4, r=4, n_train=4,
                                n_test=6, trials=2, floors={})),
    "map": (Map, dict(size=18, bands=16, classes=4, r=12, sparsity=1, n_train=4, floors={})),
    "scene-fit": (SceneFit, dict(size=24, bands=16, classes=4, check_train=4,
                                 check_test=10, floors={},
                                 fits=(("slspp", 6, 3), ("lspp", 6, None), ("lada", 3, None)))),
}


def _tiny(name, tmp_path, **overrides):
    cls, params = TINY[name]
    return cls(3, tmp_path / name, **{**params, **overrides})


def _payload(name, result, trace):
    args = argparse.Namespace(seed=3, seconds=0, trace=trace)
    text = run.report(name, args, {}, result)
    return text, json.loads(text.splitlines()[-1])


def _declared_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run.run_benchmark(_tiny(name, tmp_path), seconds=0, trace=trace)
    _, payload = _payload(name, result, trace)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"], result["problems"]
    assert payload["failed"] == 0
    emitted = {k: v["unit"] for k, v in payload["metrics"].items()}
    assert emitted == _declared_units("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], float) for v in payload["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_altered_traced_output_is_caught(name, tmp_path, monkeypatch):
    wl = _tiny(name, tmp_path)
    traced = wl.traced_pass

    def altered(tr):
        first, *rest = traced(tr)
        return [Op(first.name, first.output + b"\n"), *rest]

    monkeypatch.setattr(wl, "traced_pass", altered)
    result = run.run_benchmark(wl, seconds=0, trace=1)
    assert any(p.startswith("traced pass 1: ") for p in result["problems"])
    _, payload = _payload(name, result, 1)
    assert payload["correct"] is False


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_operation_is_counted_and_the_run_goes_on(trace, tmp_path):
    # An even dictionary window makes extract_neighborhood raise EvenWindowError.
    wl = _tiny("protocol", tmp_path, pipelines=TINY_PIPELINES + (("slspp", "sbomp", 2),))
    result = run.run_benchmark(wl, seconds=0, trace=trace)
    text, payload = _payload("protocol", result, trace)
    passes = 4 if trace else 2  # warm-up, untraced, traced and memory passes
    assert (payload["attempted"], payload["failed"]) == (7 * passes, passes)
    assert payload["correct"], result["problems"]
    assert "op slspp/sbomp FAILED EvenWindowError" in text
    assert f"metric error_rate {1 / 7:.6g} fraction" in text
    assert len(result["accuracies"]) == 6
    if not trace:
        assert payload["metrics"]["success_rate"]["value"] == pytest.approx(6 / 7)


def test_failed_cli_command_is_counted(tmp_path):
    wl = _tiny("scene-fit", tmp_path, fits=(("lspp", 6, None), ("lspp", 17, None)))
    result = run.run_benchmark(wl, seconds=0, trace=0)
    assert (result["attempted"], result["failed"]) == (4, 2)  # warm-up and one timed pass
    assert result["reference"][1].error_type == "ReducedDimTooLargeError"


def test_split_seed_drift_fails_loudly(tmp_path, monkeypatch):
    from specangle import evaluate

    monkeypatch.setattr(evaluate, "_split_seed", lambda seed, trial: seed + trial)
    with pytest.raises(RuntimeError, match="_split_seed"):
        run.run_benchmark(_tiny("protocol", tmp_path), seconds=0, trace=1)


def test_host_speed_samples_inside_a_call_and_leaves_them_out():
    def busy():  # about 0.6 s of wall time, samples included
        start = time.perf_counter()
        while time.perf_counter() < start + 0.6:
            pass
        return time.perf_counter() - start

    host = HostSpeed()
    [(elapsed, wall, scaled)] = host.timed([busy])
    inside = host.kernel_s[1:-1]  # the first and last run before and after
    assert len(inside) >= 2
    assert wall == pytest.approx(elapsed - sum(inside), abs=0.002)
    assert scaled == pytest.approx(wall * REFERENCE_S / statistics.fmean(host.kernel_s))
