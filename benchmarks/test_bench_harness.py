"""Tests of the benchmark's own code: percentile rule, self time, seeded
inputs, and that tracing leaves the program as it found it."""

import json
import os
import sys

import pytest

import measure
import workloads
from spans import Recorder, self_times, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(1, 21)) == (50, 10)
    assert tail_percentile(range(1, 101)) == (90, 90)
    assert tail_percentile(range(1, 200)) == (90, 180)
    assert tail_percentile(range(1, 201)) == (95, 190)
    assert tail_percentile(range(1, 1001)) == (99, 990)
    assert tail_percentile(reversed(range(1, 1001))) == (99, 990)
    with pytest.raises(ValueError):
        tail_percentile(range(19))


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", None, "outer", 0.0, 10.0, None),
        ("b", "a", "leaf", 1.0, 4.0, None),
        ("c", "a", "mid", 5.0, 9.0, None),
        ("d", "c", "leaf", 6.0, 8.0, None),
    ]
    assert self_times(spans) == pytest.approx({"outer": 3.0, "mid": 2.0, "leaf": 5.0})


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_depend_only_on_the_seed(cls):
    def inputs(seed):
        return cls(seed).calls

    assert inputs(3) == inputs(3)
    assert len({repr(inputs(seed)) for seed in range(8)}) > 1
    sizes = [cls(seed).work() for seed in range(8)]
    key = "rows" if "rows" in sizes[0] else "ideals"
    assert max(s[key] for s in sizes) <= 1.1 * min(s[key] for s in sizes)


def _attributes():
    return {(name, attr): value
            for name, mod in sys.modules.items() if name.startswith("tjspectra")
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("trace", [False, True])
def test_patch_restores_every_attribute(trace):
    before = _attributes()
    rec = Recorder(trace=trace)
    with rec.patch():
        out = workloads.run_cli(["sweep", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1"])
    assert "swh\t7,7,1,1\t36\t35\t3/9604" in out
    assert [(key, ok) for key, _, ok in rec.items] == [("swh:a=7,b=7,c=1,d=1:tjurina", True)]
    if trace:
        assert rec.counts["spectra.stats_calls"] == 4
        assert rec.counts["families.values"] == 36
    with pytest.raises(RuntimeError):
        with rec.patch():
            raise RuntimeError("inside the patched block")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_runs_report_the_metrics_benchmark_json_names(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    work = workloads.EngineCorpus(workloads.DEFAULT_SEED)
    untraced = measure.untraced(work, 0)
    assert (untraced["attempted"], untraced["failed"]) == (len(work.calls), 0)
    assert set(untraced["metrics"]) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    traced = measure.traced(work, 0, str(tmp_path))
    assert traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
