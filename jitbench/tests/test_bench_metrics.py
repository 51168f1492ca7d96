"""BENCHMARK.json, layers.json and the emitted metrics agree."""

import json
from pathlib import Path

from host import Timing
from metrics import END_TO_END, end_to_end, layer_metrics, read_metrics, trace_overhead
from workloads import Recorder

BENCH = Path(__file__).resolve().parents[1]


def _emitted_layers():
    stats = {"cache": {"hits": 3, "misses": 1, "stale": 0, "evicted": 0, "invalidated": 0},
             "access": {"recorded": 4, "dropped": 0}}
    rec = Recorder(rounds=2, read_ms=[1.0] * 1000, read_wall_s=1.0,
                   onboard=[Timing(0.1, 1.0)])
    layers = layer_metrics({"spans": [], "stats": (stats, stats)}, rec)
    layers.update(read_metrics(rec))
    plain = dict.fromkeys(END_TO_END, 1.0)
    layers.update(trace_overhead(plain, plain))
    return {name: unit for name, (_value, unit) in layers.items()}


def test_benchmark_file_lists_exactly_the_emitted_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == _emitted_layers()
    assert bench["paths"] == [BENCH.name]
    assert bench["command"] == ["python3", f"{BENCH.name}/run.py"]


def test_every_layer_metric_names_what_it_should_move():
    moves = json.loads((BENCH / "layers.json").read_text())["moves"]
    assert set(moves) == set(_emitted_layers())
    workloads = set(json.loads((BENCH / "layers.json").read_text())["workloads"]) | {"*"}
    for targets in moves.values():
        for target in targets:
            metric, _, workload = target.partition("@")
            assert metric in END_TO_END or metric in moves or metric == "failed", target
            assert workload in workloads, target


def test_end_to_end_timings_are_host_corrected_medians():
    rec = Recorder(onboard=[Timing(0.3, 1.0), Timing(0.2, 2.0), Timing(0.5, 1.0)],
                   epoch=[Timing(3.0, 1.5)], peak_rss_mb=80.0)
    setups = [Timing(2.0, 1.0), Timing(3.0, 2.0), Timing(1.8, 1.0)]
    values = end_to_end(rec, setups)
    assert values["setup_s"] == 1.8
    assert abs(values["onboard_ms"] - 300.0) < 1e-9
    assert values["epoch_s"] == 2.0 and values["peak_rss_mb"] == 80.0
