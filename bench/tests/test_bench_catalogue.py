"""Metric names, units and limits, and their agreement with BENCHMARK.json."""

import json
import os
import re

import layers
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def test_names_units_and_limits():
    e2e = [name for name, *_ in run.END_TO_END]
    per_layer = [name for name, *_ in layers.PER_LAYER]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(per_layer) <= 128
    names = e2e + per_layer + list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    units = [u for _, u, *_ in run.END_TO_END] + [u for _, u, _ in layers.PER_LAYER]
    for unit in units:
        assert UNIT.fullmatch(unit), unit
    for _, _, better, bound in run.END_TO_END:
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    assert ("setup_s", "s", "lower", max(b for *_, b in run.END_TO_END)) in run.END_TO_END


def test_benchmark_json_matches_the_code():
    with open(SPEC) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]
    # a full acceptance pass is 4 + 22 * workloads runs of this length within 3420 s
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 6) <= 3420
