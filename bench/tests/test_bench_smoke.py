"""Each workload's code path, plain and traced, on a tiny scene."""

import pytest

import layers
import run
import workloads
from tracer import self_times


def _originals():
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            for owner, attr, _, _ in layers.targets()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_checks_and_traces(name, tmp_path):
    before = _originals()
    workload = workloads.WORKLOADS[name](workloads.SCALES["tiny"], str(tmp_path))
    record = run.benchmark(workload, seed=3, seconds=0.0, trace=True)

    # the wrappers are gone once the traced run ends
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still wrapped"

    outcomes = record["outcomes"]
    assert len(outcomes) == workload.fixed_ops()
    assert [p for o in outcomes for p in o.problems] == []
    assert sum(o.attempted for o in outcomes) >= 1

    spans = record["tracer"].spans
    metrics = layers.layer_metrics(spans, sum(record["times"]))
    assert set(metrics) == set(layers.UNITS)
    assert metrics["trace.ops"] == workload.fixed_ops()
    assert metrics["conic.solves"] > 0 and metrics["cones.project_calls"] > 0

    # layer self times plus the remainder add up to the traced wall time
    layer_sum = sum(metrics[m] for m in (
        "conic.self_s", "cones.project_s", "mip.self_s", "deploy.self_s",
        "subproblem.build_s", "radio.eval_s", "channel.self_s", "cli.self_s",
        "trace.other_s"))
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert all(s >= -1e-9 for s in self_times(spans))

    e2e = run.end_to_end_metrics(record, setup_s=0.1)
    assert [name for name, *_ in run.END_TO_END] == list(e2e)
    assert e2e["wall_s"] > 0 and e2e["min_rate_bps"] > 0


def test_deploy_layer_is_idle_on_desk_nodes(tmp_path):
    workload = workloads.WORKLOADS["desk_nodes"](workloads.SCALES["tiny"], str(tmp_path))
    record = run.benchmark(workload, seed=0, seconds=0.0, trace=True)
    metrics = layers.layer_metrics(record["tracer"].spans, sum(record["times"]))
    assert metrics["deploy.starts"] == metrics["deploy.airtime_calls"] == 0
    assert metrics["mip.calls"] == 1


def test_instances_follow_the_seed(tmp_path):
    workload = workloads.WORKLOADS["desk_plan"](workloads.SCALES["bench"], str(tmp_path))
    a, b, c = (workload.prepare(seed, 0) for seed in (5, 5, 6))
    assert (a[0].h == b[0].h).all() and a[1] == b[1]
    assert not (a[0].h == c[0].h).all()
    assert workloads.instance_seed(0, 0) == 0


def test_sweep_solver_failure_counts_as_failed_not_wrong(tmp_path):
    workload = workloads.WORKLOADS["desk_sweep"](workloads.SCALES["tiny"], str(tmp_path))
    inp = workload.prepare(0, 0)
    n = workload.attempts(inp)
    report = {"report.json": '{"budgets": [], "runs": [], "failed": "max_iter"}'}
    reported = workload.outcome(inp, (workloads.SOLVER_FAILURE_EXIT, report, []))
    assert (reported.failed, reported.problems) == (n, [])
    silent = workload.outcome(inp, (workloads.SOLVER_FAILURE_EXIT, {}, []))
    assert silent.failed == n and silent.problems
    crashed = workload.outcome(inp, (1, report, []))
    assert crashed.failed == n and crashed.problems


def test_run_size_follows_seconds_not_the_clock(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.SCALES["bench"], str(tmp_path))
        plain = workload.operations(36.0, trace=False)
        assert plain == round(36.0 / workload.op_s) >= 1, name
        assert abs(2 * workload.operations(36.0, trace=True) - plain) <= 1, name
        assert workload.operations(0.0, trace=False) == 1
    tiny = workloads.WORKLOADS["desk_nodes"](workloads.SCALES["tiny"], str(tmp_path))
    assert tiny.operations(36.0, trace=False) == tiny.fixed_ops()
