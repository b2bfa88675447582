"""Which surfplan calls the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Each wrapped call names its span
``<layer>.<call>``; the benchmark's own operation span is ``bench.op``.
Counts come from the objects the calls return (``ConicSolution``,
``SolveReport``), never from inside the package.

Every per-layer metric is reported per operation of the workload (one plan,
one CLI sweep, or one mixed-integer solve), except shares, ratios and the
per-call or per-unit figures their names say.  The layers' self times plus
``trace.other_s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, self_times, within

OP_SPAN = "bench.op"

# name, unit, better
PER_LAYER = [
    ("conic.solves", "count", "lower"),
    ("conic.iterations", "count", "lower"),
    ("conic.us_per_iter", "us", "lower"),
    ("conic.solve_s", "s", "lower"),
    ("conic.solve_self_s", "s", "lower"),
    ("conic.optimal_share", "share", "higher"),
    ("conic.max_iter_solves", "count", "lower"),
    ("conic.setup_calls", "count", "lower"),
    ("conic.setup_s", "s", "lower"),
    ("conic.solves_per_setup", "ratio", "higher"),
    ("conic.self_s", "s", "lower"),
    ("cones.project_calls", "count", "lower"),
    ("cones.project_s", "s", "lower"),
    ("cones.project_share", "share", "lower"),
    ("mip.calls", "count", "lower"),
    ("mip.nodes", "count", "lower"),
    ("mip.nodes_per_call", "ratio", "lower"),
    ("mip.proven_share", "share", "higher"),
    ("mip.self_s", "s", "lower"),
    ("deploy.starts", "count", "lower"),
    ("deploy.outer_iters", "count", "lower"),
    ("deploy.outer_iters_per_start", "ratio", "lower"),
    ("deploy.converged_share", "share", "higher"),
    ("deploy.rate_drops", "count", "lower"),
    ("deploy.airtime_calls", "count", "lower"),
    ("deploy.airtime_s", "s", "lower"),
    ("deploy.self_s", "s", "lower"),
    ("subproblem.build_calls", "count", "lower"),
    ("subproblem.build_s", "s", "lower"),
    ("subproblem.vars", "count", "lower"),
    ("subproblem.rows", "count", "lower"),
    ("radio.eval_calls", "count", "lower"),
    ("radio.eval_s", "s", "lower"),
    ("channel.synthesize_s", "s", "lower"),
    ("channel.self_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.accounted_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _solution(sol) -> dict:
    return {"iterations": sol.iterations, "status": sol.status}


def _mip(sol) -> dict:
    return {"nodes": sol.info.get("nodes", 0), "proven": bool(sol.info.get("proven")),
            "status": sol.status}


def _problem(out) -> dict:
    problem, _ = out
    return {"vars": problem.num_vars, "rows": problem.num_rows}


def _plan(out) -> dict:
    _, _, report = out
    return {"starts": len(report.starts),
            "outer": sum(s.iteration_count for s in report.starts),
            "converged": sum(s.status == "converged" for s in report.starts)}


def _sweep(reports) -> dict:
    rates = [r.min_rate_bps for r in reports]
    return {"drops": sum(b < a for a, b in zip(rates, rates[1:]))}


def targets():
    """``(owner, attribute, span name, describe)`` for ``Tracer.install``.

    Module functions are wrapped under every module that calls them by
    name; methods are wrapped on their class.  ``None`` as span name counts
    the cone projection onto its enclosing solve.
    """
    from surfplan import channel, cli, cones, conic, deploy, mip, subproblem

    return [
        (channel, "synthesize_channels", "channel.synthesize", None),
        (cli, "synthesize_channels", "channel.synthesize", None),
        (cli, "main", "cli.main", None),
        (cli, "sweep_budgets", "deploy.sweep", _sweep),
        (cli, "emit_reports", "cli.emit", None),
        (deploy, "plan_deployment", "deploy.plan", _plan),
        (deploy, "random_phase_iterate", "deploy.random_start", None),
        (deploy, "allocate_airtime", "deploy.airtime", None),
        (deploy, "build_subproblem", "subproblem.build", _problem),
        (subproblem, "build_subproblem", "subproblem.build", _problem),
        (deploy, "solve_mi_conic", "mip.solve", _mip),
        (mip, "solve_mi_conic", "mip.solve", _mip),
        (deploy, "snr", "radio.snr", None),
        (deploy, "evaluate_plan", "radio.evaluate", None),
        (conic.ConicWorkspace, "__init__", "conic.setup", None),
        (conic.ConicWorkspace, "solve", "conic.solve", _solution),
        (cones.BlockProjector, "project_dual", None, None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], untraced_s: float) -> dict:
    """Per-layer metrics from one traced run's spans.

    ``untraced_s`` is the total time of the same operations run without
    wrappers, for the tracing overhead.
    """
    selfs = self_times(spans)
    inside = within(spans, OP_SPAN)
    ops = sum(span.name == OP_SPAN for span in spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    busy = calls = 0.0
    for span, own, inner in zip(spans, selfs, inside):
        if inner:
            by_name[span.name].append(span)
            layer_self[span.layer] += own
            busy += span.busy
            calls += span.calls

    def count(name):
        return len(by_name[name])

    def duration(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def values(name, key):
        return [s.attrs[key] for s in by_name[name] if s.attrs and key in s.attrs]

    def self_of(name):
        return sum(own for span, own, inner in zip(spans, selfs, inside)
                   if inner and span.name == name)

    solves = count("conic.solve")
    statuses = values("conic.solve", "status")
    iterations = sum(values("conic.solve", "iterations"))
    setups = count("conic.setup")
    mip_calls = count("mip.solve")
    starts = sum(values("deploy.plan", "starts"))
    outer = sum(values("deploy.plan", "outer"))
    builds = count("subproblem.build")
    synth = [s.duration for s in spans if s.name == "channel.synthesize"]
    wall = duration(OP_SPAN)
    per = lambda v: _ratio(v, ops)

    out = {
        "conic.solves": per(solves),
        "conic.iterations": per(iterations),
        "conic.us_per_iter": 1e6 * _ratio(duration("conic.solve"), iterations),
        "conic.solve_s": per(duration("conic.solve")),
        "conic.solve_self_s": per(self_of("conic.solve")),
        "conic.optimal_share": _ratio(statuses.count("optimal"), len(statuses)),
        "conic.max_iter_solves": per(statuses.count("max_iter")),
        "conic.setup_calls": per(setups),
        "conic.setup_s": per(duration("conic.setup")),
        "conic.solves_per_setup": _ratio(solves, setups),
        "conic.self_s": per(layer_self["conic"]),
        "cones.project_calls": per(calls),
        "cones.project_s": per(busy),
        "cones.project_share": _ratio(busy, duration("conic.solve")),
        "mip.calls": per(mip_calls),
        "mip.nodes": per(sum(values("mip.solve", "nodes"))),
        "mip.nodes_per_call": _ratio(sum(values("mip.solve", "nodes")), mip_calls),
        "mip.proven_share": _ratio(sum(values("mip.solve", "proven")), mip_calls),
        "mip.self_s": per(layer_self["mip"]),
        "deploy.starts": per(starts),
        "deploy.outer_iters": per(outer),
        "deploy.outer_iters_per_start": _ratio(outer, starts),
        "deploy.converged_share": _ratio(sum(values("deploy.plan", "converged")), starts),
        "deploy.rate_drops": per(sum(values("deploy.sweep", "drops"))),
        "deploy.airtime_calls": per(count("deploy.airtime")),
        "deploy.airtime_s": per(duration("deploy.airtime")),
        "deploy.self_s": per(layer_self["deploy"]),
        "subproblem.build_calls": per(builds),
        "subproblem.build_s": per(layer_self["subproblem"]),
        "subproblem.vars": _ratio(sum(values("subproblem.build", "vars")), builds),
        "subproblem.rows": _ratio(sum(values("subproblem.build", "rows")), builds),
        "radio.eval_calls": per(count("radio.snr") + count("radio.evaluate")),
        "radio.eval_s": per(layer_self["radio"]),
        "channel.synthesize_s": _ratio(sum(synth), len(synth)),
        "channel.self_s": per(layer_self["channel"]),
        "cli.emit_s": per(duration("cli.emit")),
        "cli.self_s": per(layer_self["cli"]),
        "trace.ops": ops,
        "trace.wall_s": per(wall),
        "trace.other_s": per(layer_self["bench"]),
        "trace.accounted_share": 1.0 - _ratio(layer_self["bench"], wall),
        "trace.overhead_share": _ratio(wall, untraced_s) - 1.0 if untraced_s else 0.0,
    }
    return out
