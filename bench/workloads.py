"""The desk-scene workloads: inputs from a seed, one operation, its checks.

Each workload turns ``(seed, index)`` into one input, runs one operation on
it through surfplan's public entry points, and checks what came back.  The
package is reached through module attributes looked up at call time
(``deploy.plan_deployment``), so a tracer that swaps those attributes sees
every call the benchmark makes.

Three scales share the code.  ``desk`` is the shipped 8-user, 6-surface
scene under the configurations of acceptance criteria 7 and 8; one pass
over it takes minutes.  ``bench`` plans for 2 users and 2 surfaces with the
same settings apart from the first-solve cap, so a time-boxed run completes
tens of operations on distinct inputs.  ``tiny`` is a smoke scale for tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from surfplan import channel, cli, deploy, mip, radio, scenes, subproblem
from surfplan.conic import INFEASIBLE, OPTIMAL, UNBOUNDED

# criterion 7: one tight-tolerance start at budget L
PLAN_CONFIG = dict(num_starts=1, solver_tol=1e-6, first_iter_max_iter=30_000)
# criterion 8: a loose-tolerance sweep with capped B&B
SWEEP_CONFIG = dict(num_starts=3, max_iters=4, solver_tol=1e-4, objective_tol=3e-4,
                    first_iter_max_iter=10_000, solver_max_iter=40_000,
                    node_limit=8, mip_gap=1e-3)
# one mixed-integer solve per budget, as in the sweep's inner solves
NODES_CONFIG = dict(tol=1e-4, max_iter=40_000, node_limit=8, prune_gap=1e-3)

FEAS_TOL = 1e-9       # airtime and unit-modulus slack allowed by the checks
RATE_RTOL = 1e-9      # report files carry 12 significant digits
SOLVER_FAILURE_EXIT = 3   # surfplan.cli.main's code for a solver failure


@dataclass(frozen=True)
class Scale:
    """Scene size and planner overrides per workload."""

    name: str
    scenes: dict
    deploy: dict = field(default_factory=dict)
    timed: bool = True      # sized by --seconds; otherwise one fixed pass

    def scene(self, workload: str, seed: int):
        return scenes.desk_scene(**self.scenes[workload], seed=seed)

    def overrides(self, workload: str) -> dict:
        return self.deploy.get(workload, {})


_WORKLOADS = ("desk_plan", "desk_sweep", "desk_nodes")
_DESK = dict(num_ues=8, num_surfaces=6, bs_antennas=4, surface_elements=4)
_SMALL = dict(num_ues=2, num_surfaces=2, bs_antennas=4, surface_elements=4)
SCALES = {
    "desk": Scale("desk", {w: _DESK for w in _WORKLOADS}, timed=False),
    # At desk size every start's first solve stops at first_iter_max_iter.
    # Small subproblems converge in a twentieth of the iterations, so the
    # cap shrinks by that factor to keep binding; otherwise the plan time
    # would hinge on how long one stiff random-phase solve happens to run.
    # One start per sweep triples the scenes a run covers, which steadies
    # its median rate.
    "bench": Scale("bench", {w: _SMALL for w in _WORKLOADS},
                   deploy={"desk_plan": dict(first_iter_max_iter=1_500),
                           "desk_sweep": dict(first_iter_max_iter=500, num_starts=1)}),
    # With max_iters=1 the tiny sweep stops before static surfaces agree on
    # one phase profile, and finalizing raises; two outer iterations suffice.
    "tiny": Scale("tiny", {w: dict(_SMALL, num_surfaces=3) for w in _WORKLOADS},
                  deploy={w: dict(max_iters=2) for w in _WORKLOADS}, timed=False),
}


@dataclass
class Outcome:
    """What one operation returned, reduced to what the benchmark reports."""

    attempted: int
    failed: int = 0
    rates: list = field(default_factory=list)        # exact worst-user rates
    objectives: list = field(default_factory=list)   # lifted objectives
    fingerprint: object = None   # compared between traced and untraced runs
    problems: list = field(default_factory=list)     # failed correctness checks


def instance_seed(seed: int, index: int) -> int:
    """Scene and planner seed of operation ``index``; index 0 keeps ``seed``."""
    return seed * 10_000 + index


def _check_plan(problems, channels, budget, plan, allocation, reported, tau_min):
    """Gate shared by every returned plan: exact re-score and feasibility."""
    score = radio.evaluate_plan(channels, plan, allocation)
    if score.min_rate != reported:
        problems.append(f"re-scored min rate {score.min_rate!r} != reported {reported!r}")
    if plan.alpha.sum() > budget:
        problems.append(f"{plan.alpha.sum()} reconfigurable surfaces exceed budget {budget}")
    tau = allocation.tau
    if np.any(tau < tau_min - FEAS_TOL) or tau.sum() > 1.0 + FEAS_TOL:
        problems.append(f"airtime {tau} violates tau_min {tau_min} or sums above one")
    for name, arr in (("theta", plan.theta), ("phi", plan.phi)):
        if arr.size and np.abs(np.abs(arr) - 1.0).max() > FEAS_TOL:
            problems.append(f"{name} is not unit-modulus")


class Workload:
    name = ""
    why = ""
    # Mean seconds of one bench-scale operation on a 2-core x86-64 host.  A
    # timed run makes as many operations as fit its --seconds at this pace.
    # The count depends on --seconds alone, never on the clock, so one seed
    # always gives the same operations, the same results and the same
    # attempted and failed counts.
    op_s = 1.0

    def __init__(self, scale: Scale, tmp_root: str):
        self.scale = scale
        self.tmp_root = tmp_root
        self.dims = scale.scenes[self.name]

    def budgets(self) -> list:
        return list(range(self.dims["num_surfaces"] + 1))

    def fixed_ops(self) -> int:
        """Operations in one untimed pass."""
        return 1

    def operations(self, seconds: float, trace: bool) -> int:
        """Operations in one run.  A traced run makes each one twice."""
        if not self.scale.timed:
            return self.fixed_ops()
        return max(1, round(seconds / (self.op_s * (2 if trace else 1))))

    def prepare(self, seed: int, index: int):
        """The input of operation ``index``: synthesized outside the timing."""
        raise NotImplementedError

    def run(self, inp):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def outcome(self, inp, raw) -> Outcome:
        """Checks and reduces ``raw``; never raises on a wrong answer."""
        raise NotImplementedError

    def failed_outcome(self, inp) -> Outcome:
        """Outcome of an operation that raised."""
        n = self.attempts(inp)
        return Outcome(attempted=n, failed=n, fingerprint="raised")

    def attempts(self, inp) -> int:
        return 1


class DeskPlan(Workload):
    name = "desk_plan"
    op_s = 1.0
    why = ("one tight-tolerance single-start plan at budget L: solver core and "
           "cone projections, few B&B nodes, no sweep")

    def prepare(self, seed, index):
        s = instance_seed(seed, index)
        channels = channel.synthesize_channels(self.scale.scene(self.name, s))
        cfg = deploy.DeployConfig(budget=self.dims["num_surfaces"], seed=s,
                                  **{**PLAN_CONFIG, **self.scale.overrides(self.name)})
        return channels, cfg

    def run(self, inp):
        channels, cfg = inp
        return deploy.plan_deployment(channels, cfg)

    def outcome(self, inp, raw):
        channels, cfg = inp
        plan, allocation, report = raw
        out = Outcome(attempted=self.attempts(inp))
        out.failed = sum(s.solver_status != OPTIMAL for s in report.starts)
        _check_plan(out.problems, channels, cfg.budget, plan, allocation,
                    report.min_rate_bps, 1.0 / (2 * channels.num_ues))
        out.rates = [report.min_rate_bps]
        out.objectives = [report.best.final_objective]
        out.fingerprint = [(s.status, s.solver_status, s.min_rate_bps,
                            tuple(s.objective_trace), tuple(s.slack_trace))
                           for s in report.starts]
        return out

    def attempts(self, inp):
        return inp[1].num_starts


class DeskSweep(Workload):
    name = "desk_sweep"
    op_s = 0.92
    why = ("budgets 0..L through the CLI at loose tolerance: many workspaces, "
           "capped B&B, sweep logic, rate nesting and report writing")

    def prepare(self, seed, index):
        s = instance_seed(seed, index)
        doc = {
            "scene": {"kind": "desk", **self.dims, "seed": s},
            "budgets": self.budgets(),
            "deploy": {**SWEEP_CONFIG, **self.scale.overrides(self.name), "seed": s},
        }
        channels = channel.synthesize_channels(self.scale.scene(self.name, s))
        return channels, doc

    def run(self, inp):
        channels, doc = inp
        plans = []
        planner = deploy.plan_deployment

        def capture(ch, cfg):
            out = planner(ch, cfg)
            plans.append(out)
            return out

        with tempfile.TemporaryDirectory(dir=self.tmp_root) as tmp:
            config = os.path.join(tmp, "run.json")
            with open(config, "w") as fh:
                json.dump(doc, fh)
            out_dir = os.path.join(tmp, "out")
            deploy.plan_deployment = capture
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["--config", config, "--out", out_dir])
            finally:
                deploy.plan_deployment = planner
            files = {}
            for name in ("sweep.csv", "report.json"):
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    with open(path) as fh:
                        files[name] = fh.read()
        return code, files, plans

    def outcome(self, inp, raw):
        channels, doc = inp
        code, files, plans = raw
        budgets = doc["budgets"]
        out = Outcome(attempted=self.attempts(inp), fingerprint=files)
        if code == SOLVER_FAILURE_EXIT:
            # The CLI's documented solver-failure exit: the sweep failed and
            # said so, as a raise does on the other workloads.  It must still
            # leave a report that records the failure.
            out.failed = out.attempted
            if "failed" not in json.loads(files.get("report.json", "{}")):
                out.problems.append("solver-failure exit without a failure report")
            return out
        if code != 0:
            out.failed = out.attempted
            out.problems.append(f"CLI exited with code {code}")
            return out
        rows = files["sweep.csv"].strip().splitlines()[1:]
        if len(rows) != out.attempted:
            out.problems.append(f"sweep.csv has {len(rows)} rows, expected "
                                f"{out.attempted} (budgets x starts)")
        runs = json.loads(files["report.json"])["runs"]
        tau_min = 1.0 / (2 * channels.num_ues)
        bw = channels.bandwidth_hz
        for run in runs:
            for s in run["starts"]:
                out.failed += s["solver_status"] != OPTIMAL
                rate = min(radio.achievable_rate(t, bw, g) for t, g in zip(s["tau"], s["snr"]))
                if not math.isclose(rate, s["min_rate_bps"], rel_tol=RATE_RTOL):
                    out.problems.append(f"budget {run['budget']} start {s['start']}: "
                                        f"rate {rate!r} != reported {s['min_rate_bps']!r}")
                if sum(s["alpha"]) > run["budget"]:
                    out.problems.append(f"budget {run['budget']} exceeded")
                if min(s["tau"]) < tau_min - FEAS_TOL or sum(s["tau"]) > 1.0 + FEAS_TOL:
                    out.problems.append(f"budget {run['budget']}: airtime out of bounds")
        if len(plans) != len(budgets):
            out.problems.append(f"{len(plans)} plans returned for {len(budgets)} budgets")
        for budget, run, (plan, allocation, report) in zip(budgets, runs, plans):
            _check_plan(out.problems, channels, budget, plan, allocation,
                        report.min_rate_bps, tau_min)
            if not math.isclose(report.min_rate_bps, run["min_rate_bps"], rel_tol=RATE_RTOL):
                out.problems.append(f"budget {budget}: report.json rate differs from plan")
            out.rates.append(report.min_rate_bps)
            out.objectives.append(report.best.final_objective)
        return out

    def attempts(self, inp):
        return inp[1]["deploy"]["num_starts"] * len(inp[1]["budgets"])


class DeskNodes(Workload):
    name = "desk_nodes"
    op_s = 0.27
    why = ("one mixed-integer subproblem per budget, outer loop bypassed: "
           "warm-started B&B re-solves on one factored workspace")

    def fixed_ops(self):
        return len(self.budgets())

    def prepare(self, seed, index):
        # Budgets cycle.  The untimed pass gives every budget the first
        # scene and start, as at desk size; a timed run draws a fresh scene
        # for each operation, so its operations are independent samples.
        cycle = len(self.budgets())
        s = instance_seed(seed, index if self.scale.timed else index // cycle)
        budget = index % cycle
        channels = channel.synthesize_channels(self.scale.scene(self.name, s))
        return channels, budget, s

    def run(self, inp):
        channels, budget, s = inp
        iterate = deploy.random_phase_iterate(channels, s)
        problem, lay = subproblem.build_subproblem(channels, budget, iterate)
        sol = mip.solve_mi_conic(problem, lay.alpha, budget, **NODES_CONFIG)
        return problem, lay, sol

    def outcome(self, inp, raw):
        channels, budget, _ = inp
        problem, lay, sol = raw
        out = Outcome(attempted=1, failed=int(sol.status != OPTIMAL))
        out.fingerprint = (sol.status, sol.iterations, sol.info.get("nodes"),
                           sol.info.get("proven"), sol.objective)
        if sol.status in (INFEASIBLE, UNBOUNDED):
            out.problems.append(f"budget {budget}: slack-padded subproblem reported {sol.status}")
            return out
        x = sol.x
        res = np.linalg.norm(problem.A @ x + sol.s - problem.b) / (1.0 + np.linalg.norm(problem.b))
        if sol.status == OPTIMAL and res > 10 * NODES_CONFIG["tol"]:
            out.problems.append(f"budget {budget}: primal residual {res:.2e} for an optimal solve")
        alpha = x[lay.alpha]
        # B&B counts a coordinate its bounds pin as integral, so a pinned
        # binary is only as exact as the solve tolerance
        integral = np.abs(alpha - np.round(alpha)).max(initial=0.0) <= NODES_CONFIG["tol"]
        if sol.info.get("proven") and not integral:
            out.problems.append(f"budget {budget}: proven incumbent is fractional")
        if integral and np.round(alpha).sum() > budget:
            out.problems.append(f"budget {budget}: incumbent exceeds the budget")
        out.rates = [self._rate(channels, lay, x, budget)]
        out.objectives = [-sol.objective]
        return out

    @staticmethod
    def _rate(channels, lay, x, budget) -> float:
        """Exact worst-user rate of the plan read off the relaxed solution."""
        K, L, M = channels.num_ues, channels.num_surfaces, channels.num_elements
        vals = x[lay.alpha]
        alpha = np.zeros(L, dtype=int)
        alpha[np.argsort(-vals, kind="stable")[:budget]] = 1
        alpha &= vals >= 0.5
        z = lay.extract_z(x).reshape(K, L, M)
        unit = lambda v: np.where(np.abs(v) > 0, v / np.maximum(np.abs(v), 1e-300), 1.0)
        plan = radio.SurfacePlan(alpha=alpha, theta=unit(z.mean(axis=0)),
                                 phi=unit(np.transpose(z, (1, 0, 2))))
        tau = np.clip(x[lay.tau], 0.0, None)
        tau = tau / max(tau.sum(), 1.0)
        return radio.evaluate_plan(channels, plan, radio.Allocation(tau)).min_rate


WORKLOADS = {w.name: w for w in (DeskPlan, DeskSweep, DeskNodes)}
