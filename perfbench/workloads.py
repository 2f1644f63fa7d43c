"""The three benchmark workloads, their timed loops and their checks.

Every workload reaches the program through public entry points only:
``IndexAdvisor`` for the two one-shot workloads, an in-process
``AdvisorService`` for ``service-mixed``.  All pricing runs against the
analytic backend (the default vectorized kernel), with no modeled
latency.

* ``advise-default`` -- one client, closed loop.  Each request builds a
  fresh ``IndexAdvisor`` and calls ``recommend`` with the library default
  algorithm (``extend+swap``) on the Appendix C generator at fig2 scale.
  This is what a library user pays for a cold recommendation.
* ``advise-wide`` -- the same pattern with ``algorithm="extend"`` (the CLI
  and service default) on the enterprise generator at scale 0.3, where
  the report dominates and the swap never runs.
* ``service-mixed`` -- two client threads in a closed loop against one
  service with default settings: 70% recommend, 10% sweep, 20% drift
  update over three tenants.

A one-shot *cycle* visits the budget shares in a seeded order; at each
it times a cold recommend on a fresh advisor, then a warm repeat of it
on the same advisor (its what-if cache now holds every cost the
request needs).  Six library sweeps over the same shares, each on a
fresh advisor, end the cycle.  The warm repeats and the sweeps are
probes that give the one-shot workloads real ``recommend_warm_p50_s``
and ``sweep_p50_s`` figures; throughput and the recommend percentiles
count the cold recommends only.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import hostspeed
from repro import (
    AdvisorService,
    GeneratorConfig,
    IndexAdvisor,
    RecommendRequest,
    generate_workload,
)
from repro.advisor import coerce_budget, run_selection
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.memory import configuration_memory
from repro.service.request import SweepRequest
from repro.workload.drift import DriftConfig, drifting_workloads
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.query import Workload

MIN_CYCLES = 1
"""One-shot runs time at least one whole cycle.  In reference seconds
repeats of one request agree within about 2%, so one cold sample per
share is enough, and advise-default's 18 s cycle is not doubled past
``--seconds``."""

SWEEP_REPEATS = 6
"""Library sweeps per one-shot cycle, each on a fresh advisor: a sweep
is short (0.6 s on advise-default, 0.2 s on advise-wide) and a run may
time a single cycle, so fewer give too few samples for a steady
median."""

COST_TOLERANCE = 1e-9
"""Relative bound between a reported cost and its reference recompute."""

SERVICE_SHARES = (0.05, 0.1, 0.15, 0.2)
SERVICE_DECK = ("recommend",) * 14 + ("sweep",) * 2 + ("update",) * 4
"""One client's op mix (70% recommend, 10% sweep, 20% update), dealt in
seeded shuffled decks so every run holds close to the exact mix."""
SERVICE_TENANTS = 3
SERVICE_CLIENTS = 2
DRIFT_EPOCHS = 6
"""Drift epochs a tenant cycles through; tenant ``t`` starts at epoch
``t`` and each update moves it to the next epoch (wrapping).  A small
cycle keeps the post-run reference checks to a few dozen selections."""


def fig2_workload():
    """Appendix C generator at fig2 scale: 10 x 50 attributes, 20
    templates per table, seed 1909."""
    return generate_workload(
        GeneratorConfig(
            tables=10, attributes_per_table=50, queries_per_table=20,
            seed=1909,
        )
    )


def enterprise_workload():
    """Enterprise generator at scale 0.3 (150 tables, 1 261 attributes,
    681 templates), seed 500."""
    return generate_enterprise_workload(EnterpriseConfig(scale=0.3, seed=500))


@dataclass(frozen=True)
class OneShotSpec:
    make: Callable[[], Workload]
    shares: tuple[float, ...]
    algorithm: str | None
    """``None`` calls ``recommend`` without ``algorithm=`` (the library
    default, whatever it is at the commit under test)."""


ONE_SHOT = {
    "advise-default": OneShotSpec(fig2_workload, (0.05, 0.1, 0.2), None),
    "advise-wide": OneShotSpec(
        enterprise_workload, (0.05, 0.1, 0.2, 0.3), "extend"
    ),
}
WORKLOADS = (*ONE_SHOT, "service-mixed")


def tiny_workload():
    """A few-millisecond workload that loads every code path once."""
    return generate_workload(
        GeneratorConfig(
            tables=2, attributes_per_table=6, queries_per_table=4, seed=7
        )
    )


@dataclass
class Op:
    """One completed (or failed) operation of a timed loop."""

    kind: str
    """``recommend``, ``warm``, ``sweep`` or ``update``."""
    start: float
    """``time.perf_counter()`` when the op was sent."""
    share: float | None = None
    result: object = None
    """SelectionResult, SweepResult or service response."""
    epoch: int | None = None
    error: str | None = None
    end: float = field(default_factory=time.perf_counter)
    """``time.perf_counter()`` when the op returned."""
    seconds: float = 0.0
    """Latency in reference seconds (see ``hostspeed``), set by
    :meth:`Phase.finish`."""


@dataclass
class Phase:
    """The ops of one timed loop and its duration."""

    ops: list[Op] = field(default_factory=list)
    start: float = field(default_factory=time.perf_counter)
    end: float = 0.0
    wall: float = 0.0
    """Duration in wall seconds."""
    seconds: float = 0.0
    """Duration in reference seconds."""

    def finish(self) -> "Phase":
        """Close the phase; convert every latency to reference seconds."""
        self.end = time.perf_counter()
        self.wall = self.end - self.start
        self.seconds = hostspeed.reference_seconds(self.start, self.end)
        for op in self.ops:
            op.seconds = hostspeed.reference_seconds(op.start, op.end)
        return self

    def completed(self, kind: str | None = None) -> list[Op]:
        return [
            op for op in self.ops
            if op.error is None and (kind is None or op.kind == kind)
        ]

    def throughput(self, one_shot: bool) -> float:
        """Ops per second.  One-shot: cold recommends over their own
        time (the probes are excluded); service: every op over the
        phase wall time."""
        ops = self.completed("recommend" if one_shot else None)
        if not ops:
            return 0.0
        if one_shot:
            return len(ops) / sum(op.seconds for op in ops)
        return len(ops) / self.seconds


def _advisor_counters(tracer, advisor) -> None:
    """Add one advisor's lifetime counters (it served whole ops only)."""
    statistics = advisor.optimizer.statistics
    tracer.add("whatif.calls", statistics.calls)
    tracer.add("whatif.cache_hits", statistics.cache_hits)
    kernel = advisor.kernel_stacks.vectorized_statistics()
    tracer.add("kernel.batch_calls", kernel.batch_calls)
    tracer.add("kernel.pairs", kernel.batch_pairs)
    resilience = advisor.resilience.statistics
    tracer.add("resilience.retries", resilience.retries)
    tracer.add("resilience.fallback_calls", resilience.fallback_calls)


# ----------------------------------------------------------------------
# One-shot workloads
# ----------------------------------------------------------------------


class OneShot:
    def __init__(self, spec: OneShotSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.workload = None

    def setup(self) -> None:
        """Input generation plus a warm-up on a tiny workload (one
        recommend and one sweep), so lazily loaded code is loaded."""
        self.workload = self.spec.make()
        tiny = tiny_workload()
        advisor = IndexAdvisor(tiny.schema)
        self._recommend(advisor, tiny, 0.2)
        advisor.recommend_sweep(tiny, budget_shares=self.spec.shares)

    def _recommend(self, advisor, workload, share):
        if self.spec.algorithm is None:
            return advisor.recommend(workload, budget_share=share)
        return advisor.recommend(
            workload, budget_share=share, algorithm=self.spec.algorithm
        )

    def _op(self, phase, tracer, kind, share, call) -> None:
        with tracer.span(f"op.{kind}", "client", cls=kind, w=share):
            started = time.perf_counter()
            try:
                result = call()
            except Exception as error:  # noqa: BLE001 - counted as failed
                phase.ops.append(Op(kind, started, share, error=repr(error)))
                return
            op = Op(kind, started, share, result)
        phase.ops.append(op)

    def run(self, seconds: float, tracer) -> Phase:
        """Whole cycles, as many as fit ``seconds`` reference seconds
        best (at least :data:`MIN_CYCLES`): a cycle starts only if it is
        expected to end nearer to ``seconds`` than stopping now would."""
        phase = Phase()
        workload = self.workload
        schema = workload.schema
        start = phase.start
        cycles = 0
        while True:
            order = list(self.spec.shares)
            self.rng.shuffle(order)
            for share in order:
                advisor = IndexAdvisor(schema)
                for kind in ("recommend", "warm"):
                    self._op(
                        phase, tracer, kind, share,
                        lambda: self._recommend(
                            advisor, workload, share
                        ).result,
                    )
                _advisor_counters(tracer, advisor)
            for _ in range(SWEEP_REPEATS):
                advisor = IndexAdvisor(schema)
                self._op(
                    phase, tracer, "sweep", None,
                    lambda: advisor.recommend_sweep(
                        workload, budget_shares=self.spec.shares
                    ).sweep,
                )
                _advisor_counters(tracer, advisor)
            cycles += 1
            elapsed = hostspeed.elapsed(start)
            mean_cycle = elapsed / cycles
            if cycles >= MIN_CYCLES and elapsed + mean_cycle / 2 >= seconds:
                break
        return phase.finish()

    def close(self) -> None:
        pass

    def check(self, phases: list[Phase], checker: "Checker") -> None:
        """Budget, scalar-cost and consistency checks on every op."""
        workload = self.workload
        cold: dict[float, object] = {}
        for phase in phases:
            for op in phase.completed():
                if op.kind == "sweep":
                    sweep = op.result
                    problems = [] if not sweep.partial else ["partial sweep"]
                    for point in sweep.points:
                        problems += checker.selection(
                            workload, point.budget_share, point.result
                        )
                        problems += checker.against_extend(
                            workload, point.budget_share, point.result
                        )
                    checker.verdict(op, problems)
                    continue
                problems = checker.selection(workload, op.share, op.result)
                first = cold.setdefault(op.share, op.result)
                if not _same(first, op.result):
                    problems.append(
                        f"{op.kind} at w={op.share} differs from the "
                        "first cold recommend at that share"
                    )
                checker.verdict(op, problems)
                if op.kind == "recommend" and not problems:
                    checker.ratios.append(
                        op.result.total_cost / checker.baseline(workload)
                    )


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------


class ServiceMixed:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plans = [
            _client_plan(random.Random(seed * 1000 + client))
            for client in range(SERVICE_CLIENTS)
        ]
        self.service = None

    def setup(self) -> None:
        """Inputs, service construction, registration and warm-up: one
        cold recommend per tenant, so the loop starts in steady state,
        and for tenant 0 (the undrifted fig2 base, the same on every
        seed) one per share, which give ``cost_ratio_gmean``."""
        base = fig2_workload()
        self.epochs = drifting_workloads(
            base, DriftConfig(epochs=DRIFT_EPOCHS, seed=self.seed)
        )
        self.service = AdvisorService(base.schema)
        self.lock = threading.Lock()
        self.current = list(range(SERVICE_TENANTS))
        self.version_epoch: dict[tuple[str, int], int] = {}
        for tenant in range(SERVICE_TENANTS):
            name = f"tenant{tenant}"
            registration = self.service.register_workload(
                name, self.epochs[tenant]
            )
            self.version_epoch[(name, registration.version)] = tenant
        self.base_answers = [
            (share, self.service.recommend(
                RecommendRequest(workload="tenant0", budget_share=share)
            ))
            for share in SERVICE_SHARES
        ]
        for tenant in range(1, SERVICE_TENANTS):
            self.service.recommend(
                RecommendRequest(workload=f"tenant{tenant}",
                                 budget_share=0.1)
            )

    def _client(self, client: int, start: float, seconds: float,
                ops: list, tracer):
        plan = self.plans[client]
        service = self.service
        while hostspeed.elapsed(start) < seconds:
            kind, tenant, share = next(plan)
            name = f"tenant{tenant}"
            started = time.perf_counter()
            try:
                if kind == "recommend":
                    with tracer.span("op.recommend", "client",
                                     cls="client.recommend"):
                        started = time.perf_counter()
                        result = service.recommend(
                            RecommendRequest(workload=name,
                                             budget_share=share)
                        )
                elif kind == "sweep":
                    with tracer.span("op.sweep", "client",
                                     cls="client.sweep"):
                        started = time.perf_counter()
                        result = service.sweep(
                            SweepRequest(workload=name,
                                         budget_shares=SERVICE_SHARES)
                        )
                else:
                    with self.lock:
                        epoch = (self.current[tenant] + 1) % DRIFT_EPOCHS
                        with tracer.span("op.update", "client",
                                         cls="update"):
                            started = time.perf_counter()
                            result = service.update_workload(
                                name, self.epochs[epoch]
                            )
                            op = Op(kind, started, epoch=epoch)
                        self.current[tenant] = epoch
                        self.version_epoch[(name, result.version)] = epoch
                    ops.append(op)
                    continue
            except Exception as error:  # noqa: BLE001 - counted as failed
                ops.append(Op(kind, started, share, error=repr(error)))
                continue
            ops.append(Op(kind, started, share, result))

    def run(self, seconds: float, tracer) -> Phase:
        """Both clients in a closed loop until ``seconds`` reference
        seconds have passed; an op in flight then completes and counts."""
        phase = Phase()
        per_client: list[list[Op]] = [[] for _ in range(SERVICE_CLIENTS)]
        start = phase.start
        threads = [
            threading.Thread(
                target=self._client,
                args=(client, start, seconds, per_client[client], tracer),
                name=f"perfbench-client-{client}",
            )
            for client in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for ops in per_client:
            phase.ops.extend(ops)
        phase.finish()
        for op in phase.ops:
            if op.kind in ("recommend", "sweep") and op.error is None:
                op.epoch = self.version_epoch.get(
                    (op.result.workload, op.result.workload_version)
                )
        return phase

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def counters(self) -> dict[str, float]:
        """Lifetime counters of the service's (vectorized) cost stack."""
        stacks = self.service.kernel_stacks
        resilient, optimizer = stacks.stack("vectorized")
        kernel = stacks.vectorized_statistics()
        coalescer = self.service.coalescer("vectorized").statistics.copy()
        return {
            "whatif.calls": optimizer.statistics.calls,
            "whatif.cache_hits": optimizer.statistics.cache_hits,
            "kernel.batch_calls": kernel.batch_calls,
            "kernel.pairs": kernel.batch_pairs,
            "resilience.retries": resilient.statistics.retries,
            "resilience.fallback_calls": resilient.statistics.fallback_calls,
            "coalescer.wait_s": coalescer.waiter_wait_seconds_total,
            "coalescer.enqueued": coalescer.enqueued_pairs,
            "coalescer.deduped": coalescer.deduped_pairs,
            "coalescer.batches": coalescer.batches,
            "coalescer.dispatched": coalescer.dispatched_pairs,
        }

    def check(self, phases: list[Phase], checker: "Checker") -> None:
        """Every answer equals a fresh ``run_selection(extend)`` for the
        same workload version and budget; every sweep point equals that
        budget's recommend; budgets and scalar costs hold.

        The cost ratios come from the set-up answers on the undrifted
        base: drifted epochs differ per seed, and the ratio at w=0.2 is
        a tiny residual cost that varies by orders of magnitude across
        epochs, so ratios over timed answers would measure the seed."""
        base = self.epochs[0]
        for share, response in self.base_answers:
            result = response.result
            problems = checker.selection(base, share, result)
            problems += checker.against_extend(base, share, result)
            checker.verdict(Op("recommend", 0.0, share, response), problems)
            if not problems:
                checker.ratios.append(
                    result.total_cost / checker.baseline(base)
                )
        for phase in phases:
            for op in phase.completed():
                if op.kind == "update":
                    checker.verdict(op, [])
                    continue
                if op.epoch is None:
                    checker.verdict(op, ["unknown workload version"])
                    continue
                workload = self.epochs[op.epoch]
                if op.kind == "sweep":
                    sweep = op.result.sweep
                    problems = [] if not sweep.partial else ["partial sweep"]
                    for point in sweep.points:
                        problems += checker.selection(
                            workload, point.budget_share, point.result
                        )
                        problems += checker.against_extend(
                            workload, point.budget_share, point.result
                        )
                    checker.verdict(op, problems)
                    continue
                result = op.result.result
                problems = checker.selection(workload, op.share, result)
                problems += checker.against_extend(
                    workload, op.share, result
                )
                checker.verdict(op, problems)


def _client_plan(rng: random.Random):
    """Endless ``(kind, tenant, share)`` ops: kinds from shuffled
    :data:`SERVICE_DECK` decks, recommend shares from shuffled decks of
    :data:`SERVICE_SHARES`, tenants uniformly at random."""
    shares: list[float] = []
    while True:
        deck = list(SERVICE_DECK)
        rng.shuffle(deck)
        for kind in deck:
            share = None
            if kind == "recommend":
                if not shares:
                    shares = list(SERVICE_SHARES)
                    rng.shuffle(shares)
                share = shares.pop()
            yield kind, rng.randrange(SERVICE_TENANTS), share


# ----------------------------------------------------------------------
# Correctness checks (run after the timed loops)
# ----------------------------------------------------------------------


def _same(first, other) -> bool:
    return (
        first.configuration_signature() == other.configuration_signature()
        and _close(first.total_cost, other.total_cost)
    )


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= COST_TOLERANCE * max(
        abs(reference), 1e-300
    )


class Checker:
    """References for the checks, each computed once per key.

    * the scalar ``CostModel`` (through the caching facade) recomputes
      every reported cost;
    * a fresh ``run_selection(algorithm="extend")`` over its own
      vectorized stack, separate from the program's advisors and
      service, is the reference answer per (workload version, share).
    """

    def __init__(self, schema) -> None:
        self.schema = schema
        self.scalar = WhatIfOptimizer(AnalyticalCostSource(CostModel(schema)))
        self.reference_optimizer = WhatIfOptimizer(
            VectorizedCostSource(schema)
        )
        self._costs: dict = {}
        self._references: dict = {}
        self.ratios: list[float] = []
        self.failures: list[str] = []
        self.checked = 0
        self.failed_ops = 0

    def _scalar_cost(self, key, workload, configuration) -> float:
        cost = self._costs.get(key)
        if cost is None:
            cost = self.scalar.workload_cost(workload, configuration)
            self._costs[key] = cost
        return cost

    def baseline(self, workload) -> float:
        """No-index cost of a workload (scalar reference)."""
        return self._scalar_cost((id(workload), ()), workload, ())

    def selection(self, workload, share, result) -> list[str]:
        budget = coerce_budget(self.schema, share, None)
        problems = []
        memory = configuration_memory(self.schema, result.configuration)
        if memory != result.memory or memory > budget:
            problems.append(
                f"w={share}: memory {result.memory} (recomputed {memory}) "
                f"vs budget {budget:.0f}"
            )
        signature = result.configuration_signature()
        cost = self._scalar_cost(
            (id(workload), signature), workload, result.configuration
        )
        if not _close(result.total_cost, cost):
            problems.append(
                f"w={share}: total_cost {result.total_cost!r} vs scalar "
                f"CostModel {cost!r}"
            )
        return problems

    def against_extend(self, workload, share, result) -> list[str]:
        key = (id(workload), share)
        reference = self._references.get(key)
        if reference is None:
            reference = run_selection(
                workload,
                coerce_budget(self.schema, share, None),
                algorithm="extend",
                optimizer=self.reference_optimizer,
            )
            self._references[key] = reference
        if _same(reference, result):
            return []
        return [
            f"w={share}: answer differs from a fresh extend run "
            f"({result.total_cost!r} vs {reference.total_cost!r})"
        ]

    def verdict(self, op: Op, problems: list[str]) -> None:
        self.checked += 1
        if problems:
            self.failed_ops += 1
            self.failures.extend(f"{op.kind}: {text}" for text in problems)

