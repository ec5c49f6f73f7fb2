"""Experiment harness: the four-stage latency measurement across dataset
sizes and the trust/credibility trajectory simulation, with CSV/JSON reports.

Latency transactions are issued sequentially and timed inside the request
cycle's instrumentation hooks; absolute times are hardware-dependent, so the
interesting outputs are the growth ratios across sizes. Trajectories drive
the real request cycle, not a detached score model.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import random
import resource
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Optional

from . import ontology as vocab
from .middleware import STAGES, ExchangeMiddleware
from .ontology import bootstrap_vocabulary
from .policy import DataRequest
from .store import Graph, SYN_NS
from .synth import GeneratorSpec, demographics_manifest, generate_dataset
from .trust import BEHAVIOR, CREDIBILITY_SCORE, canonical_score

# CSV row labels for the four instrumented stages
STAGE_LABELS = {
    "recipientPolicyCheck": "Recipient policy check",
    "dataCredibilityCheck": "Data credibility check",
    "trustScoreUpdate": "Trust score update",
    "dataRetrieval": "Data retrieval",
}

METRICS = ("mean", "p50", "p95")

SCENARIO_USER_VIOLATIONS = "user-with-dua-violations"
SCENARIO_USER_WITHOUT_DUA = "user-without-dua"
SCENARIO_ORG_MISSING_CATEGORY = "org-missing-category"
SCENARIO_ORG_MISSING_PROPERTIES = "org-missing-properties"
SCENARIOS = (
    SCENARIO_USER_VIOLATIONS,
    SCENARIO_USER_WITHOUT_DUA,
    SCENARIO_ORG_MISSING_CATEGORY,
    SCENARIO_ORG_MISSING_PROPERTIES,
)


class BenchError(Exception):
    pass


@dataclass
class LatencyReport:
    sizes: tuple[int, ...]
    transaction_count: int
    seed: int
    stats: dict[int, dict[str, dict[str, float]]]
    # the process's peak RSS after each size's run: a high-water mark, so it
    # never falls from one size to the next
    peak_rss_mb: dict[int, float]

    def stage_means(self, stage: str) -> list[float]:
        return [self.stats[size][stage]["mean"] for size in self.sizes]


@dataclass
class TrajectoryRun:
    series: tuple[tuple[int, str], ...]
    transactions_to_zero: Optional[int]

    def non_increasing(self) -> bool:
        values = [Decimal(score) for _, score in self.series]
        return all(a >= b for a, b in zip(values, values[1:]))

    def final_score(self) -> str:
        return self.series[-1][1]


@dataclass
class TrajectoryReport:
    violation_prob: float
    seed: int
    cap: int
    scenarios: dict[str, list[TrajectoryRun]]

    def mean_transactions_to_zero(self, scenario: str) -> float:
        runs = self.scenarios[scenario]
        finished = [r.transactions_to_zero for r in runs if r.transactions_to_zero is not None]
        if not finished:
            raise BenchError(f"no {scenario} run reached zero")
        return sum(finished) / len(finished)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[index]


def _aggregate(samples: dict[str, list[float]]) -> dict[str, dict[str, float]]:
    out = {}
    for stage, values in samples.items():
        ordered = sorted(values)
        out[stage] = {
            "mean": sum(values) / len(values) if values else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
        }
    return out


def run_latency(
    sizes: Iterable[int],
    transactions: int = 1000,
    seed: int = 1,
    warmup: int = 20,
) -> LatencyReport:
    """Time the four request-cycle stages over randomized clean requests.

    Requests are drawn from every (user, category, purpose) combination that
    passes all checks, so no scores mutate and no lockout can distort the
    timings. Datasets are generated from the seed.
    """
    sizes = tuple(sizes)
    stats: dict[int, dict[str, dict[str, float]]] = {}
    peak_rss_mb: dict[int, float] = {}
    for size in sizes:
        # the previous size's service and last reply go, with the reference
        # cycles that still hold its graph, before this size's graph is
        # built, so this size's peak RSS does not include them
        service = response = graph = None
        gc.collect()
        spec = GeneratorSpec(seed=seed, patient_count=size)
        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(spec, into=graph)
        service = ExchangeMiddleware(graph)
        manifest = demographics_manifest(spec)
        pool = [
            service.build_request(user.iri, category, purpose)
            for user, category, purpose in manifest.clean_requests()
        ]
        rng = random.Random(f"{seed}:latency:{size}")
        for _ in range(warmup):
            service.handle_request(rng.choice(pool))
        samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
        # the request cycle allocates no reference cycles, so collector
        # sweeps over the large dataset heap would only add timing noise
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(transactions):
                response = service.handle_request(rng.choice(pool))
                if not response.decision.granted:
                    raise BenchError("latency transactions must stay clean and granted")
                for stage in STAGES:
                    samples[stage].append(response.timings[stage])
        finally:
            if gc_was_enabled:
                gc.enable()
        stats[size] = _aggregate(samples)
        # ru_maxrss is in KiB on Linux
        peak_rss_mb[size] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return LatencyReport(
        sizes=sizes, transaction_count=transactions, seed=seed, stats=stats,
        peak_rss_mb=peak_rss_mb,
    )


@dataclass(frozen=True)
class _ScenarioWiring:
    tracked: str          # principal whose score the series follows
    score: str            # which score the series records
    violating: DataRequest
    control: DataRequest


def _wire_scenarios(service: ExchangeMiddleware, manifest) -> dict[str, _ScenarioWiring]:
    patient = SYN_NS + "Patient"
    symptom = SYN_NS + "Symptom"
    observation = SYN_NS + "Observation"
    public_health = vocab.PUBLIC_HEALTH.lexical
    custodian = manifest.custodian_iri

    def request(user_index: int, category: str, purpose: str) -> DataRequest:
        user = manifest.users[user_index]
        return service.build_request(user.iri, category, purpose, request_id=f"traj-{user_index}")

    control = request(0, patient, public_health)
    org7 = manifest.orgs[6]
    org6 = manifest.orgs[5]
    return {
        # agreement in place; requests outside its categories (0.01 deduction)
        SCENARIO_USER_VIOLATIONS: _ScenarioWiring(
            tracked=manifest.users[0].iri,
            score=BEHAVIOR,
            violating=request(0, symptom, public_health),
            control=control,
        ),
        # no agreement at all (0.02 deduction)
        SCENARIO_USER_WITHOUT_DUA: _ScenarioWiring(
            tracked=manifest.users[7].iri,
            score=BEHAVIOR,
            violating=request(7, patient, public_health),
            control=control,
        ),
        # agreement asks for a category the custodian lacks (0.02 deduction)
        SCENARIO_ORG_MISSING_CATEGORY: _ScenarioWiring(
            tracked=custodian,
            score=CREDIBILITY_SCORE,
            violating=request(6, symptom, org7.purposes[0]),
            control=control,
        ),
        # category held but its property group stripped (0.01 deduction)
        SCENARIO_ORG_MISSING_PROPERTIES: _ScenarioWiring(
            tracked=custodian,
            score=CREDIBILITY_SCORE,
            violating=request(5, observation, org6.purposes[0]),
            control=control,
        ),
    }


def run_trajectory(
    violation_prob: float = 0.3,
    runs: int = 100,
    seed: int = 1,
    cap: int = 100_000,
    scenarios: Iterable[str] = SCENARIOS,
) -> TrajectoryReport:
    """Simulate score trajectories through the real request cycle.

    Per transaction the scenario's violating request fires with the given
    probability, otherwise a fully clean control request does. A run ends
    when the tracked score reaches exactly zero (or at the cap); the series
    records the starting point and every change.
    """
    spec = GeneratorSpec(seed=seed, patient_count=20)
    graph = Graph()
    bootstrap_vocabulary(graph)
    generate_dataset(
        spec, into=graph, strip_property_categories=[SYN_NS + "Observation"]
    )
    service = ExchangeMiddleware(graph)
    manifest = demographics_manifest(spec)
    wiring = _wire_scenarios(service, manifest)
    registry = service.registry
    results: dict[str, list[TrajectoryRun]] = {}
    zero = Decimal(0)
    for scenario in scenarios:
        wire = wiring[scenario]
        runs_out: list[TrajectoryRun] = []
        org_of_violator = wire.violating.user.affiliation
        # a previous scenario may have drained the control user's score;
        # control requests must stay clean and granted
        registry.set_score(wire.control.user.iri, BEHAVIOR, "1.0")
        for run_index in range(runs):
            registry.set_score(wire.tracked, wire.score, "1.0")
            registry.unlock_pair(manifest.custodian_iri, org_of_violator)
            rng = random.Random(f"{seed}:{scenario}:{run_index}")
            series: list[tuple[int, str]] = [(0, "1.0")]
            current = Decimal("1.0")
            transactions_to_zero: Optional[int] = None
            txn = 0
            while txn < cap:
                txn += 1
                request = wire.violating if rng.random() < violation_prob else wire.control
                service.handle_request(request)
                value = registry.get(wire.tracked).scores()[wire.score]
                if value != current:
                    series.append((txn, canonical_score(value)))
                    current = value
                if current == zero:
                    transactions_to_zero = txn
                    break
            runs_out.append(
                TrajectoryRun(series=tuple(series), transactions_to_zero=transactions_to_zero)
            )
        results[scenario] = runs_out
    return TrajectoryReport(
        violation_prob=violation_prob, seed=seed, cap=cap, scenarios=results
    )


# -- reports ------------------------------------------------------------------


def latency_report_rows(report: LatencyReport) -> list[list]:
    header = ["stage", "metric"] + [str(size) for size in report.sizes]
    rows: list[list] = [header]
    for stage in STAGES:
        label = STAGE_LABELS[stage]
        for metric in METRICS:
            rows.append(
                [label, metric]
                + [f"{report.stats[size][stage][metric]:.6f}" for size in report.sizes]
            )
    rows.append(["peak RSS", "MB"] + [f"{report.peak_rss_mb[size]:.1f}" for size in report.sizes])
    rows.append(["transactions", "count"] + [str(report.transaction_count)] * len(report.sizes))
    return rows


def latency_report_json(report: LatencyReport) -> dict:
    return {
        "sizes": list(report.sizes),
        "transactionCount": report.transaction_count,
        "seed": report.seed,
        "stats": {
            str(size): {
                STAGE_LABELS[stage]: {
                    metric: f"{report.stats[size][stage][metric]:.6f}" for metric in METRICS
                }
                for stage in STAGES
            }
            for size in report.sizes
        },
        "peakRssMb": {str(size): f"{report.peak_rss_mb[size]:.1f}" for size in report.sizes},
    }


def trajectory_report_rows(report: TrajectoryReport) -> list[list]:
    rows: list[list] = [["scenario", "run", "transaction_index", "score"]]
    for scenario in report.scenarios:
        for run_index, run in enumerate(report.scenarios[scenario]):
            for txn, score in run.series:
                rows.append([scenario, str(run_index), str(txn), score])
    return rows


def trajectory_report_json(report: TrajectoryReport) -> dict:
    return {
        "violationProb": report.violation_prob,
        "seed": report.seed,
        "cap": report.cap,
        "scenarios": {
            scenario: [
                {
                    "transactionsToZero": run.transactions_to_zero,
                    "series": [[txn, score] for txn, score in run.series],
                }
                for run in runs
            ]
            for scenario, runs in report.scenarios.items()
        },
    }


def emit_report(report, format: str, path) -> Path:
    """Write a report as CSV or JSON with stable ordering; returns the path."""
    target = Path(path)
    if isinstance(report, LatencyReport):
        rows, payload = latency_report_rows(report), latency_report_json(report)
    elif isinstance(report, TrajectoryReport):
        rows, payload = trajectory_report_rows(report), trajectory_report_json(report)
    else:
        raise BenchError(f"unknown report type: {type(report).__name__}")
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(rows)
        target.write_text(buffer.getvalue(), encoding="utf-8")
    elif format == "json":
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        raise BenchError(f"unknown report format: {format}")
    return target
