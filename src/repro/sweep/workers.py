"""Spawn-safe sweep work units and their worker functions.

Each task is a frozen dataclass of primitives (hashable, picklable under
the ``spawn`` start method) and each worker is a plain module-level
function mapping one task to one JSON-serializable dict.  Workers never
read the wall clock (DET001 scope).

Pool worker processes are reused across tasks, and single-process mode
runs every task in the orchestrating interpreter -- so each worker ends
by calling :meth:`Simulator.gc_release`.  The kernel's managed GC
policy freezes each run's object graph; without the release, back-to-
back simulations in one process pin every dead topology permanently
(hundreds of MB over a long soak).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class CheckTask:
    """One property-test scenario seed."""

    seed: int
    delivery_tier: Optional[str] = None
    causal_order: Optional[bool] = None


@dataclass(frozen=True)
class LabTask:
    """Record one live lab scenario, then replay it against policies."""

    scenario: str
    seed: int = 0
    policies: Tuple[str, ...] = ()
    sla_threshold_s: Optional[float] = None


def check_worker(task: CheckTask) -> Dict[str, Any]:
    """Run one generated scenario through every oracle.

    The ``trace_sha256`` digest covers the full schema-2 trace body --
    the strongest per-seed determinism witness we have: two runs of the
    same seed (any process count, any machine) must agree on it.
    """
    from repro.check.generate import generate_scenario
    from repro.check.oracles import check_result
    from repro.check.scenario import run_scenario

    scenario = generate_scenario(
        task.seed,
        delivery_tier=task.delivery_tier,
        causal_order=task.causal_order,
    )
    result = run_scenario(scenario)
    violations = check_result(result)
    digest = hashlib.sha256(result.trace_bytes()).hexdigest()
    out: Dict[str, Any] = {
        "seed": task.seed,
        "label": scenario.label,
        "delivery_tier": scenario.delivery_tier,
        "causal_order": scenario.causal_order,
        "ok": not violations,
        "events": len(result.tracer.events),
        "deliveries": len(result.ledger.deliveries),
        "trace_sha256": digest,
        "violations": [str(v) for v in violations],
    }
    Simulator.gc_release()
    return out


def lab_worker(task: LabTask) -> Dict[str, Any]:
    """Record one live scenario and compare every policy over it."""
    from repro.lab.cli import _scenarios, record_scenario
    from repro.lab.compare import compare_policies

    scenario = _scenarios()[task.scenario]
    history = record_scenario(scenario, task.seed)
    report = compare_policies(
        history,
        list(task.policies) or None,
        sla_threshold_s=task.sla_threshold_s,
    )
    out = {
        "scenario": task.scenario,
        "seed": task.seed,
        "report": report.to_dict(),
    }
    Simulator.gc_release()
    return out
