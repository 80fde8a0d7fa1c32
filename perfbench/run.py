"""The repo benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fanout_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload rgame_ramp --seed 1 --seconds 10 --trace 1

``--trace 0`` runs the workload in fresh worker processes, one after the
other: at least three runs, and more while another run is expected to end
within ``--seconds`` of the invocation's start.  It reports medians across
the runs and checks that every run produced bit-identical simulated
outputs.
``--trace 1`` runs it once untraced and once with span tracing, checks
that both runs simulated the same thing, prints the per-layer attribution
table and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(expected deliveries), ``failed`` (expected deliveries lost) and
``metrics``.  The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: a run must finish within this many seconds, set-up and checks included
RUN_BUDGET_S = 170.0
MIN_RUNS = 3
MAX_RUNS = 12


class BenchmarkError(RuntimeError):
    """A worker failed or the checkout cannot run the benchmark."""


def host_facts(seed: int) -> Dict[str, Any]:
    try:
        policy = os.sched_getscheduler(0)
        scheduler = {
            getattr(os, name): name
            for name in ("SCHED_OTHER", "SCHED_BATCH", "SCHED_IDLE", "SCHED_FIFO", "SCHED_RR")
            if hasattr(os, name)
        }.get(policy, str(policy))
    except (AttributeError, OSError):
        scheduler = "unknown"
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "scheduler": scheduler,
        "seed": seed,
    }


def run_worker(
    workload: str, seed: int, traced: bool, timeout: float, extra: List[str]
) -> Dict[str, Any]:
    """Run one measured run in a fresh process; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Fixed hash seed: runs of one seed must be comparable bit for bit.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--launched", repr(time.monotonic()),
        *extra,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} worker exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def check_sim(runs: List[Dict[str, Any]]) -> List[str]:
    """Correctness verdict over the runs of one workload and seed."""
    problems = []
    first = runs[0]
    sim = first["sim"]
    for other in runs[1:]:
        if other["sim"] != sim:
            kind = "traced" if other["traced"] else "untraced"
            problems.append(
                f"{kind} run simulated differently: digest {other['sim']['digest'][:12]} "
                f"vs {sim['digest'][:12]}, deliveries {other['sim']['first_deliveries']} "
                f"vs {sim['first_deliveries']}"
            )
    if sim["expected"] < 1:
        problems.append("the ledger expected no deliveries")
    # Only at_least_once may hand the application a publication twice.
    if sim["app_duplicates"] and first["delivery_tier"] != "at_least_once":
        problems.append(
            f"{sim['app_duplicates']} duplicate(s) reached the app under "
            f"{first['delivery_tier']}"
        )
    if sim["lost"] and first["workload"] == "fanout_hot":
        problems.append(f"fanout_hot lost {sim['lost']} expected deliveries")
    return problems


def end_to_end(runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end values: medians over runs, simulated values of the seed."""
    sim = runs[0]["sim"]
    expected = sim["expected"]
    return {
        # Both wall times in reference-host seconds; see perfbench/bench.py.
        "setup_s": statistics.median(r["setup_s"] * r["host_speed"] for r in runs),
        "deliveries_per_ref_s": statistics.median(
            r["deliveries"] / (r["window_wall_s"] * r["host_speed"]) for r in runs
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "sim_latency_p50_ms": sim["latency_p50_ms"],
        "sim_latency_p999_ms": sim["latency_p999_ms"],
        "delivered_ratio": 1.0 - sim["lost"] / expected,
        "sla_met_ratio": 1.0 - (sim["lost"] + sim["late"]) / expected,
        "server_seconds": sim["server_seconds"],
    }


#: attribution rows: (label, per-layer self-time metric)
_ROWS = (
    ("sim", "sim.self_s"), ("net", "net.self_s"), ("broker", "broker.self_s"),
    ("client", "client.self_s"), ("dispatcher", "dispatcher.self_s"),
    ("balancer", "balancer.self_s"), ("policy", "policy.self_s"),
    ("reliability", "reliability.self_s"), ("faults", "faults.self_s"),
    ("workload", "workload.self_s"), ("bench.ledger", "bench.ledger_self_s"),
    ("other", "bench.other_self_s"),
)


def attribution_table(layers: Dict[str, float]) -> str:
    """Self time per layer in the traced window; rows sum to its wall time."""
    wall = layers["bench.traced_wall_s"]
    rows = [(label, layers[name]) for label, name in _ROWS]
    rows.append(("uncovered", layers["bench.uncovered_share"] * wall))
    lines = [f"{'layer':<14} {'self s':>9} {'share':>7}"]
    lines.extend(f"{label:<14} {sec:>9.3f} {sec / wall:>7.1%}" for label, sec in rows)
    total = sum(sec for __, sec in rows)
    lines.append(f"{'traced wall':<14} {total:>9.3f} {total / wall:>7.1%}")
    return "\n".join(lines)


def measure(
    workload: str, seed: int, seconds: float, trace: bool, extra: List[str]
) -> Tuple[Dict[str, float], List[Dict[str, Any]], Optional[str]]:
    """Run the worker processes; returns (metric values, runs, table)."""
    began = time.monotonic()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - began)

    if trace:
        plain = run_worker(workload, seed, False, remaining(), extra)
        traced = run_worker(workload, seed, True, remaining(), extra)
        layers = dict(traced["layers"])
        layers["bench.span_overhead_s"] = traced["window_wall_s"] - plain["window_wall_s"]
        return layers, [plain, traced], attribution_table(layers)

    # Whole runs only, and no run that is expected to end past the
    # invocation's share of wall time: the run count adapts to host speed
    # while the invocation's length stays close to ``seconds``.
    runs: List[Dict[str, Any]] = []
    slowest = 0.0
    while len(runs) < MIN_RUNS or (
        len(runs) < MAX_RUNS
        and time.monotonic() - began + slowest <= seconds
        and remaining() > 2 * slowest
    ):
        start = time.monotonic()
        runs.append(run_worker(workload, seed, False, remaining(), extra))
        slowest = max(slowest, time.monotonic() - start)
    return end_to_end(runs), runs, None


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Dynamoth repro benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized workload")
    parser.add_argument(
        "--spans-dir",
        type=Path,
        default=ROOT / ".perfbench" / "spans",
        help="where the traced run writes its span table",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; have {sorted(whys)}",
              file=sys.stderr)
        return 2
    facts = host_facts(args.seed)
    extra = ["--tiny"] if args.tiny else []
    if args.trace:
        extra += ["--spans-dir", str(args.spans_dir)]
    try:
        values, runs, table = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), extra
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    problems = check_sim(runs)

    sim = runs[0]["sim"]
    print(f"workload {args.workload}: {whys[args.workload]}")
    print(f"host {json.dumps(facts, sort_keys=True)}")
    for run in runs:
        speed = ""
        if run["host_speed"] is not None:
            speed = f", host speed {run['host_speed']:.3f} ({run['host_samples']} samples)"
        print(
            f"run ({'traced' if run['traced'] else 'untraced'}): setup {run['setup_s']:.3f}s, "
            f"window {run['window_wall_s']:.3f}s, {run['deliveries']} deliveries "
            f"({run['deliveries'] / run['window_wall_s']:.0f}/s wall{speed}), "
            f"peak RSS {run['peak_rss_mb']:.1f} MB"
        )
    print(
        f"ledger: {sim['expected']} expected, {sim['lost']} lost, {sim['late']} late, "
        f"{sim['app_duplicates']} app-visible duplicates "
        f"(lost_ratio {sim['lost'] / max(1, sim['expected']):.6f}, "
        f"sla_miss_ratio {(sim['lost'] + sim['late']) / max(1, sim['expected']):.6f})"
    )
    if table is not None:
        print(table)
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    summary = {
        "correct": not problems,
        "attempted": sim["expected"],
        "failed": sim["lost"],
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
