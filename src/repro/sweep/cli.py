"""``python -m repro.sweep`` -- multiprocess soak / lab sweeps.

Subcommands::

    check   soak N generated check-scenario seeds through every oracle
    lab     record each live lab scenario and compare every policy

Both fan work over a ``spawn`` process pool (``--procs``) and merge
results in task order, so the JSON/markdown reports are byte-stable
across process counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Optional, Sequence

from repro.sweep.orchestrator import (
    check_markdown,
    check_sweep,
    lab_markdown,
    lab_sweep,
)

_Out = Callable[[str], None]


def _write_outputs(
    doc: Dict[str, Any],
    markdown: str,
    args: argparse.Namespace,
    out: _Out,
) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out(f"JSON report written to {args.output}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        out(f"markdown report written to {args.markdown}")
    if not args.output and not args.markdown:
        out(markdown.rstrip("\n"))


def _cmd_check(args: argparse.Namespace, out: _Out) -> int:
    def progress(result: Dict[str, Any]) -> None:
        status = "ok  " if result["ok"] else "FAIL"
        out(
            f"{status} seed={result['seed']} label={result['label']} "
            f"({result['events']} events, {result['deliveries']} deliveries)"
        )

    doc = check_sweep(
        args.iterations,
        delivery_tier=args.tier,
        causal_order=args.causal,
        procs=args.procs,
        progress=progress,
    )
    _write_outputs(doc, check_markdown(doc), args, out)
    summary = doc["summary"]
    if summary["failed"]:
        out(
            f"{summary['failed']}/{summary['total']} seed(s) FAILED; "
            f"replay with: python -m repro.check --seed "
            f"{summary['failed_seeds'][0]}"
        )
        return 1
    out(f"all {summary['total']} seed(s) passed every oracle")
    return 0


def _cmd_lab(args: argparse.Namespace, out: _Out) -> int:
    def progress(result: Dict[str, Any]) -> None:
        report = result["report"]
        out(
            f"{result['scenario']}: {report['ticks']} ticks, "
            f"{len(report['policies'])} policies compared"
        )

    doc = lab_sweep(
        args.scenario,
        seed=args.seed,
        policies=[p.strip() for p in args.policies.split(",") if p.strip()],
        sla_threshold_s=args.sla_threshold,
        procs=args.procs,
        progress=progress,
    )
    _write_outputs(doc, lab_markdown(doc), args, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Multiprocess sweeps over check soaks and "
        "policy-lab comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--procs", type=int, default=1,
                       help="worker processes (default: 1 = in-process)")
        p.add_argument("--output", default="",
                       help="write the merged JSON report to this file")
        p.add_argument("--markdown", default="",
                       help="write the markdown report to this file")

    check = sub.add_parser("check", help="soak generated check seeds")
    check.add_argument("--iterations", type=int, default=50,
                       help="seeds 0..N-1 to soak (default: 50)")
    check.add_argument("--tier", default=None,
                       help="pin the delivery tier instead of sampling it")
    check.add_argument("--causal", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="pin causal-order mode instead of sampling it")
    common(check)
    check.set_defaults(func=_cmd_check)

    lab = sub.add_parser("lab", help="record lab scenarios, compare policies")
    lab.add_argument("--scenario", action="append",
                     default=None,
                     help="live scenario to record (repeatable; "
                          "default: steady, flash-crowd, crash)")
    lab.add_argument("--seed", type=int, default=0)
    lab.add_argument("--policies", default="",
                     help="comma-separated policy names (default: all)")
    lab.add_argument("--sla-threshold", type=float, default=None)
    common(lab)
    lab.set_defaults(func=_cmd_lab)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", "") == "lab" and args.scenario is None:
        args.scenario = ["steady", "flash-crowd", "crash"]
    handler: Callable[[argparse.Namespace, _Out], int] = args.func
    return handler(args, lambda line: print(line, file=sys.stdout))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
