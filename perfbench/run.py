"""Benchmark of the ringstruct engine, measured from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload semisimple --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload run is one Python process and one thread: a closed loop with a
single client that runs the workload's ops one after another, each along the
path of ``ringstruct <command> FILE --format json``, and passes every op
through the correctness gate (exit code, independent verifier, expected
isomorphism-invariant verdict).  Ops repeat in passes until ``--seconds``
would be exceeded; there is always at least one pass.

``--trace 0`` reports the end-to-end metrics, with times in reference
seconds: each op's time is scaled by the host speed measured while it ran
(see ``perfbench/clock.py``).  ``--trace 1`` runs each op
twice, untraced and then under the outside-in tracer, and reports the
per-layer metrics; both runs of an op must render byte-identical reports.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when a report that the engine returned with exit code 0 is rejected, or when
the traced and untraced passes disagree; ops that exit non-zero count as
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
COMMANDS = ("classify", "radical", "idempotents", "unitize", "oracle")
IMPORT_SAMPLES = (2, 1)  # fresh-interpreter imports before and after the passes
SETUP_BUDGET_S = 0.5  # extra set-up rounds per run, when a round is cheap
SETUP_MAX_ROUNDS = 20
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "import_s": "s",
    "peak_rss_mb": "MB",
    "classify_s": "s",
}


def _require_source() -> None:
    """The benchmark builds the engine from this checkout's sources only."""
    if not (SOURCE / "ringstruct" / "__init__.py").is_file():
        sys.exit(f"error: engine sources not found under {SOURCE}")
    sys.path[:0] = [str(ROOT), str(SOURCE)]
    import ringstruct

    if Path(ringstruct.__file__).resolve().parent != SOURCE / "ringstruct":
        sys.exit(f"error: imported ringstruct from {ringstruct.__file__}, not {SOURCE}")


def measure_import(samples: int) -> list:
    """Times of ``import ringstruct`` in ``samples`` fresh interpreters, at
    reference speed.  The clock's own imports (``fractions``, ``signal``)
    come first, so their share is not in the time."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT)!r}, {str(SOURCE)!r}]\n"
        "from perfbench.clock import SpeedClock\n"
        "with SpeedClock() as clock:\n"
        "    mark = clock.mark()\n"
        "    import ringstruct\n"
        "    print(clock.elapsed(mark)[1])\n"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            cwd=ROOT, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _checked_op(inp, command, expected, tracer=None, clock=None):
    from perfbench.gate import check, run_op

    gc.collect()
    if tracer is None:
        op = run_op(inp.key, inp.kind, inp.text, command, clock)
    else:
        op = tracer.span("op", run_op, inp.key, inp.kind, inp.text, command)
    check(op, expected.get(inp.key, {}).get(command))
    op.report = op.obj = None  # keep memory flat across passes
    return op


def run_pass(inputs, expected, clock=None):
    """Run every op of the workload once; return the list of checked ops."""
    return [
        _checked_op(inp, command, expected, clock=clock)
        for inp in inputs for command in inp.commands
    ]


def run_traced_pass(inputs, expected, tracer):
    """Run every op untraced and then, at once, traced, so that machine-speed
    drift and warm caches bias neither side; return both lists of ops."""
    untraced, traced = [], []
    for inp in inputs:
        for command in inp.commands:
            untraced.append(_checked_op(inp, command, expected))
            with tracer:
                traced.append(_checked_op(inp, command, expected, tracer))
    return untraced, traced


def setup_rounds(inputs, rounds: int, clock) -> dict:
    """Time ``parse`` + ``to_object`` of every document ``rounds`` times."""
    from ringstruct.documents import parse, to_object

    samples = {}
    for _ in range(rounds):
        gc.collect()
        for inp in inputs:
            mark = clock.mark()
            to_object(parse(inp.text))
            samples.setdefault(inp.key, []).append(clock.elapsed(mark)[1])
    return samples


def _pass_seconds(ops, command=None) -> float:
    return sum(op.seconds for op in ops if command is None or op.command == command)


def end_to_end(passes, setups: dict, import_s: float) -> dict:
    """Medians over passes; set-up is summed over documents, each document's
    set-up being the median of all its loads in the run."""
    setups = {key: list(samples) for key, samples in setups.items()}
    for ops in passes:
        for op in ops:
            if op.setup_seconds is not None:
                setups.setdefault(op.key, []).append(op.setup_seconds)
    metrics = {
        "wall_s": statistics.median(_pass_seconds(ops) for ops in passes),
        "setup_s": sum(statistics.median(v) for v in setups.values()),
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for command in COMMANDS:
        metrics[f"{command}_s"] = statistics.median(_pass_seconds(ops, command) for ops in passes)
    executed = [op for ops in passes for op in ops]
    metrics["failed_frac"] = sum(op.failed for op in executed) / len(executed)
    return metrics


def per_layer(tracer, traced, untraced) -> dict:
    stats, counters = tracer.stats, tracer.counters

    def self_s(group):
        return stats[group]["self_s"] if group in stats else 0.0

    def calls(group):
        return stats[group]["calls"] if group in stats else 0

    metrics = {
        "linalg.calls": calls("linalg"),
        "linalg.self_s": self_s("linalg"),
        "linalg.cells": counters["linalg.cells"],
        "linalg.tall_calls": counters["linalg.tall_calls"],
        "algebra.multiply_calls": calls("algebra.multiply"),
        "idempotents.principal_ideal_calls": calls("idempotents.principal_ideal"),
        "algebra.subalgebra_calls": calls("algebra.subalgebra"),
        "finite.validate_peak_mb": counters["finite.validate_peak_mb"],
        "verification.self_s": self_s("verification"),
        "trace.overhead": _pass_seconds(traced) / _pass_seconds(untraced),
    }
    for group in (
        "algebra.multiply", "algebra.validate", "algebra.subalgebra", "algebra.ideal_check",
        "algebra.operators", "radical.jacobson", "radical.complement", "radical.nilpotency",
        "radical.quotient", "idempotents.minimal_ideal", "idempotents.brauer",
        "idempotents.find", "idempotents.pierce", "classify.classify", "classify.semisimple",
        "classify.central_split", "classify.minpoly", "classify.corner",
        "classify.unitization", "finite.validate", "finite.structure", "finite.jacobson",
        "finite.ideals", "mixed.validate", "mixed.torsion", "mixed.split",
        "documents.parse", "documents.load", "reports.render",
    ):
        metrics[f"{group}_self_s"] = self_s(group)
    for command in COMMANDS:  # per-command time of the untraced pass
        metrics[f"cli.{command}_s"] = _pass_seconds(untraced, command)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("trace.overhead", "failed_frac", "host.speed"):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    _require_source()
    from perfbench.gate import load_expected
    from perfbench.workloads import build_inputs

    import_times = [] if args.trace else measure_import(IMPORT_SAMPLES[0])
    inputs = build_inputs(args.workload, args.seed)
    expected = load_expected()
    mismatches = []
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        untraced, traced = run_traced_pass(inputs, expected, tracer)
        passes = [untraced, traced]
        mismatches = [
            f"{a.key} {a.command}: traced report hash differs"
            for a, b in zip(untraced, traced) if a.sha256 != b.sha256
        ]
        metrics = per_layer(tracer, traced, untraced)
        reported = sorted(metrics)
    else:
        from perfbench.clock import KERNEL_REFERENCE_S, SpeedClock

        passes = []
        with SpeedClock() as clock:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(inputs, expected, clock))
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            round_s = sum(min(op.setup_seconds or 0.0 for op in passes[0] if op.key == inp.key)
                          for inp in inputs)
            rounds = min(SETUP_MAX_ROUNDS, int(SETUP_BUDGET_S / max(round_s, 1e-9)))
            setups = setup_rounds(inputs, rounds, clock)
        mismatches = [
            f"{a.key} {a.command}: pass {i + 2} report hash differs"
            for i, later in enumerate(passes[1:])
            for a, b in zip(passes[0], later) if a.sha256 != b.sha256
        ]
        import_times += measure_import(IMPORT_SAMPLES[1])
        metrics = end_to_end(passes, setups, statistics.median(import_times))
        metrics["raw.wall_s"] = statistics.median(
            sum(op.raw_seconds for op in ops) for ops in passes
        )
        metrics["host.speed"] = KERNEL_REFERENCE_S / statistics.mean(clock.samples)
        reported = list(END_TO_END_UNITS)

    executed = [op for ops in passes for op in ops]
    failed = [op for op in executed if op.failed]
    wrong = [op for op in failed if op.exit_code == 0]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {len(executed)} ops")
    for op in passes[0]:
        print(f"  op {args.workload} {op.key} {op.command} exit={op.exit_code} "
              f"{op.seconds:.4f}s sha256={op.sha256}")
    for op in failed:
        print(f"  FAIL {args.workload} {op.key} {op.command} exit={op.exit_code}: {op.message}")
    for line in mismatches:
        print(f"  MISMATCH {args.workload} {line}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {unit_of(name)}")
    print("detail " + json.dumps(metrics, sort_keys=True))
    result = {
        "correct": not wrong and not mismatches,
        "attempted": len(executed),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in reported},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    _require_source()
    from perfbench.workloads import WORKLOADS

    rows, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows[workload] = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
    names = sorted({name for metrics in rows.values() for name in metrics})
    print(f"{'metric':<36}{'unit':<8}" + "".join(f"{w:>12}" for w in rows))
    for name in names:
        cells = "".join(f"{rows[w][name]:>12.5g}" if name in rows[w] else f"{'-':>12}" for w in rows)
        print(f"{name:<36}{unit_of(name):<8}{cells}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {f"{w}.{name}": {"value": v, "unit": unit_of(name)}
                    for w, metrics in rows.items() for name, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="semisimple, triangular, tables, rebased, or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (basis of rebased)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
