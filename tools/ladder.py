"""Size ladder: time, peak memory and report hash of one engine command on
documents larger than any in the benchmark.

Usage, from the repository root::

    python3 tools/ladder.py                      # every rung, 600 s each
    python3 tools/ladder.py --quick --timeout 120

Each rung is one command on one document, run in its own Python process
along the path of ``ringstruct <command> FILE --format json``: parse the
document text, run the report, render it.  The time covers exactly that, in
raw seconds of this host; building the document does not count.  A
``~rebased`` document is the family's document in the seeded basis of the
benchmark's ``rebased`` workload, ``rebase(doc, Random(f"1:{key}"))``.  Peak
RSS is the rung process's own maximum.  A rung that outlives ``--timeout``
is killed and recorded as a timeout.

One line per rung goes to standard output, then one JSON object with every
rung.  The exit code is 1 when a rung timed out or failed, else 0.  When the
reader of standard output goes away (``| head``), the ladder stops quietly
with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# rung name -> (family, params, rebased, command); the name reads document:command
RUNGS = {
    f"{key}:{command}": (family, params, rebased, command)
    for key, family, params, rebased, command in [
        *[(f"m{n}", "m", {"n": n}, False, "classify") for n in (4, 5, 6)],
        *[(f"m{n}~rebased", "m", {"n": n}, True, "classify") for n in (4, 5, 6)],
        ("utd6~rebased", "utd", {"n": 6}, True, "classify"),
        ("utd6~rebased", "utd", {"n": 6}, True, "radical"),
        ("utd7~rebased", "utd", {"n": 7}, True, "radical"),
        ("null300", "null", {"n": 300}, False, "radical"),
        ("null300", "null", {"n": 300}, False, "classify"),
        ("t4zp2", "t-zp", {"n": 4, "p": 2}, False, "oracle"),
        ("zn256", "zn", {"n": 256}, False, "oracle"),
    ]
}
# rungs that take seconds, not minutes: a regression to the old cliffs times out
QUICK = [
    "m4:classify", "m5:classify", "m6:classify", "m4~rebased:classify",
    "m5~rebased:classify", "m6~rebased:classify", "utd6~rebased:classify",
    "utd6~rebased:radical", "t4zp2:oracle", "zn256:oracle",
]


def run_rung(name: str) -> dict:
    """Measure one rung in this process."""
    import hashlib
    import random
    import resource

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import rebase
    from ringstruct.documents import parse, serialize
    from ringstruct.generators import generate
    from ringstruct.reports import render, run_report

    family, params, rebased, command = RUNGS[name]
    doc = generate(family, {k: str(v) for k, v in params.items()})
    if rebased:
        doc = rebase(doc, random.Random(f"1:{family}{params['n']}"))
    text = serialize(doc)
    start = time.perf_counter()
    rendered = render(run_report(parse(text), command), "json")
    seconds = time.perf_counter() - start
    return {
        "rung": name,
        "status": "ok",
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(rendered.encode()).hexdigest(),
    }


def measure(name: str, timeout: float) -> dict:
    """One rung in a fresh interpreter, killed after ``timeout`` seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"rung": name, "status": "timeout", "seconds": timeout}
    if out.returncode != 0:
        message = (out.stderr.strip().splitlines() or ["no output"])[-1]
        return {"rung": name, "status": "failed", "exit_code": out.returncode, "message": message}
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="run only the rungs that take seconds")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds allowed per rung")
    parser.add_argument("--child", choices=sorted(RUNGS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_rung(args.child)))
        return 0
    names = QUICK if args.quick else list(RUNGS)
    results = []
    for name in names:
        result = measure(name, args.timeout)
        results.append(result)
        if result["status"] == "ok":
            print(f"rung {name}: {result['seconds']:.2f} s, peak {result['peak_rss_mb']:.1f} MB, "
                  f"sha256 {result['sha256']}", flush=True)
        elif result["status"] == "timeout":
            print(f"rung {name}: TIMEOUT after {args.timeout:g} s", flush=True)
        else:
            print(f"rung {name}: FAILED, exit {result['exit_code']}: {result['message']}", flush=True)
    ok = all(r["status"] == "ok" for r in results)
    print(json.dumps({"ok": ok, "timeout_s": args.timeout, "rungs": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull, so that the flush
        # at exit cannot fail again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
