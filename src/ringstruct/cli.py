"""Command-line interface.

Subcommands::

    classify FILE        structural verdict for an algebra / finite / mixed document
    radical FILE         Jacobson radical with complement (algebra) or radical subset (finite)
    idempotents FILE     idempotent search / primitive family
    unitize FILE         smallest unital extension of an algebra document
    oracle FILE          exhaustive finite-ring oracle (finite documents only)
    generate FAMILY ...  emit a named family document (key=value parameters)
    corpus-run DIR       run the default report on every document in a directory

Exit codes: 0 success, 1 validation/load failure, 2 internal invariant
violation.  ``corpus-run`` reports every document and then exits with the
gravest code seen: 2 over 1 over 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .documents import load_path, save_path, serialize
from .errors import InternalInvariantError, RingstructError
from .generators import FAMILIES, generate
from .reports import COMMANDS, render, run_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringstruct",
        description="Exact structure theory for algebras, finite rings, and mixed rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} report on a document")
        p.add_argument("file", type=Path)
        p.add_argument("--format", choices=("text", "json"), default="text")
    g = sub.add_parser("generate", help="generate a named family document")
    g.add_argument("family", choices=sorted(FAMILIES))
    g.add_argument("params", nargs="*", help="key=value parameters, e.g. n=3 label=K2")
    g.add_argument("-o", "--output", type=Path, default=None)
    c = sub.add_parser("corpus-run", help="report on every document in a directory")
    c.add_argument("directory", type=Path)
    c.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _default_command(kind: str) -> str:
    return {"algebra": "classify", "finite_ring": "oracle", "mixed": "classify"}[kind]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            params = {}
            for chunk in args.params:
                if "=" not in chunk:
                    raise RingstructError(f"parameters are key=value, got {chunk!r}")
                key, value = chunk.split("=", 1)
                params[key] = value
            doc = generate(args.family, params)
            if args.output:
                save_path(doc, args.output)
                print(f"wrote {doc.name} to {args.output}")
            else:
                sys.stdout.write(serialize(doc))
            return EXIT_OK
        if args.command == "corpus-run":
            directory = args.directory
            if not directory.is_dir():
                raise RingstructError(f"not a directory: {directory}")
            paths = sorted(p for p in directory.iterdir() if p.is_file())
            if not paths:
                raise RingstructError(f"no documents in {directory}")
            failures = internal = 0
            for path in paths:
                try:
                    doc = load_path(path)
                    report = run_report(doc, _default_command(doc.kind))
                    sys.stdout.write(f"== {path.name}\n")
                    sys.stdout.write(render(report, args.format))
                except InternalInvariantError as exc:
                    internal += 1
                    sys.stdout.write(f"== {path.name}\ninternal invariant violated: {exc}\n")
                except RingstructError as exc:
                    failures += 1
                    sys.stdout.write(f"== {path.name}\nerror: {exc}\n")
            if internal:
                return EXIT_INTERNAL
            return EXIT_VALIDATION if failures else EXIT_OK
        doc = load_path(args.file)
        report = run_report(doc, args.command)
        sys.stdout.write(render(report, args.format))
        return EXIT_OK
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RingstructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
