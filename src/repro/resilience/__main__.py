"""Inspect a sweep journal from the command line.

Usage::

    python -m repro.resilience info  <journal.jsonl>
    python -m repro.resilience cells <journal.jsonl>

``info`` prints the header (schema, fingerprint) and per-kind cell
counts; ``cells`` lists every completed cell key.  Both read the file
directly — no fingerprint is required, so any journal can be inspected.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro.errors import ResilienceError
from repro.resilience.journal import _HEADER_KIND, read_journal


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience", description=__doc__.splitlines()[0]
    )
    parser.add_argument("command", choices=("info", "cells"))
    parser.add_argument("journal", help="sweep journal JSONL file")
    args = parser.parse_args(argv)

    header, cells, _ = read_journal(args.journal)
    if header is None or header.get("kind") != _HEADER_KIND:
        raise ResilienceError(f"{args.journal} is not a sweep journal")
    if args.command == "cells":
        for cell in sorted(cells):
            print(cell)  # noqa: T201 - CLI output
        return 0
    kinds: Dict[str, int] = {}
    for cell in cells:
        kind = cell.split(":", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"journal      : {args.journal}")  # noqa: T201 - CLI output
    print(f"schema       : v{header.get('schema_version')}")  # noqa: T201
    print(f"fingerprint  : {header.get('fingerprint')}")  # noqa: T201
    print(f"cells        : {len(cells)}")  # noqa: T201 - CLI output
    for kind in sorted(kinds):
        print(f"  {kind:<10} : {kinds[kind]}")  # noqa: T201 - CLI output
    return 0


if __name__ == "__main__":
    sys.exit(main())
