"""CLI for FlexLint: ``python -m repro.tools.flexlint [paths...]``.

A thin front end over :func:`repro.analysis.flexlint.lint_paths`; it
writes no file.  Exits non-zero when any active (non-waived) finding
remains.  Typical use::

    PYTHONPATH=src python -m repro.tools.flexlint src/

Options:

* ``--json`` — machine-readable output (one object per finding).
* ``--rule FXLnnn`` — restrict to one rule (repeatable).
* ``--show-waived`` — also print findings silenced by waivers.
* ``--list-rules`` — print the rule table and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, TextIO

from repro.analysis.flexlint import RULES, iter_py_files, lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.flexlint",
        description=f"FlexIO project-invariant linter (rules "
        f"{min(RULES)}-{max(RULES)}).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/"],
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="FXLnnn", help="only report this rule "
                        "(repeatable)")
    parser.add_argument("--show-waived", action="store_true",
                        help="also print waived findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.title}", file=out)
            print(f"        {rule.description}", file=out)
        return 0

    files = iter_py_files(args.paths)
    findings = lint_paths(files)
    if args.rule:
        wanted = set(args.rule)
        findings = [f for f in findings if f.rule in wanted]

    active = [f for f in findings if f.active]
    waived = [f for f in findings if f.waived]
    shown = findings if args.show_waived else active

    if args.as_json:
        print(json.dumps([f.to_dict() for f in shown], indent=2), file=out)
    else:
        for f in shown:
            print(f.format(), file=out)
        summary = f"flexlint: {len(active)} finding(s)"
        if waived:
            summary += f", {len(waived)} waived"
        print(f"{summary} [{len(files)} files]", file=out)

    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
