"""Command line entry point: batch scenario runner and catalog listing.

A config file is read in one pass over its lines (``load_scenarios``):
blank lines and full-line ``#`` or ``;`` comments are skipped, ``[name]``
opens a scenario, and inside one ``key = value`` is split at the first
``=``, both sides stripped and the key's case kept.  Any other line, a
duplicate section or key, an indented line and a byte that is not UTF-8
stop the run with one ``cannot parse config file '<path>': line N: ...``
line.  ``:`` delimiters, continuation lines and ``[DEFAULT]`` inheritance
are not part of the format; a ``[DEFAULT]`` section is an ordinary one.

Exit codes: 0 when every scenario passes, 1 when some check fails, 2 on
usage or configuration errors.  Output is deterministic; the
ISOFLOW_SEED environment variable is read nowhere because nothing here
is randomized.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .catalog import Scenario, list_catalog, run_scenario
from .errors import IsoflowError
from .report import render_reports

__all__ = ["main", "load_scenarios"]


def _read_sections(path: str) -> dict[str, dict[str, str]]:
    """The sections of a config file in order, each a dict of its keys in order.

    The grammar and its errors are those of the module docstring.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        raise IsoflowError(f"cannot read config file {path!r}") from None
    sections: dict[str, dict[str, str]] = {}
    params = None
    # bytes.splitlines breaks at \n, \r\n and \r, as a file read in text mode does
    for number, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            problem = "a byte that is not UTF-8"
        else:
            text = line.strip()
            if not text or text[0] in "#;":
                continue
            if line[0].isspace():
                problem = f"indented line {text!r}; continuation lines are not supported"
            elif text[0] == "[":
                name = text[1:-1]
                if text[-1] != "]" or not name:
                    problem = f"malformed section header {text!r}"
                elif name in sections:
                    problem = f"duplicate section [{name}]"
                else:
                    params = sections[name] = {}
                    continue
            elif params is None:
                problem = f"{text!r} before the first [section]"
            else:
                key, equals, value = text.partition("=")
                key = key.rstrip()
                if not equals or not key:
                    problem = f"expected 'key = value', got {text!r}"
                elif key in params:
                    problem = f"duplicate key {key!r} in [{name}]"
                else:
                    params[key] = value.lstrip()
                    continue
        raise IsoflowError(f"cannot parse config file {path!r}: line {number}: {problem}")
    return sections


def load_scenarios(path: str) -> list[Scenario]:
    """Read a config file, one [section] per scenario.

    Every scenario is checked against the catalog before any of them runs.
    """
    scenarios = []
    for section, params in _read_sections(path).items():
        construction = params.pop("construction", None)
        if construction is None:
            raise IsoflowError(f"scenario [{section}] does not name a construction")
        scenario = Scenario(section, construction, params)
        try:
            scenario.resolved  # resolved once: run_scenario reads the same value
        except IsoflowError as exc:
            raise IsoflowError(f"[{section}] {exc}") from exc
        scenarios.append(scenario)
    if not scenarios:
        raise IsoflowError(f"config file {path!r} defines no scenarios")
    return scenarios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description="Exact finite-window checks for commuting families of isometries.",
        epilog="All runs are deterministic; ISOFLOW_SEED is ignored (no randomness).")
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run the scenarios in a config file")
    run_parser.add_argument("config", help="path to a scenario config file")
    run_parser.add_argument("--out", default=None, help="also write the report to this path")
    sub.add_parser("list", help="print the construction catalog")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(list_catalog())
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2
    try:
        scenarios = load_scenarios(args.config)
    except IsoflowError as exc:
        print(f"isoflow: error: {exc}", file=sys.stderr)
        return 2
    reports = []
    for scenario in scenarios:
        try:
            reports.append(run_scenario(scenario))
        except IsoflowError as exc:
            print(f"isoflow: error: [{scenario.name}] {exc}", file=sys.stderr)
            return 2
    text = render_reports(reports, version=__version__)
    if args.out is not None:
        try:
            with open(args.out, "w", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"isoflow: error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 0 if all(r.overall for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
