"""Command line entry point: batch scenario runner and catalog listing.

Exit codes: 0 when every scenario passes, 1 when some check fails, 2 on
usage or configuration errors.  Output is deterministic; the
ISOFLOW_SEED environment variable is read nowhere because nothing here
is randomized.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from . import __version__
from .catalog import Scenario, check_scenario, list_catalog, run_scenario
from .errors import IsoflowError
from .report import render_reports

__all__ = ["main", "load_scenarios"]


def load_scenarios(path: str) -> list[Scenario]:
    """Parse a line-oriented config: one [section] per scenario.

    Every scenario is checked against the catalog before any of them runs.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        loaded = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # e.g. a duplicate section or key
        raise IsoflowError(f"cannot parse config file {path!r}: {' '.join(str(exc).split())}") \
            from exc
    if not loaded:
        raise IsoflowError(f"cannot read config file {path!r}")
    scenarios = []
    for section in parser.sections():
        params = dict(parser.items(section))
        construction = params.pop("construction", None)
        if construction is None:
            raise IsoflowError(f"scenario [{section}] does not name a construction")
        scenario = Scenario(section, construction, params)
        try:
            check_scenario(scenario)
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
