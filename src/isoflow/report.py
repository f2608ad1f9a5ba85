"""Structured verification reports with a byte-stable text rendering.

Every public check returns its ``CheckEntry`` list, and the one ``Report``
of a scenario, built by ``catalog.run_scenario``, holds its name, its
construction, its echoed parameters and those entries.  One record per
check, fields in fixed order.  A residual keeps six fractional digits
with a bare integer exponent, so an exact 0 prints as ``0.000000e0`` and
an exact 1 as ``1.000000e0``; the checks compute no residual between them.

A sampled time is held as its integer step count j on the grid t = j/m
everywhere in the package; ``format_time`` is the one place where it
becomes text, in the echoed ``samples`` and in the check ids that name a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["CheckEntry", "Report", "format_residual", "format_time", "render_report",
           "render_reports"]


class CheckEntry(NamedTuple):
    check_id: str
    residual: float
    dims: tuple[int, ...] = ()
    passed: bool = True
    note: str = ""


@dataclass
class Report:
    scenario: str
    construction: str
    params: tuple[tuple[str, str], ...]
    entries: list[CheckEntry]

    @property
    def overall(self) -> bool:
        return all(entry.passed for entry in self.entries)


_EXACT_RESIDUALS = {0.0: "0.000000e0", 1.0: "1.000000e0"}


def format_residual(value: float) -> str:
    text = _EXACT_RESIDUALS.get(value)
    if text is not None and (value or math.copysign(1.0, value) > 0):  # -0.0 prints its sign
        return text
    mantissa, exponent = f"{value:.6e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def format_time(steps: int, cells_per_unit: int) -> str:
    """The grid time steps / cells_per_unit as ``str(Fraction(steps, cells_per_unit))``
    writes it: in lowest terms, and without a denominator when that is 1."""
    common = math.gcd(steps, cells_per_unit)
    if common == cells_per_unit:
        return str(steps // common)
    return f"{steps // common}/{cells_per_unit // common}"


def _format_dims(dims: tuple[int, ...]) -> str:
    return "|".join(map(str, dims)) if dims else "-"


def render_report(report: Report, version: str = "") -> str:
    lines = [f"scenario {report.scenario}", f"construction {report.construction}"]
    if version:
        lines.append(f"version {version}")
    for key, value in sorted(report.params):
        lines.append(f"param {key} = {value}")
    for entry in report.entries:
        line = (f"check id={entry.check_id}"
                f" residual={format_residual(entry.residual)}"
                f" dims={_format_dims(entry.dims)}"
                f" pass={'yes' if entry.passed else 'NO'}")
        if entry.note:
            line += f" note={entry.note}"
        lines.append(line)
    lines.append(f"overall {'pass' if report.overall else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_reports(reports, version: str = "") -> str:
    return "\n".join(render_report(r, version) for r in reports)
