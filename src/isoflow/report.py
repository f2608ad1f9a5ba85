"""Structured verification reports with a byte-stable text rendering.

Every public check returns its ``CheckEntry`` list, and the one ``Report``
of a scenario, built by ``catalog.run_scenario``, holds its name, its
construction, its echoed parameters and those entries.  One record per
check, fields in fixed order.  A residual keeps six fractional digits
with a bare integer exponent, so an exact 0 prints as ``0.000000e0`` and
an exact 1 as ``1.000000e0``; the checks compute no residual between them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckEntry", "Report", "format_residual", "render_report", "render_reports"]


@dataclass(frozen=True)
class CheckEntry:
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


def format_residual(value: float) -> str:
    mantissa, exponent = f"{value:.6e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _format_dims(dims: tuple[int, ...]) -> str:
    return "|".join(str(d) for d in dims) if dims else "-"


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
