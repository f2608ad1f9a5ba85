"""Workloads of the isoflow benchmark and the reference outputs they are checked against.

A workload is a list of config files, each run the way ``isoflow run`` runs
one: ``cli.load_scenarios``, ``catalog.run_scenario`` per scenario, then
``report.render_reports``.  Three workloads are generated configs; the fourth
is the bundled ``configs/*.cfg`` checked against ``tests/golden/*.txt``.
Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# name -> ((section, construction, params), ...); sizes fixed, see README.md
GENERATED = {
    "window_algebra": (
        ("halfline_shift-m8-T24", "halfline_shift", {"m": 8, "T": 24}),
        ("bishift-m4-T4", "bishift", {"m": 4, "T": 4}),
        ("four_block_dc-T12-circ6", "four_block_dc", {"T": 12, "circ": 6}),
        ("modified_bishift-m3-T4", "modified_bishift", {"m": 3, "T": 4}),
        ("bcl-T10-m10-r2", "bcl", {"T": 10, "m": 10, "r": 2}),
    ),
    "commutant_solve": (
        ("commutant_e-m7-r2", "commutant_e", {"m": 7, "r": 2}),
        ("commutant_e-m4-r4", "commutant_e", {"m": 4, "r": 4}),
        ("commutant_mz-d6-r4", "commutant_mz", {"d": 6, "r": 4}),
    ),
    "dual_orbits": (
        ("dual_example-m3-T4", "dual_example", {"m": 3, "T": 4}),
        ("double_dual-m3-T4", "double_dual", {"m": 3, "T": 4}),
        ("four_block_ddc-m2-T4", "four_block_ddc", {"m": 2, "T": 4}),
        ("simultaneous-bishift-m3-T4", "simultaneous", {"variant": "bishift", "m": 3, "T": 4}),
        ("simultaneous-mixed-m3-T4-p4", "simultaneous",
         {"variant": "mixed", "m": 3, "T": 4, "p": 4}),
        ("simultaneous-unitary-p16", "simultaneous", {"variant": "unitary", "p": 16}),
    ),
}
GOLDEN = "golden_configs"
NAMES = (*GENERATED, GOLDEN)


@dataclass(frozen=True)
class Batch:
    """One config file and the rendered text each of its scenarios must produce.

    ``expected`` maps scenario name to the sha256 of its rendered block;
    ``golden`` is the whole rendered file when the repository owns one.
    """

    config: pathlib.Path
    expected: dict
    golden: str | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split_blocks(text: str) -> list[str]:
    """Split ``render_reports`` output into one block per report.

    Reports are joined by a blank line and contain none themselves.
    """
    if not text:
        return []
    return [block + "\n" for block in text.rstrip("\n").split("\n\n")]


def block_name(block: str) -> str:
    first = block.split("\n", 1)[0]
    return first[len("scenario "):] if first.startswith("scenario ") else ""


def config_text(name: str) -> str:
    sections = []
    for section, construction, params in GENERATED[name]:
        lines = [f"[{section}]", f"construction = {construction}"]
        lines += [f"{key} = {value}" for key, value in params.items()]
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)


def batches(name: str, root: pathlib.Path, out_dir: pathlib.Path) -> list[Batch]:
    """Write the workload's generated config (if any) and return its batches."""
    if name == GOLDEN:
        found = []
        for config in sorted((root / "configs").glob("*.cfg")):
            golden = (root / "tests" / "golden" / f"{config.stem}.txt").read_text()
            expected = {block_name(b): digest(b) for b in split_blocks(golden)}
            found.append(Batch(config, expected, golden))
        if not found:
            raise FileNotFoundError(f"no configs/*.cfg under {root}")
        return found
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / f"{name}.cfg"
    config.write_text(config_text(name))
    expected = json.loads(REFERENCE.read_text())[name]
    return [Batch(config, expected)]
