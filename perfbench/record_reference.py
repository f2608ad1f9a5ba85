#!/usr/bin/env python3
"""Record the reference digests of the generated workloads into reference.json.

Each generated scenario's rendered report block is hashed with sha256.  Run
from the repository root, on a commit whose reports are known to be right:

    python3 perfbench/record_reference.py

The bundled configs need no digests here: they are checked against
``tests/golden/*.txt``.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import isoflow  # noqa: E402
from isoflow.catalog import run_scenario  # noqa: E402
from isoflow.cli import load_scenarios  # noqa: E402
from isoflow.report import render_reports  # noqa: E402
from workloads import (GENERATED, REFERENCE, block_name, config_text, digest,  # noqa: E402
                       split_blocks)


def main() -> int:
    reference = {}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for name in GENERATED:
        config = out / f"{name}.cfg"
        config.write_text(config_text(name))
        reports = [run_scenario(s) for s in load_scenarios(str(config))]
        if not all(r.overall for r in reports):
            print(f"{name}: a scenario fails; not recording", file=sys.stderr)
            return 1
        text = render_reports(reports, version=isoflow.__version__)
        reference[name] = {block_name(b): digest(b) for b in split_blocks(text)}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
