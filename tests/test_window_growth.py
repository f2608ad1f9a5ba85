"""Growing the window never flips a verdict.

A larger T represents more of the same infinite-dimensional operators, so
a scenario that passes at T must pass at T + 1, and the verdicts it names
in its notes (``classified``, ``doubly_commuting`` and
``dual_doubly_commuting``) must not change between two sizes that both
run.  A failure here is window pollution in the program, not a bound to
loosen.  Each construction with a ``T`` parameter runs at two small ``m``
(``circ`` for ``four_block_dc``) for T = 1, ..., 8, every other parameter
at its default.
"""

import pytest

from isoflow.catalog import Scenario, run_scenario
from isoflow.errors import IsoflowError

VERDICTS = ("classified", "doubly_commuting", "dual_doubly_commuting")
FAMILIES = [
    (construction, {key: value, **extra})
    for construction, key, extra in [
        ("halfline_shift", "m", {}), ("bishift", "m", {}), ("modified_bishift", "m", {}),
        ("four_block_dc", "circ", {}), ("four_block_ddc", "m", {}), ("bcl", "m", {}),
        ("dual_example", "m", {}), ("double_dual", "m", {}),
        ("simultaneous", "m", {"variant": "mixed"}),
        ("simultaneous", "m", {"variant": "bishift"}),
        ("simultaneous", "m", {"variant": "unitary"}),
    ]
    for value in (1, 3)
]


def outcome(construction: str, params: dict, T: int):
    """(passed, {check id: note} of the verdicts), or None when the scenario raises."""
    try:
        report = run_scenario(Scenario("growth", construction, {**params, "T": T}))
    except IsoflowError:
        return None
    return report.overall, {entry.check_id: entry.note for entry in report.entries
                            if entry.check_id in VERDICTS}


@pytest.mark.parametrize("construction, params", FAMILIES,
                         ids=[f"{c}-{'-'.join(f'{k}{v}' for k, v in p.items())}"
                              for c, p in FAMILIES])
def test_a_larger_window_keeps_every_verdict(construction, params):
    runs = [outcome(construction, params, T) for T in range(1, 9)]
    assert any(run is not None and run[0] for run in runs)  # the family passes somewhere
    for T, (small, large) in enumerate(zip(runs, runs[1:]), start=1):
        if small is None or not small[0]:
            continue
        assert large is not None and large[0], f"passes at T={T}, not at T={T + 1}"
        assert large[1] == small[1], f"verdict notes change from T={T} to T={T + 1}"
