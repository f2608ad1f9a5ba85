"""One allocation guard for every array quadratic in the dimension, and for ambients.

``numlin._check_budget`` prices an array as entries x bytes against
``numlin._BUDGET`` (256 MiB) and raises InvalidInput before numpy
allocates it.  The one quadratic array left in the package is the n x n
entry labels of ``_exact_commutant``, one ``int64`` per entry of B and one
for the zero sentinel; nothing else builds a dense matrix.  The commutant
solvers price those labels first, then the (maps, n) ``int64`` system of
stacked operator images, which at r = 1 is larger than the labels.  Every ambient
is priced too, one ``int64`` per cell (``numlin._check_cells``), by the
grid layouts of ``spaces``, ``_circulant_image``, ``tensor_with_identity``
and ``direct_sum``.  The sample plan of ``halfline_shift``, ``bishift`` and
``modified_bishift`` is priced before any map is built: one map of 10 bytes
per cell, per family, for each distinct step count among the sampled steps
and their pairwise sums, and for each square V^(2^i) that binary powering
keeps, one per bit of the largest of those step counts.  Nothing here allocates an array over the budget:
each case is priced by the estimator, refused before anything of its size
exists (a request of at least 2^63 cells, which numpy would refuse at
once anyway), or the budget is lowered on a small scenario.

The cases: the labels of a commutant on n = 5800 are refused before
allocating; under a lowered budget ``commutant_e m=4 r=2`` and
``halfline_shift m=1 T=8`` exit 2 naming their scenario, the labels of
``commutant_e m=40 r=1`` fit while its stacked system of 78 images is
refused before it is built, and every ambient guard refuses its ambient;
``bishift m=1000000 T=1000000`` (10^24 cells) exits 2, and
``LRegionIndex(64, 32)``, the ambient of ``dual_example m=64 T=32``, is
admitted.  Of the sample plans, ``bishift m=16 T=16`` with the 256
samples 1/16, ..., 16 exits 2 within a second, ``bishift m=16 T=32`` at
the one time 1e300 exits 2 for its 1,002 squares before any map exists,
and each sampled construction is refused one byte under its plan and
runs at it.
"""

import time
import tracemalloc

import pytest

from isoflow import numlin, semigroups
from isoflow.cli import main
from isoflow.commutant import commutant_of_partial_isometries
from isoflow.errors import InvalidInput
from isoflow.numlin import _check_budget
from isoflow.semigroups import WindowedMap, _circulant_image, direct_sum, tensor_with_identity
from isoflow.spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D, TorusGrid2D


def test_the_estimator_prices_entries_times_bytes():
    _check_budget(2**24, 16, "a dense 4096 x 4096 matrix")  # exactly the budget passes
    with pytest.raises(InvalidInput, match=r"^a dense 4096 x 4097 matrix needs 268,500,992 "
                                           r"bytes, over the budget of 268,435,456$"):
        _check_budget(4096 * 4097, 16, "a dense 4096 x 4097 matrix")


def test_a_dense_matrix_over_the_budget_is_refused_before_allocating():
    """The labels of a commutant on n = 5800 (m = 2, r = 2900) are a dense
    5800 x 5800 int64 matrix and a sentinel: 269,120,008 bytes, refused before
    anything of that size is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match=r"^a commutant on n = 5800 needs 269,120,008 "
                                               r"bytes, over the budget of 268,435,456$"):
            commutant_of_partial_isometries(2, 2900)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_an_oversized_request_exits_two_naming_its_scenario(monkeypatch, tmp_path, capsys):
    """With the budget lowered to 512 bytes, the labels of commutant_e m=4 r=2
    (n = 8: 65 int64 entries, 520 bytes) are refused the way n = 5800 is at the
    real budget."""
    monkeypatch.setattr(numlin, "_BUDGET", 512)
    config = tmp_path / "labels.cfg"
    config.write_text("[labels]\nconstruction = commutant_e\nm = 4\nr = 2\n")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        "isoflow: error: [labels] a commutant on n = 8 needs 520 bytes, "
        "over the budget of 512\n")


def test_the_commutant_system_is_priced_before_it_is_built(monkeypatch, tmp_path, capsys):
    """commutant_e m=40 r=1 solves on n = 40 against the 78 cut-shift pieces
    of the shifts 1..39: its labels take 12,808 bytes and its stacked images
    24,960.  Under a budget of 20,000 bytes the labels fit and the system is
    refused, before any array of its size exists."""
    monkeypatch.setattr(numlin, "_BUDGET", 20_000)
    message = ("a commutant system of 78 maps on n = 40 needs 24,960 bytes, "
               "over the budget of 20,000")
    config = tmp_path / "system.cfg"
    config.write_text("[system]\nconstruction = commutant_e\nm = 40\nr = 1\n")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == f"isoflow: error: [system] {message}\n"
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            commutant_of_partial_isometries(40, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000


def test_a_request_of_2_63_cells_exits_two_naming_its_scenario(tmp_path, capsys):
    """bishift m = T = 10^6 asks for a quadrant of 10^24 cells; numpy refused its first
    array with a ValueError and a traceback (exit 1), and the grid now prices it first."""
    config = tmp_path / "huge.cfg"
    config.write_text("[huge]\nconstruction = bishift\nm = 1000000\nT = 1000000\n")
    assert 10**24 >= 2**63
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        "isoflow: error: [huge] an ambient of 1,000,000,000,000,000,000,000,000 cells needs "
        "8,000,000,000,000,000,000,000,000 bytes, over the budget of 268,435,456\n")


def test_a_lowered_budget_refuses_a_small_ambient(monkeypatch, tmp_path, capsys):
    """With the budget at 32 bytes, the 8 cells of halfline_shift m=1 T=8 are refused
    by the grid, before any array of it exists."""
    monkeypatch.setattr(numlin, "_BUDGET", 32)
    config = tmp_path / "cells.cfg"
    config.write_text("[cells]\nconstruction = halfline_shift\nm = 1\nT = 8\n")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        "isoflow: error: [cells] an ambient of 8 cells needs 64 bytes, over the budget of 32\n")


def test_every_ambient_guard_prices_one_int64_per_cell(monkeypatch):
    """Each guard point refuses an ambient of 8 cells under a budget of 7 cells and
    admits one of 4 cells."""
    part = WindowedMap.identity(4)
    monkeypatch.setattr(numlin, "_BUDGET", 7 * 8)
    oversized = [lambda: CellGrid1D(2, 4), lambda: HardyCoeffSpace(1, 4),
                 lambda: QuadrantGrid2D(1, 3), lambda: TorusGrid2D(2, 2),
                 lambda: _circulant_image(8), lambda: tensor_with_identity(part, 2),
                 lambda: direct_sum(part, part)]
    for build in oversized:
        with pytest.raises(InvalidInput, match=r"^an ambient of (8|9) cells needs"):
            build()
    CellGrid1D(1, 4), HardyCoeffSpace(1, 2), TorusGrid2D(2), _circulant_image(4)
    tensor_with_identity(part, 1), direct_sum(part)


def test_the_largest_documented_ambient_is_admitted():
    """dual_example m=64 T=32 lives on a torus of 4096^2 = 16,777,216 cells,
    134,217,728 bytes of int64; three fibers would take 402,653,184."""
    assert LRegionIndex(64, 32).parent.dim == 16_777_216
    with pytest.raises(InvalidInput, match=r"^an ambient of 50,331,648 cells needs "
                                           r"402,653,184 bytes"):
        LRegionIndex(64, 32, 3)


def test_an_oversized_sample_plan_exits_two_within_a_second(tmp_path, capsys):
    """bishift m=16 T=16 with the 256 samples 1/16, ..., 16 keeps a map per family for
    each of the 512 step counts 1..512, and the 10 squares up to V^512, on 65,536 cells;
    unpriced, it ran for minutes."""
    config = tmp_path / "plan.cfg"
    samples = ",".join(f"{j}/16" for j in range(1, 257))
    config.write_text(f"[plan]\nconstruction = bishift\nm = 16\nT = 16\nsamples = {samples}\n")
    start = time.perf_counter()
    assert main(["run", str(config)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "isoflow: error: [plan] a sample plan of 512 step counts and 10 squares on 2 x 65,536 "
        "cells needs 684,195,840 bytes, over the budget of 268,435,456\n")


def test_a_plan_of_few_steps_prices_the_squares_of_the_largest(monkeypatch, tmp_path, capsys):
    """bishift m=16 T=32 at the one time 1e300 samples the steps j = 16 * 10^300 and 2j:
    two step counts, 10 MB priced by them alone, but binary powering would keep the
    1,002 squares up to V^(2^1001) of each family, 262,144 cells each.  The run exits 2
    naming its section before any map exists."""
    config = tmp_path / "squares.cfg"
    config.write_text("[squares]\nconstruction = bishift\nm = 16\nT = 32\nsamples = 1e300\n")
    built = []
    for name in ("from_image", "_derived"):
        monkeypatch.setattr(semigroups.WindowedMap, name,
                            classmethod(lambda cls, *args, _name=name: built.append(_name)))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        "isoflow: error: [squares] a sample plan of 2 step counts and 1,002 squares on "
        "2 x 262,144 cells needs 5,263,851,520 bytes, over the budget of 268,435,456\n")
    assert built == []


@pytest.mark.parametrize("section, plan", [
    # steps 1, 2, 3 and their sums 2..6, and the squares V, V^2, V^4 of one family on 8 cells
    ("construction = halfline_shift\nm = 1\nT = 8\nsamples = 1,2,3",
     "6 step counts and 3 squares on 1 x 8"),
    # steps 1, 2, their sums 2, 3, 4 and the squares up to V^4 on the 16 cells of the
    # quadrant, for each family
    ("construction = bishift\nm = 2\nT = 2", "4 step counts and 3 squares on 2 x 16"),
    # step 1, its sum 2 and the squares V, V^2 on the 3 * 4 cells of the L-region
    ("construction = modified_bishift\nm = 1\nT = 2\nsamples = 1",
     "2 step counts and 2 squares on 2 x 12"),
])
def test_each_sampled_construction_prices_its_plan_exactly(monkeypatch, tmp_path, capsys,
                                                           section, plan):
    """At a budget one byte under the plan the run exits 2 naming it; at the plan it passes."""
    counts, rest = plan.split(" step counts and ")
    squares, cells = rest.split(" squares on ")
    families, cells = map(int, cells.split(" x "))
    need = (int(counts) + int(squares)) * families * cells * 10
    config = tmp_path / "plan.cfg"
    config.write_text(f"[p]\n{section}\n")
    monkeypatch.setattr(numlin, "_BUDGET", need - 1)
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"isoflow: error: [p] a sample plan of {plan} cells needs {need:,} bytes, "
        f"over the budget of {need - 1:,}\n")
    monkeypatch.setattr(numlin, "_BUDGET", need)
    assert main(["run", str(config)]) == 0
