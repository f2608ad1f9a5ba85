"""One allocation guard for every array quadratic in the dimension.

``numlin._check_budget`` prices an array as entries x bytes against
``numlin._BUDGET`` (256 MiB) and raises InvalidInput before numpy
allocates it.  The one such array left in the package is the n x n entry
labels of ``_exact_commutant``, one ``int64`` per entry of B and one for
the zero sentinel; nothing else builds a dense matrix.  Nothing here
allocates an array over the budget: each case is priced by the
estimator, refused before anything of its size exists, or the budget is
lowered on a small scenario.
"""

import tracemalloc

import pytest

from isoflow import numlin
from isoflow.cli import main
from isoflow.commutant import commutant_of_partial_isometries
from isoflow.errors import InvalidInput
from isoflow.numlin import _check_budget


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
