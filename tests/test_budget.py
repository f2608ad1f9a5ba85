"""One allocation guard for every array quadratic in the dimension.

``numlin._check_budget`` prices an array as entries x bytes against
``numlin._BUDGET`` (256 MiB) and raises InvalidInput before numpy
allocates it.  It stands in front of the dense matrix of ``_from_image``
(``WindowedMap.matrix``, ``Subspace.basis`` and the witness block of
``_image_residual``), the indicator basis of ``CommutantBasis`` and the
entry labels of ``_exact_commutant``.  Nothing here allocates an array
over the budget: each case is priced by the estimator, or the budget is
lowered on a small scenario.
"""

import tracemalloc

import numpy as np
import pytest

from isoflow import numlin, semigroups
from isoflow.catalog import Scenario, run_scenario
from isoflow.cli import main
from isoflow.commutant import commutant_of_partial_isometries
from isoflow.errors import InvalidInput
from isoflow.numlin import Subspace, _check_budget, _from_image


def test_the_estimator_prices_entries_times_bytes():
    _check_budget(2**24, 16, "a dense 4096 x 4096 matrix")  # exactly the budget passes
    with pytest.raises(InvalidInput, match=r"^a dense 4096 x 4097 matrix needs 268,500,992 "
                                           r"bytes, over the budget of 268,435,456$"):
        _check_budget(4096 * 4097, 16, "a dense 4096 x 4097 matrix")


def test_a_dense_matrix_over_the_budget_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match=r"a dense 8192 x 8192 matrix needs "
                                               r"1,073,741,824 bytes"):
            _from_image(np.full(8192, -1), 8192)
        with pytest.raises(InvalidInput, match=r"a dense 8192 x 8192 matrix"):
            Subspace.full(8192).basis
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def witness_shapes(monkeypatch, m: int) -> list:
    """Shapes of the dense blocks that ``modified_bishift m=<m>`` builds at its defaults."""
    shapes = []

    def spy(image, rows=None, _real=_from_image):
        shapes.append((rows, len(image)))
        return _real(image, rows)

    monkeypatch.setattr(semigroups, "_from_image", spy)
    assert run_scenario(Scenario("w", "modified_bishift", {"m": m})).overall
    return shapes


def test_the_modified_bishift_witness_is_priced_before_it_is_built(monkeypatch):
    """The adjoint-commutator witness is two dense m^2 x m^2 blocks at the default
    T = 2, so m = 128 would take two 16,384^2 complex matrices of 4.3 GB each and an
    SVD; the guard refuses that before allocating."""
    for m in (2, 4, 8):
        assert witness_shapes(monkeypatch, m) == [(m * m, m * m)] * 2
    with pytest.raises(InvalidInput, match=r"needs 4,294,967,296 bytes"):
        _check_budget((128 * 128) ** 2, 16, "a dense 16384 x 16384 matrix")


def test_an_oversized_witness_exits_two_naming_its_scenario(monkeypatch, tmp_path, capsys):
    """With the budget lowered to 2 KiB, the 16 x 16 witness of m = 4 (4 KiB) is
    refused the way an m = 128 one is at the real budget."""
    monkeypatch.setattr(numlin, "_BUDGET", 2048)
    config = tmp_path / "witness.cfg"
    config.write_text("[witness]\nconstruction = modified_bishift\nm = 4\n")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        "isoflow: error: [witness] a dense 16 x 16 matrix needs 4,096 bytes, "
        "over the budget of 2,048\n")


def test_the_commutant_basis_is_priced_before_it_is_built(monkeypatch):
    """m = 4, r = 2 (n = 8): 4 indicators of 64 complex entries, 4,096 bytes."""
    result = commutant_of_partial_isometries(4, 2)
    monkeypatch.setattr(numlin, "_BUDGET", 4095)
    with pytest.raises(InvalidInput, match=r"^the dense basis of a commutant on n = 8 needs "
                                           r"4,096 bytes, over the budget of 4,095$"):
        result.basis
    monkeypatch.setattr(numlin, "_BUDGET", 4096)
    assert len(result.basis) == 4
