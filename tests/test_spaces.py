"""Grid layouts and the L-region cell arrays, and the one rule for a count
(``numlin._read_count``) at every site that reads one, the sizes of the two
checked constructors ``Subspace`` and ``WindowedMap.from_image`` included."""

import re

import numpy as np
import pytest

from isoflow.commutant import (commutant_of_partial_isometries, doubly_commutant_of_mz,
                               fuglede_instance_check)
from isoflow.decompose import fourfold_decompose, wold_cooper
from isoflow.duality import (ExtensionSetup, circulant_pair_setup, dual_pair,
                             halfline_circulant_setup, minimal_extension)
from isoflow.errors import InvalidInput
from isoflow.numlin import Subspace
from isoflow.semigroups import SemigroupFamily, WindowedMap, circulant_family, tensor_with_identity
from isoflow.spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D, TorusGrid2D
from layout_oracle import coeff_index, grid_index

SETUP = circulant_pair_setup(3, 3)


def test_coefficient_index_equals_grid_index():
    """The interval-stacking permutation W is the identity under the fixed layouts."""
    for T, m, r in [(1, 1, 1), (2, 3, 2), (4, 2, 3), (3, 2, 1)]:
        grid, coeff = CellGrid1D(m, T, r), HardyCoeffSpace(T - 1, m, r)
        for n in range(T):
            for j in range(m):
                for rho in range(r):
                    assert coeff_index(coeff, n, j, rho) == grid_index(grid, n * m + j, rho)


def test_l_region_counts():
    for m, T in [(1, 2), (1, 3), (2, 2)]:
        region = LRegionIndex(m, T)
        l_cells, quadrant = region.l_cells(), region.quadrant_cells()
        assert len(l_cells) == 3 * (m * T) ** 2
        assert len(quadrant) == (m * T) ** 2
        assert set(l_cells.tolist()) | set(quadrant.tolist()) == set(range(region.parent.dim))
        for cells in (l_cells, quadrant):
            assert cells.dtype == np.int64 and not cells.flags.writeable


@pytest.mark.parametrize("build, message", [
    (lambda: CellGrid1D(2.0, 4), "m must be a positive integer, got 2.0"),
    (lambda: HardyCoeffSpace(3.0, 2), "top degree must be a nonnegative integer, got 3.0"),
    (lambda: QuadrantGrid2D(2, 2.0), "T must be a positive integer, got 2.0"),
    (lambda: TorusGrid2D(4, 1.0), "r must be a positive integer, got 1.0"),
    (lambda: LRegionIndex(1.0, 2), "m must be a positive integer, got 1.0"),
    (lambda: SemigroupFamily(SETUP.u1, 2.0), "cells_per_unit must be a positive integer, got 2.0"),
    (lambda: ExtensionSetup(SETUP.u1, SETUP.u2, SETUP.h, 1.5),
     "cells_per_unit must be a positive integer, got 1.5"),
    (lambda: circulant_pair_setup(3, 3, cells_per_unit=1.5),
     "cells_per_unit must be a positive integer, got 1.5"),
    (lambda: circulant_pair_setup(3.0, 3), "n1 must be a positive integer, got 3.0"),
    (lambda: circulant_pair_setup(3, 3.0), "n2 must be a positive integer, got 3.0"),
    (lambda: wold_cooper(circulant_family(3), 2.5), "max_steps must be a positive integer, got 2.5"),
    (lambda: fourfold_decompose(SETUP.compressed_pair, 3.5),
     "max_steps must be a positive integer, got 3.5"),
    (lambda: circulant_family(3.0), "n must be a positive integer, got 3.0"),
    (lambda: tensor_with_identity(SETUP.u1, 2.0), "fiber must be a positive integer, got 2.0"),
    (lambda: halfline_circulant_setup(1, 2, 3.0), "p must be a positive integer, got 3.0"),
    (lambda: halfline_circulant_setup(1.0, 2, 3), "m must be a positive integer, got 1.0"),
    (lambda: dual_pair(SETUP, 2.5), "max_orbit must be a positive integer, got 2.5"),
    (lambda: minimal_extension(SETUP, 3.0), "max_orbit must be a positive integer, got 3.0"),
    (lambda: commutant_of_partial_isometries(2.0, 1), "m must be an integer >= 2, got 2.0"),
    (lambda: commutant_of_partial_isometries(3, 1.0), "r must be a positive integer, got 1.0"),
    (lambda: doubly_commutant_of_mz(2.0, 1), "d must be a positive integer, got 2.0"),
    (lambda: doubly_commutant_of_mz(2, 1.0), "r must be a positive integer, got 1.0"),
    (lambda: fuglede_instance_check(circulant_family(4), circulant_family(4), 1.0, [1]),
     "fiber must be a positive integer, got 1.0"),
], ids=["CellGrid1D", "HardyCoeffSpace", "QuadrantGrid2D", "TorusGrid2D", "LRegionIndex",
        "SemigroupFamily", "ExtensionSetup", "circulant_pair_setup", "circulant_pair_setup_n1",
        "circulant_pair_setup_n2", "wold_cooper", "fourfold_decompose", "circulant_family",
        "tensor_with_identity", "halfline_circulant_setup_p", "halfline_circulant_setup_m",
        "dual_pair", "minimal_extension", "commutant_e_m", "commutant_e_r", "commutant_mz_d",
        "commutant_mz_r", "fuglede_fiber"])
def test_a_whole_float_size_is_refused(build, message):
    """A size, a time grid or a bound is an integer, read by one rule: 2.0 would
    give a float dim, which numpy refuses later with an error that names no
    parameter, and a grid of 1.5 was truncated to 1.  A caller that passes a
    count on (``fourfold_decompose``, ``dual_pair``) is refused by the reader
    it reaches, and a setup builder reads its own counts, so the refusal names
    its parameter (``n1``, not the ``n`` of the circulant that it builds)."""
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Subspace(4.0, [0, 1]), "ambient must be a nonnegative integer, got 4.0"),
    (lambda: Subspace(-1, []), "ambient must be a nonnegative integer, got -1"),
    (lambda: Subspace.zero(-3), "ambient must be a nonnegative integer, got -3"),
    (lambda: WindowedMap.from_image([0, 1], range(2), range(3), rows=3.0),
     "rows must be a nonnegative integer, got 3.0"),
    (lambda: WindowedMap.from_image([0, 1], range(2), range(2), rows=2.5),
     "rows must be a nonnegative integer, got 2.5"),
    (lambda: WindowedMap.from_image([], [], [], rows=-1),
     "rows must be a nonnegative integer, got -1"),
    (lambda: WindowedMap.identity(2.0), "n must be a nonnegative integer, got 2.0"),
    (lambda: WindowedMap.identity(-1), "n must be a nonnegative integer, got -1"),
], ids=["Subspace_float", "Subspace_negative", "Subspace.zero", "from_image_whole_float",
        "from_image_float", "from_image_negative", "identity_float", "identity_negative"])
def test_a_checked_constructor_reads_its_size_as_a_count(build, message):
    """``Subspace`` reads its ambient, ``from_image`` its rows and ``identity`` its n
    by the one rule, so a float or a negative size names its parameter: before, a
    float ambient or row count was kept or truncated and failed later, in
    ``complement`` or on an index, with an error that named none."""
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        build()


def test_grid_index_validation():
    with pytest.raises(InvalidInput):
        CellGrid1D(0, 2)
