"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
package reads no tolerance: each of its checks passes at residual exactly
0.  The bounds written below (1e-8, 1e-10) are the tests' own, and the
criteria marked "exact" demand residuals of exactly zero (integer
permutation identities), not merely small ones.
"""

import pathlib
import time

import numpy as np

from dense_oracle import from_image, indicators, matrix
from isoflow import __version__
from isoflow.catalog import run_scenario
from isoflow.cli import load_scenarios
from isoflow.commutant import commutant_of_partial_isometries, doubly_commutant_of_mz
from isoflow.decompose import bcl_check, fourfold_decompose, product_unitary_part, wold_cooper
from isoflow.duality import (bishift_setup, double_dual_check, dual_pair,
                             halfline_circulant_setup, l_region_setup, dual_fourfold,
                             circulant_pair_setup, setup_direct_sum)
from isoflow.numlin import Subspace
from isoflow.report import render_reports
from isoflow.semigroups import (PairOfSemigroups, SemigroupFamily, _cut_shift_images,
                                bishift_families, bishift_pair, check_semigroup_law,
                                circulant_family, direct_sum, halfline_shift_family,
                                modified_bishift_families, phi_family, tensor_with_identity)
from isoflow.spaces import CellGrid1D, LRegionIndex, QuadrantGrid2D

ROOT = pathlib.Path(__file__).resolve().parent.parent


def report_line(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_bcl_identification():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for r in (1, 2):
        samples = []
        for j in range(4 * 3 + 1):
            n, jj = divmod(j, 4)
            if (3 - n if jj == 0 else 3 - n - 1) >= 0:
                samples.append(j)  # the step count of the time j/4
        entries = bcl_check(4, 4, r, samples)
        count += len(entries)
        worst = max(worst, max(e.residual for e in entries))
        assert all(e.passed for e in entries)
    elapsed = time.perf_counter() - start
    report_line(1, worst == 0.0 and elapsed < 1.0,
                f"multiplier model exact over {count} grid times, r in {{1,2}}, "
                f"residual {worst}, {elapsed:.3f}s")


def test_criterion_02_partial_isometry_resolutions():
    start = time.perf_counter()
    checked = 0
    for m in range(1, 17):
        for j in range(m):
            for r in (1, 2):
                e0, e1 = map(from_image, _cut_shift_images(m, j, r))
                eye = np.eye(m * r)
                ok = (np.array_equal(e0 @ e0.conj().T + e1 @ e1.conj().T, eye)
                      and np.array_equal(e0.conj().T @ e0 + e1.conj().T @ e1, eye))
                assert ok, (m, j, r)
                checked += 1
    elapsed = time.perf_counter() - start
    report_line(2, elapsed < 1.0,
                f"both cut-shift resolutions exact for {checked} (m, j, r) cases, "
                f"{elapsed:.3f}s")


def test_criterion_03_wold_split():
    start = time.perf_counter()
    shift = halfline_shift_family(CellGrid1D(1, 8))
    family = SemigroupFamily(direct_sum(shift.generator, circulant_family(4).generator))
    result = wold_cooper(family, 8)
    # independent oracle: coordinate ranges of the powers, intersected as sets
    oracle = set(range(12))
    for k in range(1, 9):
        oracle &= {i + k for i in range(8) if i + k < 8} | {8, 9, 10, 11}
    block = Subspace(12, (8, 9, 10, 11))
    gap = result.unitary_part.gap(block)
    elapsed = time.perf_counter() - start
    report_line(3, result.unitary_part.dim == 4 == len(oracle) and gap <= 1e-8
                and elapsed < 1.0,
                f"unitary part dim {result.unitary_part.dim} (oracle {len(oracle)}), "
                f"angle gap {gap}, {elapsed:.3f}s")


def test_criterion_04_fourfold_block_recovery():
    shift_gen = halfline_shift_family(CellGrid1D(1, 4)).generator
    circ_gen = circulant_family(3).generator
    v1 = direct_sum(tensor_with_identity(shift_gen, 4, "right"),
                    tensor_with_identity(shift_gen, 3, "right"),
                    tensor_with_identity(circ_gen, 4, "right"),
                    tensor_with_identity(circ_gen, 3, "right"))
    v2 = direct_sum(tensor_with_identity(shift_gen, 4, "left"),
                    tensor_with_identity(circ_gen, 4, "left"),
                    tensor_with_identity(shift_gen, 3, "left"),
                    tensor_with_identity(circ_gen, 3, "left"))
    pair = PairOfSemigroups(SemigroupFamily(v1), SemigroupFamily(v2))
    split = fourfold_decompose(pair, 6)
    expected = (16, 12, 12, 9)
    report_line(4, split.dims == expected and split.reduction_residual <= 1e-10,
                f"fourfold dims {split.dims} == construction {expected}, "
                f"reduction residual {split.reduction_residual}")


def test_criterion_05_commutant_structure():
    ok = True
    details = []
    for m, r in ((2, 1), (4, 2), (3, 3)):
        result = commutant_of_partial_isometries(m, r)
        # independent cross-check: the r^2 fiber units on every cell solve the
        # same constraints and exhaust the solver's span
        units = []
        for a in range(r):
            for b in range(r):
                c = np.zeros((r, r), dtype=complex)
                c[a, b] = 1.0
                units.append(np.kron(np.eye(m), c))
        stack = np.column_stack([u.reshape(-1, order="F") for u in units])
        basis = np.column_stack([bb.reshape(-1, order="F") for bb in indicators(result)])
        coeff, *_ = np.linalg.lstsq(stack, basis, rcond=None)
        spanned = np.linalg.norm(stack @ coeff - basis) < 1e-8
        good = (result.dim == r * r and result.structure_verdict == "fiber_scalar"
                and result.max_structure_residual <= 1e-10 and spanned)
        ok = ok and good
        details.append(f"(m={m},r={r}): dim {result.dim}, recon {result.max_structure_residual:.1e}")
    report_line(5, ok, "; ".join(details))


def test_criterion_06_mz_double_commutant():
    ok = True
    details = []
    for d, r in ((1, 1), (3, 2)):
        result = doubly_commutant_of_mz(d, r)
        good = (result.dim == r * r and result.structure_verdict == "fiber_scalar"
                and result.max_structure_residual <= 1e-10)
        ok = ok and good
        details.append(f"(d={d},r={r}): dim {result.dim}, recon {result.max_structure_residual:.1e}")
    report_line(6, ok, "; ".join(details))


def test_criterion_07_dual_example_exact():
    ok = True
    details = []
    for T in (2, 3):
        dual = dual_pair(l_region_setup(1, T), 4 * T)
        model1, model2 = bishift_pair(QuadrantGrid2D(1, T), 1)
        exact = (np.array_equal(matrix(dual.pair.first.generator), matrix(model1))
                 and np.array_equal(matrix(dual.pair.second.generator), matrix(model2))
                 and np.array_equal(dual.pair.first.generator.faithful_mask,
                                    model1.faithful_mask)
                 and np.array_equal(dual.pair.second.generator.faithful_mask,
                                    model2.faithful_mask))
        ok = ok and exact
        details.append(f"T={T}: integer equality {exact}")
    report_line(7, ok, "; ".join(details))


def test_criterion_08_double_dual_recovery():
    ok = True
    details = []
    for T in (2, 3):
        entries = double_dual_check(l_region_setup(1, T), 4 * T, radius_bound=2 * T)
        by_id = {e.check_id: e for e in entries}
        good = (all(e.passed for e in entries)
                and by_id["recovered_axis1"].residual == 0.0
                and by_id["recovered_axis2"].residual == 0.0
                and by_id["minimality_radius"].dims[0] <= 2 * T)
        ok = ok and good
        details.append(f"T={T}: radius {by_id['minimality_radius'].dims[0]} <= {2 * T}")
    report_line(8, ok, "; ".join(details))


def test_criterion_09_dual_cnu():
    bundled = [l_region_setup(1, 2), l_region_setup(1, 3), bishift_setup(1, 2),
               halfline_circulant_setup(1, 2, 3),
               halfline_circulant_setup(1, 2, 3, unitary_first=True)]
    ok = True
    details = []
    for number, setup in enumerate(bundled):
        dual = dual_pair(setup, 2 * setup.ambient_dim)
        product = product_unitary_part(dual.pair, setup.ambient_dim)
        good = product.subspace.dim == 0 and product.stabilized
        ok = ok and good
        details.append(f"setup {number}: dim {product.subspace.dim}, "
                       f"stabilized {product.stabilized}")
    report_line(9, ok, "; ".join(details))


def test_criterion_10_dual_fourfold_recovery():
    setup = setup_direct_sum(
        l_region_setup(1, 2),
        halfline_circulant_setup(1, 2, 3),
        halfline_circulant_setup(1, 2, 3, unitary_first=True),
        circulant_pair_setup(3, 3))
    result = dual_fourfold(setup, dual_pair(setup, 8), 6, 8)
    expected = (12, 6, 6, 9)
    report_line(10, result.dims == expected
                and result.orthogonality_residual <= 1e-10
                and result.reduction_residual <= 1e-10,
                f"dual fourfold dims {result.dims} == blocks {expected}, "
                f"orthogonality {result.orthogonality_residual}, "
                f"reduction {result.reduction_residual}")


def bundled_families():
    """Each family with the step counts of its sampled times."""
    yield halfline_shift_family(CellGrid1D(1, 8)), [1, 2, 3]
    yield halfline_shift_family(CellGrid1D(2, 2, 2)), [1, 2]  # times 1/2, 1
    pair = bishift_families(QuadrantGrid2D(2, 2))
    yield pair.first, [1, 2]  # times 1/2, 1
    yield pair.second, [1, 2]
    modified = modified_bishift_families(LRegionIndex(1, 2))
    yield modified.first, [1]
    yield modified.second, [1]
    yield circulant_family(4), [1, 2, 3]
    yield phi_family(3, 2), [1, 2]  # times 1/2, 1
    yield phi_family(3, 4, 2), [1, 2]  # times 1/4, 1/2
    dual = dual_pair(l_region_setup(1, 3), 12)  # 3x3 quadrant window fits t=1+1
    yield dual.pair.first, [1]
    yield dual.pair.second, [1]


def test_criterion_11_semigroup_laws():
    worst = 0.0
    count = 0
    for family, samples in bundled_families():
        entries = check_semigroup_law(family, samples)
        count += 1
        worst = max(worst, max(e.residual for e in entries))
        assert all(e.passed for e in entries), count
    report_line(11, worst == 0.0,
                f"{count} bundled families, worst law residual {worst} (exact)")


def test_criterion_12_determinism_and_goldens():
    mismatch = []
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        texts = []
        for _ in range(2):
            scenarios = load_scenarios(str(config))
            texts.append(render_reports([run_scenario(s) for s in scenarios],
                                        version=__version__))
        golden = (ROOT / "tests" / "golden" / f"{config.stem}.txt").read_text()
        if texts[0] != texts[1] or texts[0] != golden:
            mismatch.append(config.stem)
    report_line(12, not mismatch,
                f"all bundled scenarios byte-identical across reruns and goldens"
                f"{'' if not mismatch else ': MISMATCH ' + ','.join(mismatch)}")
