"""Derived subspaces, the one setup constructor, and each dual value computed once.

Set algebra on checked cells (``intersect``, ``complement``, ``subtract``,
``_orbit_span``, the parts of ``wold_cooper``, ``_lift_local`` and
``_restrict_to``) builds its result through ``Subspace._derived``, which
skips the O(k) checks of ``Subspace(...)``.  The property tests record
every derived subspace made while these run and rebuild it through
``Subspace(...)``, which must accept it unchanged; each derived cell
array must be a read-only ``int64`` array.  A setup has one constructor,
which checks its unitaries: ``double_dual_check`` builds its adjoint
setup through ``ExtensionSetup(...)``, and that is the one setup it
makes.

A setup keeps its compressed pair, and the joint dc/ddc classification
hands that pair, its step-time verdicts and its dual on to both fourfold
splits.  The call counts pin that: one ``dual_pair``, one
``dual_fourfold``, four ``_orbit_span`` and two ``classify_pair`` calls
on the benchmark's ``simultaneous variant=mixed m=3 T=4 p=4``.  An oracle
built from the public functions pins that the reports are unchanged.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow import duality, semigroups
from isoflow.catalog import Scenario, _ddc_setup, run_scenario
from isoflow.decompose import classify_pair, fourfold_decompose, wold_cooper
from isoflow.duality import (ExtensionSetup, _lift_local, _orbit_moves, _orbit_span, _restrict_to,
                             bishift_setup, circulant_pair_setup, double_dual_check,
                             dual_fourfold, dual_pair, halfline_circulant_setup,
                             l_region_setup, setup_direct_sum, simultaneous_dc_ddc_classify)
from isoflow.numlin import Subspace, complement, intersect, subtract
from isoflow.report import CheckEntry
from isoflow.semigroups import SemigroupFamily, WindowedMap
from test_orbits import commuting_permutations

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def record_derived(mp: pytest.MonkeyPatch) -> list:
    """Spy on ``Subspace._derived``; returns the list it appends to."""
    subspaces = []
    real = Subspace._derived.__func__

    def spy(cls, ambient, cells):
        made = real(cls, ambient, cells)
        subspaces.append(made)
        return made

    mp.setattr(Subspace, "_derived", classmethod(spy))
    return subspaces


def assert_subspace_rebuilds(sub: Subspace) -> None:
    """sub passes every check of Subspace(...) unchanged and holds read-only int64 cells."""
    assert sub.cells is not None and sub.cells.dtype == np.int64
    assert not sub.cells.flags.writeable
    again = Subspace(sub.ambient, cells=sub.cells)
    assert (again.ambient, again.dim) == (sub.ambient, sub.dim)
    assert np.array_equal(again.cells, sub.cells)


# --- derived subspaces from set algebra --------------------------------------------

def _cells(draw, n: int) -> np.ndarray:
    return np.flatnonzero(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                   dtype=bool))


@st.composite
def set_algebra_cases(draw):
    p1, p2 = draw(commuting_permutations())
    n = p1.size
    a, b = _cells(draw, n), _cells(draw, n)
    image = np.array(draw(st.permutations(range(n))))
    image[_cells(draw, n)] = -1  # zero columns; the live rows stay distinct
    faithful = _cells(draw, n)
    return p1, p2, a, b, image, faithful, draw(st.integers(1, 6))


@SETTINGS
@given(set_algebra_cases())
def test_derived_subspaces_pass_the_public_checks(case):
    p1, p2, a_cells, b_cells, image, faithful, steps = case
    n = p1.size
    a, b = Subspace(n, cells=a_cells), Subspace(n, cells=b_cells)
    with pytest.MonkeyPatch.context() as mp:
        made = record_derived(mp)
        both = intersect(a, b)
        outside = complement(a)
        rest = subtract(a, both)
        local = _restrict_to(a, both)
        lifted = _lift_local(local, a)
        u1, u2 = (WindowedMap.from_image(p, range(n), range(n)) for p in (p1, p2))
        orbit = _orbit_span(_orbit_moves(u1, u2), b, steps)
        wold = wold_cooper(SemigroupFamily(WindowedMap.from_image(image, faithful, range(n))),
                           steps)
    results = [both, outside, rest, local, lifted, orbit.span, wold.unitary_part, wold.cnu_part]
    assert len(made) == len(results) and all(x is y for x, y in zip(made, results))
    for sub in made:
        assert_subspace_rebuilds(sub)
    # the set algebra each result stands for
    assert np.array_equal(both.cells, np.intersect1d(a_cells, b_cells))
    assert np.array_equal(outside.cells, np.setdiff1d(np.arange(n), a_cells))
    assert np.array_equal(rest.cells, np.setdiff1d(a_cells, b_cells))
    assert np.array_equal(a_cells[local.cells], both.cells)
    assert np.array_equal(lifted.cells, both.cells)
    assert np.array_equal(np.union1d(wold.unitary_part.cells, wold.cnu_part.cells),
                          np.arange(n))


# --- derived subspaces on the dual scenarios ---------------------------------------

def _mixed(m: int, T: int, p: int) -> ExtensionSetup:
    return setup_direct_sum(halfline_circulant_setup(m, T, p),
                            halfline_circulant_setup(m, T, p, unitary_first=True))


DUAL_RUNS = {  # name -> (setup builder, run)
    "double_dual": (lambda m, T, p: l_region_setup(m, T),
                    lambda setup, m, T: double_dual_check(setup, 4 * m * T)),
    "dual_fourfold": (lambda m, T, p: _ddc_setup(m, T, p, p),
                      lambda setup, m, T: dual_fourfold(setup, dual_pair(setup, 4 * m * T),
                                                        2 * m * T + 2, 4 * m * T)),
    "simultaneous_mixed": (_mixed, lambda setup, m, T: simultaneous_dc_ddc_classify(
        setup, 2 * m * T + 2, 4 * m * T)),
    "simultaneous_bishift": (lambda m, T, p: bishift_setup(m, T),
                             lambda setup, m, T: simultaneous_dc_ddc_classify(
                                 setup, 2 * m * T + 2, 4 * m * T)),
    "dual_pair": (lambda m, T, p: l_region_setup(m, T),
                  lambda setup, m, T: dual_pair(setup, 4 * m * T)),
}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DUAL_RUNS)), st.integers(1, 2), st.integers(2, 3),
       st.integers(2, 3))
def test_derived_values_of_the_dual_side_pass_the_public_checks(name, m, T, p):
    build, run = DUAL_RUNS[name]
    setup = build(m, T, p)
    with pytest.MonkeyPatch.context() as mp:
        subspaces = record_derived(mp)
        run(setup, m, T)
    assert subspaces
    for sub in subspaces:
        assert_subspace_rebuilds(sub)


def test_the_adjoint_setup_is_built_by_the_checked_constructor():
    """double_dual_check runs the checks of ExtensionSetup once, for the
    adjoint setup it builds: the adjoint unitaries on the first dual space."""
    setup = l_region_setup(1, 2)
    checked = []
    post_init = ExtensionSetup.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExtensionSetup, "__post_init__", counted)
        double_dual_check(setup, 8)
    adjoint, = checked
    assert np.array_equal(adjoint.u1.image, setup.u1.adjoint().image)
    assert np.array_equal(adjoint.u2.image, setup.u2.adjoint().image)
    assert np.array_equal(adjoint.h.cells, dual_pair(setup, 8).wth.cells)
    assert adjoint.cells_per_unit == setup.cells_per_unit
    assert adjoint.compressed_pair.dim == adjoint.h.dim != setup.h.dim


# --- each dual value once ----------------------------------------------------------

def count_calls(mp: pytest.MonkeyPatch) -> Counter:
    counts = Counter()
    for module, name in ((duality, "dual_pair"), (duality, "dual_fourfold"),
                         (duality, "_orbit_span"), (semigroups, "classify_pair")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        mp.setattr(module, name, counted)
    return counts


def test_joint_classification_computes_each_dual_value_once(monkeypatch):
    """The benchmark's mixed scenario: one dual, handed to the public dual fourfold
    split, which reuses its orbit, and one verdict per pair.  The split lifts each
    of its three dual corners, the empty one included, by one orbit span."""
    counts = count_calls(monkeypatch)
    report = run_scenario(Scenario("mixed", "simultaneous",
                                   {"variant": "mixed", "m": 3, "T": 4, "p": 4}))
    assert report.overall
    assert counts == Counter(dual_pair=1, dual_fourfold=1, _orbit_span=4, classify_pair=2)


def test_dual_fourfold_builds_the_orbit_moves_once(monkeypatch):
    """Four blocks of ``_ddc_setup(2, 4, 3, 3)``, both step verdicts read first: the
    split's three lifts share one ``_orbit_moves``, so it makes the 2 adjoints of
    U1 and U2; building them for each lift made 6."""
    setup = _ddc_setup(2, 4, 3, 3)
    dual = dual_pair(setup, 64)
    for pair in (setup.compressed_pair, dual.pair):  # each verdict builds one adjoint
        assert pair.step_verdict is pair.step_verdict
    calls = []
    adjoint = WindowedMap.adjoint

    def counted(self):
        calls.append(self)
        return adjoint(self)

    monkeypatch.setattr(WindowedMap, "adjoint", counted)
    split = dual_fourfold(setup, dual, 64, 64)
    assert split.tilde_dims[0] > 0 and len(calls) == 2
    assert calls[0] is setup.u1 and calls[1] is setup.u2


def public_simultaneous(setup: ExtensionSetup, max_steps: int,
                        max_orbit: int) -> list[CheckEntry]:
    """The joint classification from the public functions, each computing its own values."""
    pair = setup.compressed_pair
    step = [1]  # the time 1 / cells_per_unit
    dc = classify_pair(pair, step)
    entries = [CheckEntry("doubly_commuting", dc.double_comm_residual,
                          (1 if dc.classified == "doubly_commuting" else 0,), True,
                          dc.classified)]
    dual = dual_pair(setup, max_orbit)
    if dual.wth.dim == 0:
        ddc_holds = True
        entries.append(CheckEntry("dual_doubly_commuting", 0.0, (1,), True,
                                  "empty dual, vacuous"))
    else:
        ddc = classify_pair(dual.pair, step)
        ddc_holds = ddc.classified == "doubly_commuting"
        entries.append(CheckEntry("dual_doubly_commuting", ddc.double_comm_residual,
                                  (1 if ddc_holds else 0,), True, ddc.classified))
    if dc.classified == "doubly_commuting" and ddc_holds:
        split = fourfold_decompose(pair, max_steps)
        entries.append(CheckEntry("h_pp_dim", split.reduction_residual,
                                  (split.h_pp.dim,), split.h_pp.dim == 0))
        dsplit = dual_fourfold(setup, dual, max_steps, max_orbit)
        entries.append(CheckEntry("h_m_dim", dsplit.reduction_residual,
                                  (dsplit.h_m.dim,), dsplit.h_m.dim == 0))
        covered = dsplit.h_pu.dim + dsplit.h_up.dim + dsplit.h_uu.dim
        entries.append(CheckEntry("three_part_sum", dsplit.orthogonality_residual,
                                  (dsplit.h_pu.dim, dsplit.h_up.dim, dsplit.h_uu.dim),
                                  covered == setup.h.dim))
    return entries


@pytest.mark.parametrize("setup", [
    _mixed(1, 2, 3), _mixed(2, 3, 2), bishift_setup(1, 3),
    circulant_pair_setup(3, 3, cells_per_unit=2),
    setup_direct_sum(_mixed(1, 2, 2), circulant_pair_setup(2, 2, cells_per_unit=1)),
], ids=["mixed-1-2-3", "mixed-2-3-2", "bishift", "unitary", "mixed+unitary"])
def test_joint_classification_matches_the_public_functions(setup):
    """The reused pair, verdicts and dual give the entries of the public functions,
    with and without a unitary-unitary corner."""
    assert simultaneous_dc_ddc_classify(setup, 8, 16) == public_simultaneous(setup, 8, 16)
