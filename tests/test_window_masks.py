"""Exactness windows held as boolean masks.

A ``WindowedMap`` keeps each window as a read-only boolean mask;
``faithful`` is a frozenset view built on first read, which only the
benchmark's tracer reads.  These tests pin the constructor contract (mask,
index array or iterable; wrong length, out-of-range indices and a Python
bool as an index rejected), check that no bundled
config and no construction at its defaults reads the frozenset view or
calls any ``np.linalg`` function, that ``WindowedMap`` has no ``matrix``
and ``Subspace`` and ``CommutantBasis`` no ``basis`` attribute, and bound
the power cache that the halfline Wold split at the default ``K`` keeps
below 16 MiB.  The dual example
compares its dual generators with the bishift model image against image,
also when they differ.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isoflow import catalog, duality
from isoflow.catalog import CATALOG, Scenario, run_scenario
from isoflow.cli import load_scenarios
from isoflow.commutant import CommutantBasis
from isoflow.decompose import wold_cooper
from isoflow.errors import DimensionMismatch, InternalInconsistency, InvalidInput
from isoflow.numlin import Subspace
from isoflow.semigroups import WindowedMap, _pair_residual, _window, halfline_shift_family
from isoflow.spaces import CellGrid1D

ROOT = Path(__file__).resolve().parents[1]


def count_linalg_calls(monkeypatch) -> list:
    """Record the name of every ``np.linalg`` function called from now on."""
    calls = []

    def counting(name, func):
        def counted(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return counted

    for name in np.linalg.__all__:
        func = getattr(np.linalg, name)
        if callable(func) and not isinstance(func, type):  # LinAlgError is a class
            monkeypatch.setattr(np.linalg, name, counting(name, func))
    return calls


def test_halfline_power_cache_at_default_k_stays_small():
    """r = 1 and the runner's default K = m*T + 2 on dim 1024: the split builds
    no power, and element(K - 1) = V^1025 keeps the 11 squares up to V^1024 and
    itself.  A cache of all 1,026 powers took about 98 MiB with frozenset windows."""
    grid = CellGrid1D(16, 64)
    steps = grid.m * grid.T + 2
    tracemalloc.start()
    try:
        family = halfline_shift_family(grid)
        wold = wold_cooper(family, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wold.stabilized and wold.cnu_part.dim == grid.dim
    assert family.element(steps - 1) is family.element(steps - 1)
    assert peak < 16 * 2**20


def test_bundled_configs_read_no_frozenset_window(monkeypatch):
    """The catalog is exact by construction: no bundled scenario, and no
    construction at its defaults, reads a frozenset window or calls any
    ``np.linalg`` function; the witness norm of ``modified_bishift`` comes in
    closed form.  No map, subspace or commutant holds a dense matrix or basis."""
    for owner, name in ((WindowedMap, "matrix"), (Subspace, "basis"), (CommutantBasis, "basis")):
        assert not hasattr(owner, name)
    reads = []
    read = WindowedMap.__dict__["faithful"].func
    monkeypatch.setattr(WindowedMap, "faithful",
                        property(lambda self: reads.append("faithful") or read(self)))
    linalg = count_linalg_calls(monkeypatch)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    assert configs
    scenarios = [scenario for config in configs for scenario in load_scenarios(str(config))]
    scenarios += [Scenario(name, name, {}) for name, *_ in CATALOG]
    for scenario in scenarios:
        assert run_scenario(scenario).overall, scenario.name
    assert reads == [] and linalg == []


def test_window_validation_and_read_only_masks():
    image = np.array([1, -1, 0])
    with pytest.raises(InvalidInput, match="shape"):
        WindowedMap.from_image(image, np.ones(2, dtype=bool), np.ones(3, dtype=bool))
    with pytest.raises(InvalidInput, match="faithful index outside the domain"):
        WindowedMap.from_image(image, np.array([0, 3]), ())
    with pytest.raises(InvalidInput, match="adjoint-faithful index outside the codomain"):
        WindowedMap.from_image(np.arange(3), (), np.array([-1]))
    with pytest.raises(InvalidInput):
        WindowedMap.from_image(np.arange(3), np.array([[0, 1]]), ())
    with pytest.raises(InvalidInput):
        WindowedMap.from_image(np.arange(3), np.array([0.0, 1.0]), ())
    with pytest.raises(InvalidInput):
        WindowedMap.from_image([0, 1], [0.5], [0, 1])  # not truncated to {0}
    source = np.array([True, False, True])
    x = WindowedMap.from_image(image, source, range(3))
    for mask in (x.faithful_mask, x.adj_faithful_mask):
        assert mask.dtype == bool and mask.shape == (3,)
        with pytest.raises(ValueError):
            mask[0] = False
    assert source.flags.writeable  # the caller's array is viewed, not frozen
    assert np.array_equal(x.faithful_mask, source) and x.adj_faithful_mask.all()


@pytest.mark.parametrize("build, message", [
    (lambda: WindowedMap.from_image([1, 0, -1], [True, False, False], [False, False, True]),
     "^indices must be integers$"),
    (lambda: Subspace(3, [False, True]), "^indices must be integers$"),
    (lambda: _window({True}, 3, "outside"), "^indices must be integers$"),
    (lambda: Subspace(3, np.array([False, True])), "^cells must be"),
], ids=["from_image_bool_lists", "Subspace_bool_list", "window_bool_set", "Subspace_bool_array"])
def test_a_bool_entry_is_not_an_index(build, message):
    """A Python bool is an int to ``operator.index``: the two lists were read as the
    indices 1, 0, 0 and 0, 0, 1, so both windows held {0, 1}, the cells as [0, 1],
    and the set as column 1.  Each is refused instead.  A numpy boolean array, which
    a window reads as its mask, is no cell array."""
    with pytest.raises(InvalidInput, match=message):
        build()


def test_an_empty_window_array_still_has_an_integer_dtype():
    """An index array has an integer dtype even when it is empty: an empty float
    adjoint window reached ``_mask`` and raised numpy's IndexError, where an empty
    float image was already refused with InvalidInput."""
    with pytest.raises(InvalidInput, match="^a window must be a boolean mask or 1-D integer"):
        WindowedMap.from_image(np.array([0]), [0], np.array([]))
    with pytest.raises(InvalidInput, match="^image must be a 1-D integer array$"):
        WindowedMap.from_image(np.array([], dtype=float), [], [])
    assert WindowedMap.from_image(np.array([0]), [0], np.array([], dtype=np.int64)).image.size == 1


def test_window_forms_give_equal_maps():
    image = np.array([2, 0, -1, 1])
    mask = np.array([True, False, True, True])
    forms = ((mask, np.ones(4, dtype=bool)), (np.flatnonzero(mask), np.arange(4)),
             (frozenset({0, 2, 3}), frozenset(range(4))), ([3, 0, 2, 2], range(4)))
    maps = [WindowedMap.from_image(image, f, a) for f, a in forms]
    for x in maps:
        assert np.array_equal(x.faithful_mask, mask)
        assert np.array_equal(x.adj_faithful_mask, np.ones(4, dtype=bool))
        assert _pair_residual(x, maps[0]) == (0.0, 3)


@pytest.mark.parametrize("window", [range(1, 10, 3), range(9, 0, -4), range(5, 5), range(0),
                                    range(10)], ids=str)
def test_a_range_window_is_the_mask_of_its_list(window):
    """A range is read by ``arange``, not cell by cell, to the same mask."""
    assert np.array_equal(_window(window, 10, "outside"), _window(list(window), 10, "outside"))


@pytest.mark.parametrize("window", [range(1, 11, 3), range(-1, 3)], ids=str)
def test_a_range_window_outside_the_domain_is_refused(window):
    with pytest.raises(InvalidInput, match="^outside$"):
        _window(window, 10, "outside")


def test_pair_residual_on_different_domains():
    """Maps of different shapes are refused, whether or not a column is
    faithful for both: every caller composes first, which fixes the shape."""
    small = WindowedMap.from_image(np.arange(2), [0, 1], [0, 1])
    for faithful in ([2], [1, 2]):
        with pytest.raises(DimensionMismatch):
            _pair_residual(small, WindowedMap.from_image(np.arange(3), faithful, range(3)))


def test_dual_example_computes_its_dual_pair_once(monkeypatch):
    calls = []
    dual_pair = duality.dual_pair

    def counted(*args, **kwargs):
        calls.append(args[0])
        return dual_pair(*args, **kwargs)

    monkeypatch.setattr(duality, "dual_pair", counted)
    entries = run_scenario(Scenario("dual", "dual_example", {"m": 1, "T": 3})).entries
    assert len(calls) == 1
    setup = duality.l_region_setup(1, 3)
    want = duality.dual_cnu_check(duality.dual_pair(setup, 12), 5)
    assert len(calls) == 2
    got = [e for e in entries if e.check_id.startswith("cnu:")]
    assert got == [e._replace(check_id="cnu:" + e.check_id) for e in want]


def test_dual_example_mismatch_fails_without_reading_a_matrix(monkeypatch):
    """A bishift model that swaps two columns of axis 1 fails that entry with
    the residual of the differing columns, taken with no ``np.linalg`` call."""
    bishift_pair = catalog.bishift_pair

    def swapped(grid, j):
        first, second = bishift_pair(grid, j)
        image = first.image.copy()
        image[[0, 1]] = image[[1, 0]]
        return (WindowedMap.from_image(image, first.faithful_mask, first.adj_faithful_mask),
                second)

    monkeypatch.setattr(catalog, "bishift_pair", swapped)
    linalg = count_linalg_calls(monkeypatch)
    entries = run_scenario(Scenario("dual", "dual_example", {"m": 1, "T": 3})).entries
    assert linalg == []
    axis1, axis2 = (e for e in entries if e.check_id.startswith("dual_equals_bishift"))
    assert not axis1.passed and axis1.residual == 2.0  # two swapped columns: an even cycle
    assert axis2.passed and axis2.residual == 0.0


def test_dual_example_rejects_a_generator_of_another_shape(monkeypatch):
    dual_pair = duality.dual_pair

    def grown(*args, **kwargs):
        dual = dual_pair(*args, **kwargs)
        first = dual.pair.first
        first._generator = WindowedMap.from_image(
            np.append(first.generator.image, -1), np.append(first.generator.faithful_mask, True),
            np.append(first.generator.adj_faithful_mask, True))
        return dual

    monkeypatch.setattr(duality, "dual_pair", grown)
    with pytest.raises(InternalInconsistency, match="dual generator 1"):
        run_scenario(Scenario("dual", "dual_example", {"m": 1, "T": 3}))
