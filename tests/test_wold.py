"""Wold splits of image-backed generators by chain-height doubling.

Two oracles.  ``power_loop_wold`` is the split straight from its
definition: build every power V^k, take the rows of its faithful columns
as a coordinate subspace and intersect.  ``mask_step_wold`` is the step
loop that ``wold_cooper`` ran before it doubled: one boolean mask moved
by one gather and one scatter per step.  ``wold_cooper`` must return the
same parts, certificate and unitary residual as both on random images
of dim at most 30 (permutations and shift-like ones, with unfaithful and
with faithful zero columns; injective, as ``from_image`` demands) for
every step budget from 1 to past stabilization.  The other tests pin
that the split calls no ``compose``, keeps the halfline split at the
default ``K`` below 2 MiB, and takes 15 doubling rounds, at most
``K.bit_length() + 1``, on ``halfline_shift m=64 T=256``.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow import decompose
from isoflow.decompose import WoldResult, _chain_heights, _unitary_residual, wold_cooper
from isoflow.numlin import Subspace, _distinct, complement, intersect
from isoflow.semigroups import SemigroupFamily, WindowedMap, halfline_shift_family
from isoflow.spaces import CellGrid1D


def power_loop_wold(family: SemigroupFamily, max_steps: int) -> WoldResult:
    current = Subspace.full(family.dim)
    stabilized, steps_used = False, max_steps
    for k in range(1, max_steps + 1):
        element = family.element(k)
        rows = element.image[element.faithful_mask]
        nxt = intersect(current, Subspace(family.dim, cells=_distinct(rows[rows >= 0])))
        stabilized = nxt.dim == current.dim and nxt.gap(current) == 0.0
        current = nxt
        if stabilized:
            steps_used = k
            break
    return WoldResult(complement(current), current, stabilized, steps_used,
                      _unitary_residual(current, family.generator))


def mask_step_wold(family: SemigroupFamily, max_steps: int) -> WoldResult:
    image = family.generator.image
    live = family.generator.faithful_mask & (image >= 0)
    current, count = np.ones(image.size, dtype=bool), image.size
    stabilized, steps_used = False, max_steps
    for k in range(1, max_steps + 1):
        nxt = np.zeros(image.size, dtype=bool)
        nxt[image[live & current]] = True
        nxt &= current
        kept = np.count_nonzero(nxt)
        if kept == count:
            stabilized, steps_used = True, k
            break
        current, count = nxt, kept
    part = Subspace(family.dim, cells=np.flatnonzero(current))
    return WoldResult(complement(part), part, stabilized, steps_used,
                      _unitary_residual(part, family.generator))


@st.composite
def generators(draw):
    """A square image-backed map of dim <= 30 with random windows."""
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        image = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    else:  # forward by s, cut at the window edge, like the half-line shift
        image = np.arange(n) + draw(st.integers(1, max(1, n - 1)))
        image[image >= n] = -1
    mostly = st.sampled_from([True, True, True, False])
    image[~np.array(draw(st.lists(mostly, min_size=n, max_size=n)))] = -1  # zero columns
    if draw(st.booleans()):
        faithful = np.array(draw(st.lists(mostly, min_size=n, max_size=n)))
    else:
        faithful = image >= 0
    adj_faithful = np.array(draw(st.lists(mostly, min_size=n, max_size=n)))
    return WindowedMap.from_image(image, faithful, adj_faithful)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(generators())
def test_chain_heights_match_the_power_loop_and_the_step_loop(generator):
    """The ranges of n cells stop shrinking within n steps, so n + 2 steps
    cover every budget from 1 to past stabilization."""
    family = SemigroupFamily(generator)
    for max_steps in range(1, generator.domain_dim + 3):
        got = wold_cooper(SemigroupFamily(generator), max_steps)
        for want in (power_loop_wold(family, max_steps), mask_step_wold(family, max_steps)):
            assert np.array_equal(got.unitary_part.cells, want.unitary_part.cells)
            assert np.array_equal(got.cnu_part.cells, want.cnu_part.cells)
            assert (got.stabilized, got.steps_used, got.unitary_residual) == \
                (want.stabilized, want.steps_used, want.unitary_residual)
    assert got.stabilized


def test_faithful_zero_column_keeps_its_chain_faithful():
    """0 -> 1 -> 2 -> zero column: the chain stays faithful and adds no row."""
    generator = WindowedMap.from_image([1, 2, -1, 3], range(4), range(4))
    got, want = wold_cooper(SemigroupFamily(generator), 6), \
        power_loop_wold(SemigroupFamily(generator), 6)
    assert tuple(got.unitary_part.cells) == tuple(want.unitary_part.cells) == (3,)
    assert (got.stabilized, got.steps_used) == (want.stabilized, want.steps_used) == (True, 4)


def test_image_backed_wold_builds_no_power(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    family = halfline_shift_family(CellGrid1D(2, 8, 3))
    monkeypatch.setattr(WindowedMap, "compose", counted("compose", WindowedMap.compose))
    monkeypatch.setattr(SemigroupFamily, "element", counted("element", SemigroupFamily.element))
    monkeypatch.setattr(decompose, "intersect", counted("intersect", intersect))
    result = wold_cooper(family, 18)
    assert calls == []
    assert result.stabilized and result.steps_used == 17 and result.cnu_part.dim == family.dim


def test_halfline_wold_at_default_k_keeps_linear_memory():
    """K = m*T + 2 = 1026 steps on dim 1024; the power cache took 10.9 MiB."""
    tracemalloc.start()
    try:
        wold = wold_cooper(halfline_shift_family(CellGrid1D(16, 64)), 1026)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wold.stabilized and wold.steps_used == 1025 and wold.unitary_part.dim == 0
    assert peak < 2 * 2**20


def test_halfline_wold_at_the_ladder_top_takes_logarithmic_rounds():
    """halfline_shift m=64 T=256 at its default K = m*T + 2 = 16,386: cell k
    has chain height k, so the split stands still at step 16,385.  The step
    loop took 16,385 passes; doubling takes 15 rounds, at most K.bit_length() + 1."""
    grid = CellGrid1D(64, 256)
    family = halfline_shift_family(grid)
    max_steps = grid.m * grid.T + 2
    generator = family.generator
    height, missing, rounds = _chain_heights(generator.image,
                                             generator.faithful_mask & (generator.image >= 0),
                                             max_steps)
    assert rounds <= max_steps.bit_length() + 1
    assert missing == grid.dim and np.array_equal(height, np.arange(grid.dim))
    wold = wold_cooper(family, max_steps)
    assert wold.stabilized and wold.steps_used == grid.dim + 1 and wold.unitary_part.dim == 0


def test_chain_heights_stop_at_the_first_missing_height():
    """A 5-cycle next to a 3-chain 0 -> 1 -> 2: heights 0, 1, 2 and infinite,
    so height 3 is missing and found at span 4 after two rounds, however
    large the budget."""
    image = np.array([1, 2, -1, 4, 5, 6, 7, 3])
    height, missing, rounds = _chain_heights(image, image >= 0, 10**9)
    assert (missing, rounds) == (3, 2)
    assert np.array_equal(height, [0, 1, 2, 4, 4, 4, 4, 4])
