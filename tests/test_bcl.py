"""The Berger-Coburn-Lebow check by one table pass over the samples.

The samples are step counts j on the grid t = j/m.  ``sample_loop_bcl``
is the check straight from its definition: every step is read first, an
empty list is refused, then for each sample in order the half-line shift and the multiplier are built
at the time ``Fraction(j, m)`` and compared with ``_pair_residual``.  It is
the oracle: ``bcl_check`` must give an equal report, or raise the same
exception type with the same message, on every grid with T <= 6, m <= 5
and r <= 3, on random sample lists, on steps that leave the window or are
no step count, in any order (a step that is no nonnegative integer is
refused before any table is built), and on a model perturbed so that the
table flags a row.  ``filtered_default_samples`` is the oracle of the
catalog's default samples for every T, m <= 12: the steps of the grid
times whose multiplier window, by its own rule, is nonempty.  The other
tests pin that no map is built, and that the table blocks keep
``bcl T=64 m=32 r=1`` below 4 MiB.
"""

import pathlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from isoflow import cli, decompose, semigroups
from isoflow.catalog import _bcl_default_samples
from isoflow.decompose import bcl_check
from isoflow.errors import InvalidInput, WindowTooSmall
from isoflow.report import CheckEntry
from isoflow.semigroups import WindowedMap, _pair_residual, halfline_shift, phi_multiplier
from isoflow.spaces import CellGrid1D


def sample_loop_bcl(T: int, m: int, r: int, steps) -> list[CheckEntry]:
    grid = CellGrid1D(m, T, r)
    for j in steps:
        if not isinstance(j, (int, np.integer)) or j < 0:
            raise InvalidInput(f"step count must be a nonnegative integer, got {j!r}")
    if not steps:
        raise InvalidInput("no sample times given")
    entries = []
    for j in steps:
        time = Fraction(int(j), m)
        got = _pair_residual(halfline_shift(grid, j), phi_multiplier(T - 1, m, r, j))
        if got is None:
            raise WindowTooSmall(f"time {time} leaves no faithful window")
        residual, count = got
        entries.append(CheckEntry(f"t={time}", residual, (count,), residual == 0.0))
    return entries


def filtered_default_samples(T: int, m: int) -> list[int]:
    """Steps of the grid times up to the top degree T - 1 whose multiplier window is nonempty."""
    d = T - 1
    out = []
    for j in range(m * d + 1):
        n, jj = divmod(j, m)
        top = d - n if jj == 0 else d - n - 1
        if top >= 0:
            out.append(j)
    return out


def outcome(check, *args):
    """The entries, or the type and message of the exception raised."""
    try:
        return check(*args)
    except Exception as exc:  # the oracle and the table pass must raise alike
        return type(exc), str(exc)


def assert_same(T, m, r, samples):
    want = outcome(sample_loop_bcl, T, m, r, samples)
    got = outcome(bcl_check, T, m, r, samples)
    assert got == want, (T, m, r, samples)
    if isinstance(got, list):
        assert all(type(e.dims[0]) is int for e in got)
    return got


def test_default_samples_match_the_sample_loop_on_every_small_grid():
    for T in range(1, 7):
        for m in range(1, 6):
            for r in range(1, 4):
                entries = assert_same(T, m, r, _bcl_default_samples(T, m))
                assert all(e.passed for e in entries)


def test_default_samples_are_every_grid_time_with_a_nonempty_window():
    for T in range(1, 13):
        for m in range(1, 13):
            assert list(_bcl_default_samples(T, m)) == filtered_default_samples(T, m), (T, m)


def test_random_sample_lists_match_the_sample_loop():
    """Unsorted, with duplicates, as ints and numpy ints; some past the window, on
    the edge where the window is empty, negative, or not an integer."""
    rng = random.Random(12)
    spell = [lambda j: j, np.int64, lambda j: -1 - j, lambda j: Fraction(2 * j + 1, 2), float]
    for _ in range(300):
        T, m, r = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3)
        samples = []
        for _ in range(rng.randint(0, 12)):
            steps = rng.randint(0, m * T + 2)
            samples.append(rng.choices(spell, weights=[60, 30, 4, 3, 3])[0](steps))
        assert_same(T, m, r, samples)


# on T=3, m=2, keyed by the time each stands for (the test id): step 5 (time 5/2) leaves
# an empty window, 6 (time 3) trips the multiplier's degree bound, 7 (7/2) and 2 * 10**30
# (10**30) the shift's window; time 1/3 is off the grid, its step the Fraction 2/3, and
# that, -2 (time -1), "x", "1/0" and None are no step count
BAD_BY_TIME = {Fraction(5, 2): 5, 3: 6, Fraction(7, 2): 7, 10 ** 30: 2 * 10 ** 30,
               Fraction(1, 3): Fraction(2, 3), -1: -2, "x": "x", "1/0": "1/0", None: None}
BAD = list(BAD_BY_TIME.values())


@pytest.mark.parametrize("bad", BAD, ids=[repr(time) for time in BAD_BY_TIME])
def test_a_failing_sample_raises_as_the_sample_loop_does(bad):
    good = [0, 1, 4]  # times 0, 1/2, 2
    for samples in ([bad], good + [bad], [bad] + good, good[:1] + [bad] + good[1:]):
        got = assert_same(3, 2, 1, samples)
        assert not isinstance(got, list)


def test_the_first_of_several_failing_samples_is_raised():
    rng = random.Random(3)
    for _ in range(200):
        samples = rng.sample(BAD, rng.randint(2, 4)) + [0, 1]
        rng.shuffle(samples)
        assert_same(3, 2, 1, samples)


def test_a_step_that_is_no_count_raises_before_any_table(monkeypatch):
    """Behind a step with an empty window, the string "x" is still refused first,
    before either side builds a row."""
    assert assert_same(3, 2, 1, [0, 5, 1]) == (WindowTooSmall,
                                                "time 5/2 leaves no faithful window")
    built = []
    monkeypatch.setattr(decompose, "_halfline_rows", lambda *args: built.append(args))
    with pytest.raises(InvalidInput, match=r"^step count must be a nonnegative integer, "
                                           r"got 'x'$"):
        bcl_check(3, 2, 1, [0, 5, "x"])
    assert built == []


def test_failures_across_table_blocks(monkeypatch):
    """Blocks of one and of three rows: the failing sample sits in a later block."""
    samples = [0, 1, 2, 3, 4, 5, 0]  # times 0, 1/2, ..., 5/2, 0
    for cells in (1, 3 * 6):
        monkeypatch.setattr(decompose, "_BLOCK", cells)
        for bad in BAD:
            assert_same(3, 2, 1, samples + [bad])
        assert all(e.passed for e in assert_same(3, 2, 1, samples[:5]))


def test_a_flagged_row_is_compared_on_its_two_table_rows(monkeypatch):
    """A model whose row at step 3 moves two columns fails that row, and no
    other, with the residual of its two table rows: that of the two maps."""
    rows = semigroups._phi_rows

    def perturbed(d, m, r, steps):
        images, faithful = rows(d, m, r, steps)
        images = images.copy()
        for k in np.flatnonzero(np.asarray(steps) == 3):
            images[k, [0, 1]] = images[k, [1, 0]]
        return images, faithful

    monkeypatch.setattr(semigroups, "_phi_rows", perturbed)
    monkeypatch.setattr(decompose, "_phi_rows", perturbed)
    samples = _bcl_default_samples(4, 2)
    failed = [e for e in assert_same(4, 2, 1, samples) if not e.passed]
    assert [e.check_id for e in failed] == ["t=3/2"]
    assert failed[0].residual > 0.0


def test_a_wrong_forward_image_fails_the_bundled_config(monkeypatch, capsys):
    """The shift and the multiplier are two constructions, so a forward image
    that sends every column one cell further for offsets of 2 and more moves
    one against the other: configs/bcl.cfg must not end in overall pass."""
    real = semigroups._forward_image

    def mutant(dim, offset):
        offset = np.asarray(offset)
        return real(dim, np.where(offset >= 2, offset + 1, offset))

    monkeypatch.setattr(semigroups, "_forward_image", mutant)
    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "bcl.cfg"
    assert cli.main(["run", str(config)]) != 0
    assert not capsys.readouterr().out.endswith("overall pass\n")


def test_rows_whose_images_agree_build_no_map(monkeypatch):
    built = []
    post_init = WindowedMap.__post_init__

    def counted(self):
        built.append(self.shape)
        post_init(self)

    monkeypatch.setattr(WindowedMap, "__post_init__", counted)
    entries = bcl_check(10, 10, 2, _bcl_default_samples(10, 10))
    assert all(e.passed for e in entries) and len(entries) == 91
    assert built == []


def test_memory_stays_within_the_table_blocks():
    """dim 2,048 and 2,017 samples: one unblocked table would take about 33 MB."""
    samples = _bcl_default_samples(64, 32)
    tracemalloc.start()
    try:
        entries = bcl_check(64, 32, 1, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(e.passed for e in entries) and len(entries) == 2017
    assert peak < 4 * 2 ** 20
