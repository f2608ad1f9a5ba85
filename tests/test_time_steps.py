"""Sample times held as integer step counts from the config reader to the report line.

``catalog.check_scenario`` reads the ``samples`` times once and resolves
them to step counts j on the grid t = j/m; every check takes those steps,
and ``report.format_time`` writes a step back as text, as
``str(Fraction(j, m))`` does.  The properties hold the formatter and the
resolver to ``Fraction``; the constructors and checks refuse a step that
is no count, so a time passed in its place fails loudly, and every sampled
check refuses an empty sample list, which would check nothing, and a law or
equivalence check skips a sample with an empty window but refuses a list
of only those; the count test
pins that a run of ``bcl T=10 m=10 r=2`` or ``bishift m=4 T=4`` builds no
``Fraction`` after the resolver; the memory test pins that
``classify_pair`` holds one adjoint at a time: its peak on
``bishift m=16 T=8`` does not grow from 8 sampled steps to 32.
``report.format_residual``, which writes an exact 0 or 1 by lookup, is held
to the ``%e`` formula it skips.
"""

import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.catalog import Scenario, check_scenario, run_scenario
from isoflow.commutant import fuglede_instance_check
from isoflow.decompose import bcl_check, verify_joint_equivalence
from isoflow.errors import InvalidInput, WindowTooSmall
from isoflow.report import format_residual, format_time
from isoflow.semigroups import (SemigroupFamily, WindowedMap, bishift_families, bishift_pair,
                                check_semigroup_law, circulant_family, classify_pair,
                                halfline_shift, halfline_shift_family, modified_bishift_pair,
                                phi_multiplier)
from isoflow.spaces import CellGrid1D, LRegionIndex, QuadrantGrid2D

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(st.integers(1, 60).flatmap(lambda m: st.tuples(
    st.one_of(st.just(0), st.integers(0, 5).map(lambda n: n * m),  # 0 and whole units
              st.integers(0, 10).map(lambda k: k * (m // 2 or 1)),  # often reducible
              st.integers(0, 10**6)),
    st.just(m))))
def test_format_time_writes_the_fraction(case):
    steps, m = case
    assert format_time(steps, m) == str(Fraction(steps, m))


@SETTINGS
@given(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-300, 5e-324]),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_format_residual_writes_the_scientific_formula(value):
    mantissa, exponent = f"{value:.6e}".split("e")
    assert format_residual(value) == f"{mantissa}e{int(exponent)}"


def spellings(m: int):
    """(token, time) for a time j/m on the grid, written reduced, unreduced, or with
    spaces around it."""
    return st.tuples(st.integers(0, 3 * m), st.integers(1, 4), st.booleans()).map(
        lambda c: (f" {c[0] * c[1]}/{m * c[1]} " if c[2] else str(Fraction(c[0], m)),
                   Fraction(c[0], m)))


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(spellings(m), min_size=1, max_size=6))))
def test_resolved_steps_are_the_times_on_the_grid(case):
    """Every listed time t resolves to the step j with j/m == t, in order and with
    repeats, and the report echoes the times as their reduced fractions."""
    m, listed = case
    text = ",".join(token for token, _ in listed)
    times = [time for _, time in listed]
    scenario = Scenario("s", "halfline_shift", {"m": str(m), "T": "8", "samples": text})
    steps = scenario.resolved["samples"]
    assert all(type(j) is int for j in steps)
    assert [Fraction(j, m) for j in steps] == times
    report = run_scenario(scenario)
    assert dict(report.params)["samples"] == ",".join(map(str, times))
    assert report.overall


@pytest.mark.parametrize("samples, message", [
    ("1/3", "samples must be nonnegative multiples of 1/2, got 1/3"),
    ("-1/2", "samples must be nonnegative multiples of 1/2, got -1/2"),
    ("1/2, x", "cannot parse samples '1/2, x'"),
    (" , ", "samples must list at least one time"),
])
def test_the_resolver_refuses_what_is_no_grid_time(samples, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        check_scenario(Scenario("s", "bishift", {"m": "2", "samples": samples}))


@pytest.mark.parametrize("steps", [[1, -1], [1, Fraction(1, 2)], [1.0], ["1"]],
                         ids=["negative", "fraction", "float", "string"])
def test_a_check_refuses_a_step_that_is_no_count(steps):
    """The checks read a list of steps, the constructors the last of them: a
    time such as ``Fraction(1, 2)`` is no step count, and no constructor
    truncates it to step 0."""
    pair = bishift_families(QuadrantGrid2D(2, 2))
    j = steps[-1]
    for check in (lambda: check_semigroup_law(pair.first, steps),
                  lambda: classify_pair(pair, steps),
                  lambda: halfline_shift(CellGrid1D(2, 4), j),
                  lambda: phi_multiplier(3, 2, 1, j),
                  lambda: bishift_pair(QuadrantGrid2D(2, 2), j),
                  lambda: modified_bishift_pair(LRegionIndex(1, 2), j)):
        with pytest.raises(InvalidInput, match=r"^step count must be a nonnegative integer"):
            check()


@pytest.mark.parametrize("check", [
    lambda: check_semigroup_law(circulant_family(3), []),
    lambda: classify_pair(bishift_families(QuadrantGrid2D(1, 2)), []),
    lambda: bcl_check(4, 4, 1, []),
    lambda: verify_joint_equivalence(bishift_families(QuadrantGrid2D(1, 2)),
                                     bishift_families(QuadrantGrid2D(1, 2)),
                                     WindowedMap.identity(4), []),
    lambda: fuglede_instance_check(SemigroupFamily(WindowedMap.identity(4)),
                                   halfline_shift_family(CellGrid1D(1, 4)), 1, []),
], ids=["check_semigroup_law", "classify_pair", "bcl_check", "verify_joint_equivalence",
        "fuglede_instance_check"])
def test_a_sampled_check_refuses_an_empty_sample_list(check):
    """No samples is one refusal for every sampled check: ``bcl_check`` returned
    an empty list, which a report reads as a pass, and the two others raised
    WindowTooSmall as if the window were at fault."""
    with pytest.raises(InvalidInput, match="^no sample times given$"):
        check()


@pytest.mark.parametrize("check, skipped, message", [
    (lambda steps: check_semigroup_law(halfline_shift_family(CellGrid1D(1, 4)), steps),
     ["law_2+2"], "every sample pair exhausts the window"),
    (lambda steps: verify_joint_equivalence(bishift_families(QuadrantGrid2D(1, 2)),
                                            bishift_families(QuadrantGrid2D(1, 2)),
                                            WindowedMap.identity(4), steps),
     ["axis1_t=2", "axis2_t=2"], "no sample leaves a nonempty faithful window"),
], ids=["check_semigroup_law", "verify_joint_equivalence"])
def test_a_sample_with_an_empty_window_is_skipped(check, skipped, message):
    """Step 2 leaves no common faithful column (the 4-cell half-line shifted by
    4, the 2-cell quadrant axis by 2): its entries are skipped and pass, beside
    the checked entries of step 1.  A sample list of step 2 alone checks
    nothing and raises WindowTooSmall, each check with its own message."""
    entries = {entry.check_id: entry for entry in check([1, 2])}
    for check_id in skipped:
        assert entries[check_id] == (check_id, 0.0, (0,), True, "empty window, skipped")
    assert len(entries) > len(skipped)
    assert all(entry.dims[0] > 0 and not entry.note
               for check_id, entry in entries.items() if check_id not in skipped)
    with pytest.raises(WindowTooSmall, match=f"^{message}$"):
        check([2])


@pytest.mark.parametrize("step", [2.0, Fraction(2)], ids=["float", "fraction"])
def test_an_element_reads_its_step_by_the_checks_rule(step):
    """A whole float or ``Fraction`` is refused as the checks refuse it, and
    builds no map: ``element(2.0)`` once returned ``element(2)``."""
    family = halfline_shift_family(CellGrid1D(1, 4))
    message = f"^{re.escape(f'step count must be a nonnegative integer, got {step!r}')}$"
    for read in (family.element, lambda j: check_semigroup_law(family, [j])):
        with pytest.raises(InvalidInput, match=message):
            read(step)
    assert not family._powers


def test_a_check_of_two_families_needs_one_grid():
    """A step count names one time only on one grid: families on 4 cells with
    m = 1 and m = 2 are refused together, as ``PairOfSemigroups`` refuses them."""
    coarse, fine = bishift_families(QuadrantGrid2D(1, 2)), bishift_families(QuadrantGrid2D(2, 1))
    with pytest.raises(InvalidInput, match="^the two pairs use different time grids$"):
        verify_joint_equivalence(coarse, fine, WindowedMap.identity(4), [1])
    with pytest.raises(InvalidInput, match="^the two families use different time grids$"):
        fuglede_instance_check(SemigroupFamily(WindowedMap.identity(4)),
                               halfline_shift_family(CellGrid1D(2, 2)), 1, [1])


@pytest.mark.parametrize("construction, params", [
    ("bcl", {"T": "10", "m": "10", "r": "2"}),
    ("bishift", {"m": "4", "T": "4"}),
])
def test_a_run_builds_no_fraction_after_the_resolver(monkeypatch, construction, params):
    """Once the scenario is resolved, its run builds no ``Fraction``: every
    constructor and check takes step counts."""
    scenario = Scenario("s", construction, params)
    scenario.resolved  # resolved, and kept on the scenario, before anything is counted
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic builds its results there
        coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, *args: built.append(args) or coprime(cls, *args)))
    report = run_scenario(scenario)
    assert report.overall
    assert built == []


def test_classify_pair_holds_one_adjoint_at_a_time():
    """bishift m=16 T=8 on 16,384 cells: with every power already kept by the families,
    the peak of classify_pair does not grow from 8 sampled steps to 32.  Holding the
    adjoint of every sampled step at once, it grew by 8 bytes per cell per step."""
    pair = bishift_families(QuadrantGrid2D(16, 8))
    peaks = []
    for steps in (range(1, 9), range(1, 33)):
        for j in steps:  # the maps the sample plan prices, built beforehand
            pair.first.element(j), pair.second.element(j)
        tracemalloc.start()
        try:
            verdict = classify_pair(pair, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict.classified == "doubly_commuting"
    assert peaks[1] < peaks[0] + 8 * pair.dim // 2, peaks
