"""Checks that compare images, not built maps.

The commutators of ``classify_pair``, the semigroup law and the Wold
unitary residual read the image and faithful mask of a product from
``semigroups._gather`` instead of building it with ``compose``.  The
property tests hold each of them to the formula that builds the maps and
to the dense oracle's formula, on random partial permutations of dim
0-30 (injective, as ``from_image`` demands) and random windows; the isometry defect and the
adjoint are held to the dense Gram matrices.  The count tests pin that no
product is built, that ``classify_pair`` makes the two commutators of each
pair of distinct sampled steps once, and that each catalog runner computes
one step-time verdict (2 ``classify_pair`` calls for ``bishift``, 1 for
``four_block_dc``).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from dense_oracle import DenseMap, matrix
from isoflow import catalog, semigroups
from isoflow.catalog import Scenario, run_scenario
from isoflow.decompose import _unitary_residual
from isoflow.numlin import Subspace
from isoflow.semigroups import (WindowedMap, _commutator_residual, _compress, _gather,
                                _held_residual, _isometry_defect, _pair_residual,
                                bishift_families, check_semigroup_law, classify_pair,
                                halfline_shift_family)
from isoflow.spaces import CellGrid1D, QuadrantGrid2D
from test_derived_maps import image_maps

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def assert_near(got, want):
    """Equal residuals and counts, the norms to 1e-12: the dense SVD rounds."""
    assert (got is None) == (want is None)
    if got is not None:
        assert got[1] == want[1] and abs(got[0] - want[0]) <= 1e-12


@st.composite
def maps_on_one_space(draw, count: int):
    n = draw(st.integers(0, 30))
    return [draw(image_maps(n)) for _ in range(count)]


@given(maps_on_one_space(2))
@SETTINGS
def test_commutators_match_the_composed_maps(maps):
    a, b = maps
    da, db = DenseMap.of(a), DenseMap.of(b)
    got = _commutator_residual(a, b)
    assert got == _pair_residual(a.compose(b), b.compose(a))
    assert_near(got, dense.pair_residual(da @ db, db @ da))
    b_adj = b.adjoint()
    got = _commutator_residual(a, b_adj)
    assert got == _pair_residual(a.compose(b_adj), b_adj.compose(a))
    db_adj = db.adjoint()
    assert_near(got, dense.pair_residual(da @ db_adj, db_adj @ da))


@given(maps_on_one_space(3))
@SETTINGS
def test_law_residual_matches_the_composed_map(maps):
    """The law's comparison of element(s+t) with the gathered product."""
    x, y, z = maps
    got = _held_residual((x.image, x.faithful_mask), _gather(y, z))
    assert got == _pair_residual(x, y.compose(z))
    assert_near(got, dense.pair_residual(DenseMap.of(x), DenseMap.of(y) @ DenseMap.of(z)))
    yz = y.compose(z)  # the law holds where x is the product itself
    assert _held_residual((yz.image, yz.faithful_mask), _gather(y, z)) in (
        None, (0.0, int(yz.faithful_mask.sum())))


@given(st.integers(0, 30).flatmap(image_maps), st.data())
@SETTINGS
def test_isometry_defect_and_adjoint_match_the_dense_gram(x, data):
    """The isometry defect is the dense Gram formula, on all columns and on a subset:
    0.0 when every chosen column is live and 1.0 otherwise.  The adjoint is the
    transpose."""
    subset = data.draw(st.sets(st.integers(0, max(x.domain_dim - 1, 0)), max_size=x.domain_dim))
    cols = np.array(sorted(subset), dtype=np.int64)
    for chosen in (slice(None), cols[cols < x.domain_dim]):
        got = _isometry_defect(x.image[chosen])
        assert abs(got - dense.isometry_defect(matrix(x), chosen)) <= 1e-12
        assert got in (0.0, 1.0)  # exact
    adj = x.adjoint()
    assert np.array_equal(matrix(adj), matrix(x).T)
    assert _isometry_defect(adj.image) == dense.isometry_defect(matrix(x).T)


@st.composite
def parts_and_generators(draw):
    n = draw(st.integers(0, 30))
    generator = draw(image_maps(n))
    if draw(st.booleans()):
        part = Subspace.full(n)
    else:
        part = Subspace(n, sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
                                  if n else []))
    return part, generator


@given(parts_and_generators())
@SETTINGS
def test_unitary_residual_matches_the_compressed_map(case):
    part, generator = case
    restr = _compress(generator, part)
    got = _unitary_residual(part, generator)
    assert got == _isometry_defect(restr.image)  # C is square, so C and C* have one defect
    want = max(dense.isometry_defect(matrix(restr)), dense.isometry_defect(matrix(restr).T))
    assert abs(got - want) <= 1e-12


# --- call counts ---------------------------------------------------------------------

def count_calls(mp: pytest.MonkeyPatch, *targets) -> Counter:
    """Count calls of each (owner, name); a module-level function is patched in both
    ``decompose`` and ``catalog``, which binds it by name."""
    counts = Counter()
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        mp.setattr(owner, name, counted)
    return counts


def test_classify_pair_composes_nothing_on_an_image_backed_pair(monkeypatch):
    """Building a o b, b o a, a o b* and b* o a took 4 compositions."""
    pair = bishift_families(QuadrantGrid2D(4, 4))
    counts = count_calls(monkeypatch, (WindowedMap, "compose"))
    verdict = classify_pair(pair, [1])  # time 1/4
    assert verdict.classified == "doubly_commuting"
    assert counts["compose"] == 0


def test_classify_pair_reads_each_distinct_step_once(monkeypatch):
    """Step 1 sampled four times makes the 2 commutators of step 1 alone, and the
    same report; reading every sample made 4^2 x 2 = 32."""
    pair = bishift_families(QuadrantGrid2D(2, 2))
    want = classify_pair(pair, [1])
    counts = count_calls(monkeypatch, (semigroups, "_commutator_residual"))
    assert classify_pair(pair, [1, 1, 1, 1]) == want
    assert counts["_commutator_residual"] == 2


def test_semigroup_law_composes_only_the_powers(monkeypatch):
    """Steps 1, 2, 3: the powers 2..6 take one composition each (4 = V^4 is a square,
    5 and 6 one square after another); building V^s o V^t for the 6 law pairs
    took 6 more."""
    family = halfline_shift_family(CellGrid1D(1, 8))
    counts = count_calls(monkeypatch, (WindowedMap, "compose"))
    entries = check_semigroup_law(family, [1, 2, 3])
    assert all(e.passed for e in entries) and len(entries) == 6
    assert counts["compose"] == 5


@pytest.mark.parametrize("construction, params, verdicts", [
    ("bishift", {"m": 4, "T": 4}, 2),  # the samples and the step; was 3
    ("four_block_dc", {"T": 12, "circ": 6}, 1),  # the step, which is time 1; was 2
])
def test_each_runner_computes_one_step_verdict(monkeypatch, construction, params, verdicts):
    counts = count_calls(monkeypatch, (semigroups, "classify_pair"), (catalog, "classify_pair"))
    report = run_scenario(Scenario("s", construction, params))
    assert report.overall
    assert counts["classify_pair"] == verdicts
