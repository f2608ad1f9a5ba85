"""Named scenario catalog and the batch runner behind the CLI.

Each construction builds a bundled operator family or extension setup,
runs its documented checks, and emits one report entry per check.  The
public checks return lists of ``CheckEntry``; a runner joins them, and
``run_scenario`` wraps the result in the scenario's one ``Report``.

``check_scenario`` reads the ``samples`` times once and resolves them to
integer step counts j on the grid t = j/m.  It is the one reader of a time
in the package: every runner, constructor and check takes step counts,
and the times become text again only in
``report.format_time``, for the echoed ``samples`` and the check ids.  The
runners of the sampled one-parameter constructions price their sample plan
(``_check_sample_plan``) before any map is built.  Given
identical parameters the entries are byte-identical across runs: all
constructions are deterministic and seedless.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import duality
from .commutant import commutant_of_partial_isometries, doubly_commutant_of_mz
from .decompose import (bcl_check, classify_pair, fourfold_decompose, product_unitary_part,
                        wold_cooper)
from .errors import InternalInconsistency, InvalidInput
from .numlin import _check_budget, _count_need, _equal
from .report import CheckEntry, Report, format_time
from .semigroups import (PairOfSemigroups, SemigroupFamily, _image_residual, _isometry_defect,
                         bishift_families, bishift_pair, check_semigroup_law, circulant_family,
                         direct_sum, halfline_shift_family, modified_bishift_families,
                         tensor_with_identity)
from .spaces import CellGrid1D, LRegionIndex, QuadrantGrid2D

__all__ = ["Scenario", "check_scenario", "run_scenario", "list_catalog", "CATALOG"]


@dataclass(frozen=True)
class Scenario:
    name: str
    construction: str
    params: dict

    @cached_property
    def resolved(self) -> dict:
        """``check_scenario`` of this scenario, computed on first read."""
        return check_scenario(self)


def _parse_samples(raw) -> list[Fraction]:
    raw = str(raw)
    try:
        return [Fraction(token.strip()) for token in raw.split(",") if token.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"cannot parse samples {raw!r}") from exc


def _sample_steps(raw, m: int) -> list[int]:
    """The step counts j = t * m of the listed times t, in order.

    A token that is no number, an empty list, and a time that is negative
    or off the 1/m grid raise InvalidInput.
    """
    times = _parse_samples(raw)
    if not times:
        raise InvalidInput("samples must list at least one time")
    steps = []
    for t in times:
        j, rest = divmod(t.numerator * m, t.denominator)
        if j < 0 or rest:
            raise InvalidInput(f"samples must be nonnegative multiples of 1/{m}, got {t}")
        steps.append(j)
    return steps


# echoed by every report, as the goldens pin; no check reads them (a check passes at 0)
_FIXED_ECHO = {"rank_rel": "1e-10", "resid_abs": "1e-10", "angle": "0.99999999"}


def _generator_isometry_entry(family, check_id: str) -> CheckEntry:
    gen = family.generator
    cols = gen.faithful_mask.nonzero()[0]
    if not cols.size:
        return CheckEntry(check_id, 0.0, (0,), False, "empty window")
    residual = _isometry_defect(gen.image[cols])
    return CheckEntry(check_id, residual, (len(cols),), residual == 0.0)


def _prefixed(prefix: str, entries: list[CheckEntry]) -> list[CheckEntry]:
    return [entry._replace(check_id=prefix + entry.check_id) for entry in entries]


def _check_sample_plan(steps: list[int], cells: int, families: int) -> None:
    """Price, before any map is built, the maps that ``check_semigroup_law`` and
    ``classify_pair`` keep for the sampled ``steps``: each family keeps one map
    per distinct step count among the sampled steps and their pairwise sums,
    and the squares V^(2^i) that binary powering builds them from, one per bit
    of the largest; each map is an ``int64`` image and two boolean masks, 10
    bytes, per cell."""
    steps = sorted(set(steps))
    kept = set(steps)
    for at, s in enumerate(steps):
        kept.update(s + t for t in steps[at:])
    squares = max(kept, default=0).bit_length()
    _check_budget((len(kept) + squares) * families * cells, 10,
                  f"a sample plan of {len(kept):,} step counts and {squares:,} squares "
                  f"on {families} x {cells:,} cells")


# ---------------------------------------------------------------------------
# runners: each takes its resolved parameters by name and returns its entries


def _run_halfline_shift(m, T, r, K, samples):
    grid = CellGrid1D(m, T, r)
    _check_sample_plan(samples, grid.dim, 1)
    family = halfline_shift_family(grid)
    entries = [_generator_isometry_entry(family, "generator_isometry")]
    entries.extend(check_semigroup_law(family, samples))
    wold = wold_cooper(family, K)
    entries.append(CheckEntry("wold_unitary_dim", wold.unitary_residual,
                              (wold.unitary_part.dim,), wold.unitary_part.dim == 0))
    entries.append(CheckEntry("wold_stabilized", 0.0, (wold.steps_used,), wold.stabilized))
    return entries


def _pair_law_entries(pair: PairOfSemigroups, samples):
    """Generator isometries, per-axis semigroup laws and the commutator of a pair."""
    entries = [_generator_isometry_entry(pair.first, "generator_isometry_axis1"),
               _generator_isometry_entry(pair.second, "generator_isometry_axis2"),
               *_prefixed("axis1:", check_semigroup_law(pair.first, samples)),
               *_prefixed("axis2:", check_semigroup_law(pair.second, samples))]
    verdict = classify_pair(pair, samples)
    entries.append(CheckEntry("commutator", verdict.comm_residual, (),
                              verdict.comm_residual == 0.0))
    return entries, verdict


def _run_bishift(m, T, r, K, samples):
    grid = QuadrantGrid2D(m, T, r)
    _check_sample_plan(samples, grid.dim, 2)
    pair = bishift_families(grid)
    entries, verdict = _pair_law_entries(pair, samples)
    entries.append(CheckEntry("adjoint_commutator", verdict.double_comm_residual, (),
                              verdict.double_comm_residual == 0.0))
    entries.append(CheckEntry("classified", 0.0, (), verdict.classified == "doubly_commuting",
                              verdict.classified))
    split = fourfold_decompose(pair, K)  # both splits read the pair's one step_verdict
    entries.append(CheckEntry("fourfold_dims", split.reduction_residual, split.dims,
                              split.dims == (pair.dim, 0, 0, 0)))
    product = product_unitary_part(pair, K)
    entries.append(CheckEntry("product_unitary_dim", product.reduction_residual,
                              (product.subspace.dim,),
                              product.subspace.dim == 0 and product.stabilized))
    return entries


def _run_modified_bishift(m, T, r, samples):
    region = LRegionIndex(m, T, r)
    _check_sample_plan(samples, 3 * region.half ** 2 * r, 2)  # the L: 3 of 4 quadrants
    pair = modified_bishift_families(region)
    entries, verdict = _pair_law_entries(pair, samples)
    entries.append(CheckEntry("adjoint_commutator_witness", verdict.double_comm_residual, (),
                              verdict.double_comm_residual > 0.0,
                              "a nonzero value is the expected witness"))
    entries.append(CheckEntry("classified", 0.0, (), verdict.classified == "commuting",
                              verdict.classified))
    return entries


def _four_block_dc_pair(shift_T: int, circ: int):
    shift_gen = halfline_shift_family(CellGrid1D(1, shift_T, 1)).generator
    circ_gen = circulant_family(circ).generator
    a = shift_T
    v1 = direct_sum(tensor_with_identity(shift_gen, a, "right"),
                    tensor_with_identity(shift_gen, circ, "right"),
                    tensor_with_identity(circ_gen, a, "right"),
                    tensor_with_identity(circ_gen, circ, "right"))
    v2 = direct_sum(tensor_with_identity(shift_gen, a, "left"),
                    tensor_with_identity(circ_gen, a, "left"),
                    tensor_with_identity(shift_gen, circ, "left"),
                    tensor_with_identity(circ_gen, circ, "left"))
    pair = PairOfSemigroups(SemigroupFamily(v1), SemigroupFamily(v2))
    dims = (a * a, a * circ, circ * a, circ * circ)
    return pair, dims


def _run_four_block_dc(T, circ, K):
    pair, expected = _four_block_dc_pair(T, circ)
    verdict = pair.step_verdict  # time 1, the step of both families
    entries = [CheckEntry("classified", verdict.double_comm_residual, (),
                          verdict.classified == "doubly_commuting", verdict.classified)]
    split = fourfold_decompose(pair, K)
    entries.append(CheckEntry("fourfold_dims", 0.0, split.dims, split.dims == expected,
                              f"expected {expected}"))
    entries.append(CheckEntry("reduction_residual", split.reduction_residual, (),
                              split.reduction_residual == 0.0))
    entries.append(CheckEntry("wold_stabilized", 0.0,
                              (split.wold_first.steps_used, split.wold_second.steps_used),
                              split.wold_first.stabilized and split.wold_second.stabilized))
    return entries


def _ddc_setup(m: int, T: int, p: int, circ: int):
    return duality.setup_direct_sum(
        duality.l_region_setup(m, T),
        duality.halfline_circulant_setup(m, T, p),
        duality.halfline_circulant_setup(m, T, p, unitary_first=True),
        duality.circulant_pair_setup(circ, circ, cells_per_unit=m))


def _run_four_block_ddc(m, T, p, circ, K, max_orbit):
    setup = _ddc_setup(m, T, p, circ)
    expected = (3 * (m * T) ** 2, m * T * p, m * T * p, circ * circ)
    dual = duality.dual_pair(setup, max_orbit)
    result = duality.dual_fourfold(setup, dual, K, max_orbit)
    entries = [
        CheckEntry("dual_fourfold_dims", 0.0, result.dims, result.dims == expected,
                   f"expected {expected}"),
        CheckEntry("dual_tilde_dims", 0.0, result.tilde_dims, result.tilde_dims[3] == 0),
        CheckEntry("orthogonality", result.orthogonality_residual, (),
                   result.orthogonality_residual == 0.0),
        CheckEntry("reduction_residual", result.reduction_residual, (),
                   result.reduction_residual == 0.0),
        CheckEntry("dims_sum", 0.0, (sum(result.dims),), sum(result.dims) == setup.h.dim),
    ]
    return entries


def _commutant_entries(result, r: int) -> list[CheckEntry]:
    """Dimension r^2 and the fiber-scalar form of a solved commutant."""
    return [
        CheckEntry("dimension", 0.0, (result.dim,), result.dim == r * r,
                   f"expected {r * r}"),
        CheckEntry("structure", result.max_structure_residual, (),
                   result.structure_verdict == "fiber_scalar", result.structure_verdict),
        CheckEntry("reconstruction", result.max_structure_residual, (),
                   result.max_structure_residual == 0.0),
    ]


def _run_commutant_e(m, r):
    return _commutant_entries(commutant_of_partial_isometries(m, r), r)


def _run_commutant_mz(d, r):
    return _commutant_entries(doubly_commutant_of_mz(d, r), r)


def _bcl_default_samples(T: int, m: int) -> range:
    """The step counts of every grid time j/m up to the top degree d = T - 1.

    Each keeps cell 0 in its common window: the shift moves it to cell
    j < mT, and the multiplier at t = n + jj/m is faithful on the degree
    blocks 0..top, where top = d - n >= 0 when jj = 0 and d - n - 1 >= 0
    otherwise, since then n < d.
    """
    return range(m * (T - 1) + 1)


def _run_bcl(T, m, r, samples):
    return bcl_check(T, m, r, samples)


def _run_dual_example(m, T, r, K, max_orbit):
    setup = duality.l_region_setup(m, T, r)
    dual = duality.dual_pair(setup, max_orbit)
    model1, model2 = bishift_pair(QuadrantGrid2D(m, T, r), 1)
    entries = []
    for axis, (got, model) in enumerate(((dual.pair.first.generator, model1),
                                         (dual.pair.second.generator, model2)), start=1):
        if got.shape != model.shape:
            raise InternalInconsistency(f"dual generator {axis} has shape {got.shape}, "
                                        f"not {model.shape} as the bishift model")
        residual = _image_residual(got.image, model.image)  # over the differing columns only
        entries.append(CheckEntry(f"dual_equals_bishift_axis{axis}", residual,
                                  (got.domain_dim,),
                                  residual == 0.0 and _equal(got.faithful_mask,
                                                             model.faithful_mask),
                                  "integer equality"))
    entries.append(CheckEntry("dual_space_dim", 0.0, (dual.wth.dim,),
                              dual.wth.dim == (m * T) ** 2 * r))
    return entries + _prefixed("cnu:", duality.dual_cnu_check(dual, K))


def _run_double_dual(m, T, r, max_orbit):
    setup = duality.l_region_setup(m, T, r)
    return duality.double_dual_check(setup, max_orbit, radius_bound=2 * m * T)


def _run_simultaneous(variant, m, T, p, K, max_orbit):
    if variant == "mixed":
        setup = duality.setup_direct_sum(
            duality.halfline_circulant_setup(m, T, p),
            duality.halfline_circulant_setup(m, T, p, unitary_first=True))
        expected_dc, expected_ddc = True, True
    elif variant == "bishift":
        setup = duality.bishift_setup(m, T)
        expected_dc, expected_ddc = True, False
    else:  # "unitary", the one variant left that check_scenario resolves
        setup = duality.circulant_pair_setup(p, p, cells_per_unit=m)
        expected_dc, expected_ddc = True, True
    entries = duality.simultaneous_dc_ddc_classify(setup, K, max_orbit)
    flags = {entry.check_id: entry for entry in entries}
    dc_seen = flags["doubly_commuting"].dims == (1,)
    ddc_entry = flags.get("dual_doubly_commuting")
    ddc_seen = ddc_entry is not None and ddc_entry.dims == (1,)
    entries.append(CheckEntry("expected_dc", 0.0, (int(expected_dc),), dc_seen == expected_dc))
    entries.append(CheckEntry("expected_ddc", 0.0, (int(expected_ddc),), ddc_seen == expected_ddc))
    return entries


CATALOG = (
    ("halfline_shift",
     "Forward translation on a half-line grid: semigroup law, window accounting, "
     "pure Wold split.",
     "m=1 T=8 r=1 K=m*T+2 samples=1,2,3",
     _run_halfline_shift),
    ("bishift",
     "Coordinate shifts on a quadrant grid: doubly commuting; the fourfold split "
     "concentrates in the pure-pure corner.",
     "m=2 T=2 r=1 K=m*T+2 samples=1/2,1",
     _run_bishift),
    ("modified_bishift",
     "Compressed two-sided translations on the L-shaped region: commuting with a "
     "nonzero adjoint-commutation witness.",
     "m=1 T=2 r=1 samples=1",
     _run_modified_bishift),
    ("four_block_dc",
     "Direct sum of four tensor blocks with prescribed pure/unitary types; the "
     "fourfold split must recover the block dimensions.",
     "T=4 circ=3 K=T+2",
     _run_four_block_dc),
    ("four_block_ddc",
     "Direct sum of setups whose duals commute doubly; the dual fourfold split "
     "must recover the block dimensions.",
     "m=1 T=2 p=3 circ=3 K=2*m*T+2 max_orbit=4*m*T",
     _run_four_block_ddc),
    ("commutant_e",
     "Commutant of the interval cut-shift pair over all grid shifts: dimension "
     "r^2, fiber-scalar form.",
     "m=2 r=1",
     _run_commutant_e),
    ("commutant_mz",
     "Operators doubly commuting with the truncated degree shift: dimension r^2, "
     "identity-tensor form.",
     "d=1 r=1",
     _run_commutant_mz),
    ("bcl",
     "Exact identification of the half-line shift with its coefficient-space "
     "multiplier model under the interval-stacking permutation.",
     "T=4 m=4 r=1 samples=<all nonempty windows>",
     _run_bcl),
    ("dual_example",
     "Dual pair of the L-region setup equals the quadrant bishift, integer-exactly; "
     "the dual is certified completely nonunitary.",
     "m=1 T=2 r=1 K=m*T+2 max_orbit=4*m*T",
     _run_dual_example),
    ("double_dual",
     "Dual of the dual recovers the original compressed pair; orbit minimality "
     "certificate within radius 2*m*T.",
     "m=1 T=2 r=1 max_orbit=4*m*T",
     _run_double_dual),
    ("simultaneous",
     "Joint classification: doubly commuting and dual doubly commuting, with the "
     "three-part split when both hold (variants: mixed, bishift, unitary).",
     "variant=mixed m=1 T=2 p=3 K=2*m*T+2 max_orbit=4*m*T",
     _run_simultaneous),
)

_RUNNERS = {name: runner for name, _, _, runner in CATALOG}
# a construction's parameters are the keys its defaults line lists, in order, with their defaults
_DEFAULTS = {name: dict(re.findall(r"(\w+)=(\S+)", defaults)) for name, _, defaults, _ in CATALOG}
_VARIANTS = ("mixed", "bishift", "unitary")
# every other parameter is an integer with this lower bound, 1 unless listed
_LOWEST = {("commutant_e", "m"): 2}  # a single cell imposes no constraint


def check_scenario(scenario: Scenario) -> dict:
    """Each parameter of the construction's defaults line, in line order: its
    given value, checked, else its default.

    An unknown construction, a key that is not one of its parameters, or a
    value of the wrong type or out of bounds raises before anything runs; of
    several bad values the first in line order is named.  An integer is
    ASCII digits.  ``samples`` resolves to the step counts j = t * m of its
    times, which must be nonnegative multiples of 1/m.  A derived default
    such as ``2*m*T+2`` is a sum of products of integer literals and
    parameters resolved before it.
    """
    construction, params = scenario.construction, scenario.params
    if construction not in _RUNNERS:
        raise InvalidInput(f"unknown construction {construction!r}; "
                           f"known: {', '.join(sorted(_RUNNERS))}")
    for key in params:
        if key not in _DEFAULTS[construction]:
            raise InvalidInput(f"unknown parameter {key}")
    resolved = {}
    for key, default in _DEFAULTS[construction].items():
        raw = params.get(key)
        if key == "variant":
            if raw is not None and raw not in _VARIANTS:
                raise InvalidInput(f"variant must be one of {', '.join(_VARIANTS)}, got {raw!r}")
            resolved[key] = default if raw is None else raw
        elif key == "samples":  # resolved to step counts on the 1/m grid
            m = resolved["m"]
            if raw is not None:
                steps = _sample_steps(raw, m)
            elif construction == "bcl":  # its line names the rule, not the times
                steps = _bcl_default_samples(resolved["T"], m)
            else:  # the line's times where they lie on the 1/m grid (bishift at odd m does not)
                try:
                    steps = _sample_steps(default, m)
                except InvalidInput:
                    steps = [1, 2]  # one and two cells
            resolved[key] = steps
        elif raw is not None:
            lowest = _LOWEST.get((construction, key), 1)
            text = str(raw)
            if not (text.isascii() and text.isdigit()) or int(text) < lowest:
                raise InvalidInput(f"{key} must be {_count_need(lowest)}, got {raw}")
            resolved[key] = int(text)
        else:
            resolved[key] = sum(math.prod(int(f) if f.isdigit() else resolved[f]
                                          for f in term.split("*"))
                                for term in default.split("+"))
    return resolved


def run_scenario(scenario: Scenario) -> Report:
    """Run one named scenario deterministically; its report echoes the resolved parameters."""
    params = scenario.resolved
    entries = _RUNNERS[scenario.construction](**params)
    echo = {key: str(value) for key, value in params.items()}
    if "samples" in params:
        echo["samples"] = ",".join(format_time(j, params["m"]) for j in params["samples"])
    echo.update(_FIXED_ECHO)
    return Report(scenario=scenario.name, construction=scenario.construction,
                  params=tuple(sorted(echo.items())), entries=entries)


def list_catalog() -> str:
    """Stable text listing of every bundled construction."""
    lines = ["available constructions:"]
    for name, description, defaults, _ in CATALOG:
        lines.append(f"  {name}")
        lines.append(f"    {description}")
        lines.append(f"    defaults: {defaults}")
    lines.append("")
    lines.append("config format: one [section] per scenario; keys: construction=<name>")
    lines.append("and the parameters its defaults line lists.")
    return "\n".join(lines) + "\n"
