"""Canonical splittings of isometric families on their exactness windows.

The unitary part of a family is the intersection of the spans of the
trusted columns of its powers; the split into a unitary and a completely
nonunitary (pure shift) part is the first intersection that certifies
itself by standing still for one extra step.  The span at step k is the
set of cells at the end of a chain of k generator steps, so the split is
read off the chain heights of the cells, found by doubling without
forming a power.  The stabilization certificate is always reported,
never assumed: a window can be too small to resolve the unitary part, in
which case the result carries ``stabilized=False``.

On top of the single-family split sit the pair-level operations: the
fourfold split of a doubly commuting pair, the unitary part of the
product family, and the exact identification of the half-line
translation with its coefficient-space multiplier model.  The two checks
here, ``bcl_check`` and ``verify_joint_equivalence``, take the grid m
and their samples as step counts j on the grid t = j/m, as every map
constructor takes step counts, and return their ``CheckEntry`` lists:
only ``catalog`` reads a time, and ``report.format_time`` writes the
times of their ids.  No family or pair holds a grid.  The two
splits check their preconditions against the pair's ``step_verdict``, so
a pair is classified at its step once whichever split reads it first.
Commutation classification (``classify_pair``), compressions and
isometry tests come from ``semigroups``.  Z A Z* is written once, in
``verify_joint_equivalence``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionFailed, WindowTooSmall
from .numlin import (_BLOCK, Subspace, _mask, _positions, _read_count, _read_steps, complement,
                     intersect)
from .report import CheckEntry, format_time
from .semigroups import (CommutationReport, PairOfSemigroups, SemigroupFamily, WindowedMap,
                         _check_image, _halfline_rows, _held_residual, _isometry_defect,
                         _pair_residual, _phi_rows, _window_entry, classify_pair)
from .spaces import CellGrid1D

__all__ = [
    "WoldResult",
    "FourfoldResult",
    "CommutationReport",
    "ProductWoldResult",
    "wold_cooper",
    "classify_pair",
    "fourfold_decompose",
    "bcl_check",
    "verify_joint_equivalence",
    "product_unitary_part",
]


@dataclass(frozen=True)
class WoldResult:
    cnu_part: Subspace
    unitary_part: Subspace
    stabilized: bool
    steps_used: int
    unitary_residual: float


@dataclass(frozen=True)
class FourfoldResult:
    h_pp: Subspace
    h_pu: Subspace
    h_up: Subspace
    h_uu: Subspace
    reduction_residual: float
    wold_first: WoldResult
    wold_second: WoldResult

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.h_pp.dim, self.h_pu.dim, self.h_up.dim, self.h_uu.dim)


@dataclass(frozen=True)
class ProductWoldResult:
    subspace: Subspace
    stabilized: bool
    steps_used: int
    reduction_residual: float


def _unitary_residual(part: Subspace, generator: WindowedMap) -> float:
    """Distance of the compression C of the generator to ``part`` from a unitary.

    The larger of the isometry defects of C and C*.  The compressed image
    is read through ``_positions`` and no map is built.  C is square and
    injective, so the two defects agree: C is unitary (0.0) when it
    permutes the cells, and otherwise kills a column and misses a row, so
    both are 1.0.
    """
    image = _positions(part.cells, generator.codomain_dim)[generator.image[part.cells]]
    return _isometry_defect(image)


def _chain_heights(image: np.ndarray, live: np.ndarray,
                   max_steps: int) -> tuple[np.ndarray, int, int]:
    """Chain heights capped at a span that decides the Wold split, and the rounds taken.

    height(y) is the length of the longest chain x, Vx, ..., V^k x = y in
    which each of x, ..., V^(k-1) x is a live column; it is infinite for a
    cell that a cycle of live steps reaches.  After the round at span L,
    ``height`` holds min(height, L), and anc[x] is the cell L live steps
    after x (-1 where a step dies first).  A round doubles L: a cell y of
    height at least L ends a chain whose last L steps start at some x with
    anc[x] = y, so min(height(y), 2L) is L plus min(height(x), L) for
    that x, which is the only one: the image is injective, and so is anc.
    That is one scatter over anc; anc[anc] is the array at 2L.  The
    finite heights run contiguously from 0, since the next-to-last cell of
    a longest chain has height one less, so the smallest missing height is
    one more than the largest value below L.  The rounds stop once that is
    below L, or once L reaches max_steps.  Returns (height, missing,
    rounds), ``missing`` being the smallest height below L that no cell
    has, or L.
    """
    anc = np.where(live, image, -1)
    height = np.zeros(image.size, dtype=np.int64)
    height[anc[anc >= 0]] = 1
    span, rounds = 1, 0
    while True:
        below = height[height < span]
        missing = int(np.maximum.reduce(below)) + 1 if below.size else 0
        if missing < span or span >= max_steps:
            return height, missing, rounds
        step = anc >= 0
        height[anc[step]] = height[step] + span
        anc = np.where(step, anc[anc], -1)
        span, rounds = 2 * span, rounds + 1


def wold_cooper(family: SemigroupFamily, max_steps: int) -> WoldResult:
    """Split the space into unitary and pure parts of a family V.

    The unitary part is the intersection over k of range_k, the set of
    rows that the faithful columns of V^k reach.  The split stops early
    at the first k with range_k = range_(k-1), which is the stabilization
    certificate; running out of steps, including by window exhaustion,
    reports stabilized=False rather than raising.

    No power is built.  ``compose`` keeps column i of V^k faithful exactly
    when each of i, Vi, ..., V^(k-1) i that is a cell is faithful for V; a
    faithful zero column stays faithful and maps to -1, so it adds no
    row.  So with the live columns those faithful for V that have a row,
    range_k is the set of cells y whose chain height (``_chain_heights``)
    is at least k.  The ranges are nested, and range_k = range_(k-1)
    exactly when no cell has height k - 1: the split stabilizes at
    k = 1 + the smallest missing height h, and its unitary part is the
    cells of height above h.  Heights come from O(log max_steps) doubling
    rounds over two length-n arrays.
    """
    max_steps = _read_count(max_steps, "max_steps")
    image = family.generator.image
    live = family.generator.faithful_mask & (image >= 0)
    height, missing, _ = _chain_heights(image, live, max_steps)
    stabilized = missing < max_steps
    steps_used = missing + 1 if stabilized else max_steps
    part = Subspace._derived(family.dim, (height >= steps_used).nonzero()[0])
    return WoldResult(complement(part), part, stabilized, steps_used,
                      _unitary_residual(part, family.generator))


def _reduction_residual(parts, elements) -> float:
    """Max commutation residual of the projectors of ``parts`` with the given elements.

    Only the faithful columns of each element count.  Column j of PV - VP
    is +-e_v(j) when exactly one of j and v(j) lies in the cells, and zero
    otherwise.  Those unit columns lie on distinct rows, since v is
    injective, so the norm is 1.0 when there is one and 0.0 otherwise.
    The live faithful columns of each element are read once, and every
    part, overlapping ones too, is tested on them with its own mask.
    """
    edges = []
    for element in elements:
        cols = (element.faithful_mask & (element.image >= 0)).nonzero()[0]
        edges.append((cols, element.image[cols]))
    for part in parts:
        inside = _mask(part.cells, part.ambient)
        if any(np.count_nonzero(inside[rows] != inside[cols]) for cols, rows in edges):
            return 1.0
    return 0.0


def fourfold_decompose(pair: PairOfSemigroups, max_steps: int) -> FourfoldResult:
    """Fourfold split of a doubly commuting pair by crossing the two splits.

    Each corner is the intersection of one part of each family's split;
    the reduction residuals cannot be nonzero for a genuinely doubly
    commuting pair, so they are reported as window-pollution detectors.
    Raises PreconditionFailed unless the pair's ``step_verdict`` is
    doubly commuting.
    """
    verdict = pair.step_verdict
    if verdict.classified != "doubly_commuting":
        raise PreconditionFailed(
            f"pair classifies as {verdict.classified}, needs doubly_commuting")
    w1 = wold_cooper(pair.first, max_steps)
    w2 = wold_cooper(pair.second, max_steps)
    h_pp = intersect(w1.cnu_part, w2.cnu_part)
    h_pu = intersect(w1.cnu_part, w2.unitary_part)
    h_up = intersect(w1.unitary_part, w2.cnu_part)
    h_uu = intersect(w1.unitary_part, w2.unitary_part)
    gens = [pair.first.generator, pair.second.generator]
    residual = _reduction_residual((h_pp, h_pu, h_up, h_uu), gens)
    return FourfoldResult(h_pp, h_pu, h_up, h_uu, residual, w1, w2)


def bcl_check(T: int, m: int, r: int, steps) -> list[CheckEntry]:
    """Exact identification of the half-line shift with its multiplier model.

    The interval-stacking permutation W sends grid cell n*m + j to degree
    n, interval cell j.  Under the layouts of ``spaces`` the coefficient
    index n*m*r + j*r + rho equals the grid index (n*m + j)*r + rho, so W
    is the identity and W S W* = S: each sampled shift is compared with
    the degree-block multiplier directly.  Both sides are partial
    permutations, so the check demands residual exactly zero on the
    common window.

    The sampled step counts go through one table pass.  They are read
    once, and a negative or non-integer one, or an empty list, raises
    InvalidInput before any table is built.  Both sides are built as
    tables with one row per sample (``_halfline_rows`` and ``_phi_rows``),
    in blocks of at most ``numlin._BLOCK`` cells but one row at least, so
    memory stays O(dim).  A row whose two images agree on their common
    window passes with residual 0.0 and the size of that window.  A row
    whose images differ there is compared on its two table rows by
    ``_held_residual``, which gives what ``_pair_residual`` of the two
    maps gives.  A row with an empty common window, as every step from mT
    on has, raises WindowTooSmall, so the errors are those of a loop over
    the samples in order that builds the two maps of each.
    """
    grid = CellGrid1D(m, T, r)
    steps = _read_steps(steps)
    rows = max(1, _BLOCK // grid.dim)
    entries = []
    for start in range(0, len(steps), rows):
        block = steps[start:start + rows]
        shift, shift_faithful = _halfline_rows(grid, block)
        model, model_faithful = _phi_rows(T - 1, m, r, block)
        _check_image(shift, grid.dim)
        _check_image(model, grid.dim)
        common = shift_faithful & model_faithful
        counts = np.count_nonzero(common, axis=1).tolist()
        differ = ((shift != model) & common).any(axis=1).tolist()
        for k, j in enumerate(block):
            time = format_time(j, m)
            if not counts[k]:
                raise WindowTooSmall(f"time {time} leaves no faithful window")
            residual = 0.0
            if differ[k]:
                residual, _ = _held_residual((shift[k], shift_faithful[k]),
                                             (model[k], model_faithful[k]))
            entries.append(CheckEntry(f"t={time}", residual, (counts[k],), residual == 0.0))
    return entries


def verify_joint_equivalence(pair_a: PairOfSemigroups, pair_b: PairOfSemigroups,
                             z: WindowedMap, m: int, steps) -> list[CheckEntry]:
    """Check Z A_{j,t} Z* = B_{j,t} on faithful windows for j = 1, 2.

    Only verifies a supplied equivalence; finding one is out of scope.
    The times are the step counts ``steps`` on the grid t = j/m, which
    the ids write.  Z A Z* is a composition, so its window is the
    support rule: column i is trusted when Z* e_i lies inside the window
    of A.  ``z`` is a permutation held as a ``WindowedMap``, so the
    conjugation is a gather.
    """
    if not isinstance(z, WindowedMap):
        raise InvalidInput(f"z must be a WindowedMap, got {type(z).__name__}")
    m = _read_count(m, "m")
    steps = _read_steps(steps)
    if _isometry_defect(z.image) > 0.0 or _isometry_defect((z_adj := z.adjoint()).image) > 0.0:
        raise PreconditionFailed("supplied conjugation is not unitary")
    entries = []
    for axis, (fam_a, fam_b) in enumerate(((pair_a.first, pair_b.first),
                                           (pair_a.second, pair_b.second)), start=1):
        for j in steps:
            got = _pair_residual(z.compose(fam_a.element(j)).compose(z_adj), fam_b.element(j))
            entries.append(_window_entry(f"axis{axis}_t={format_time(j, m)}", got))
    if all(entry.note for entry in entries):
        raise WindowTooSmall("no sample leaves a nonempty faithful window")
    return entries


def product_unitary_part(pair: PairOfSemigroups, max_steps: int) -> ProductWoldResult:
    """Unitary part of the product family t -> V1_t V2_t of a commuting pair.

    The result is checked to reduce both factors; the residuals are folded
    into ``reduction_residual``.  Raises PreconditionFailed unless the
    pair's ``step_verdict`` commutes.
    """
    if pair.step_verdict.comm_residual > 0.0:
        raise PreconditionFailed("product family of a non-commuting pair is not a semigroup")
    generator = pair.first.generator.compose(pair.second.generator)
    product = SemigroupFamily(generator)
    wold = wold_cooper(product, max_steps)
    residual = _reduction_residual([wold.unitary_part],
                                   [pair.first.generator, pair.second.generator])
    return ProductWoldResult(wold.unitary_part, wold.stabilized, wold.steps_used, residual)
