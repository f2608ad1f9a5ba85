"""Commutants of the structured operator families, solved exactly by hook-and-shortcut.

Every operator the solvers constrain against is a 0/1 partial permutation
pi, held as its image array (the row of each column's single 1, -1 for a
zero column).  For such an operator the commutation constraint on column
j of [B, M] = 0 reads, entrywise, B[i, pi(j)] = B[pi^-1(i), j]; a side
whose index does not exist is the constant 0.  Every equation therefore
has the form b_a = b_b or b_a = 0, and the connected components of these
equations over the n^2 entries of B (plus one zero sentinel) solve the
whole system: each class not joined to the sentinel is one free
coefficient, and its 0/1 indicator is one basis element.  No rank
decision and no tolerance is involved.  The components are found by
``numlin._components``, hook-and-shortcut (Shiloach & Vishkin 1982,
J. Algorithms 3(1)) in a few numpy rounds, the equations taken in blocks
of at most ``_BLOCK_ENTRIES``.  The bundled and benchmark sizes fit in
one block, and on all of them but ``commutant_mz d=1 r=1`` the
unsatisfied equations outnumber the labels, so each round shortcuts the
whole label array, not the equations' ends.
Constraints are only imposed on faithful columns of the truncated
operators; including boundary equations would over-constrain, because a
truncation is not isometric at the top of its window.

The solution is held as that partition: an n x n ``int64`` array of class
labels.  Both solved spaces must have the form I (x) omega across blocks
of consecutive coordinates (cells of the interval, or degrees), and the
solvers decide that form by comparing label arrays, with no tolerance.
The instance check ``fuglede_instance_check`` takes its samples as step
counts j on the grid t = j/m and returns its ``CheckEntry`` list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, PreconditionFailed, WindowTooSmall
from .numlin import _check_budget, _components, _equal
from .report import CheckEntry, format_time
from .semigroups import (SemigroupFamily, _commutator_residual, _cut_shift_images,
                         _forward_image, _held_residual, _read_steps)

__all__ = [
    "CommutantBasis",
    "commutant_of_partial_isometries",
    "doubly_commutant_of_mz",
    "fuglede_instance_check",
]


@dataclass(frozen=True)
class CommutantBasis:
    """A solved commutant, held as the read-only n x n ``labels`` array.

    ``labels[i, k]`` is the class of entry (i, k) of B, numbered 0..dim-1
    by smallest column-major entry index, or -1 where it is forced to zero.
    The 0/1 indicator of class k, ``labels == k``, is the k-th element of
    a basis of the commutant; the indicators have disjoint supports, but
    are not orthonormal.
    """

    labels: np.ndarray
    structure_verdict: str  # "fiber_scalar" | "other"
    max_structure_residual: float

    @property
    def dim(self) -> int:
        return int(np.maximum.reduce(self.labels, axis=None, initial=-1)) + 1


_BLOCK_ENTRIES = 32768  # equations per block of _exact_commutant, one constrained column at least


def _check_system(maps: int, n: int) -> None:
    """Raise InvalidInput, before any array of it exists, when a solve on C^n
    against ``maps`` operators would exceed ``numlin._BUDGET``: first its
    int64 entry labels, one per entry of B and one for the zero sentinel,
    then its (maps, n) ``int64`` images (their preimages take as much)."""
    _check_budget(n * n + 1, 8, f"a commutant on n = {n}")
    _check_budget(maps * n, 8, f"a commutant system of {maps} maps on n = {n}")


def _exact_commutant(images: np.ndarray, lo, hi) -> np.ndarray:
    """Entry classes of {B : [B, M] = 0 on the given columns, for every op}.

    Row s of the (k, n) ``int64`` array ``images`` is the image array of a
    0/1 partial permutation on C^n as the solvers build it, unchecked here,
    constrained on its columns lo[s] <= j < hi[s].  The solvers price the
    system with ``_check_system`` first.  Entry (i, k) of B has vec index
    i + k*n; index n*n is the zero sentinel.  The result is the read-only
    n x n ``int64`` array that labels each entry with its class, numbered
    by smallest vec index, or -1 where the entry is forced to zero.

    The constrained (op, column) pairs are numbered op by op, and a block
    is a run of those numbers, which may span ops: each number finds its
    op by a search over the ends of the ranges, and its column by its
    offset in that op's range.  Only the preimages are as large as the
    system.
    """
    n = images.shape[1]
    zero = n * n
    preimages = np.full((len(images), n + 1), -1, dtype=np.int64)
    # a zero column (-1) lands in the extra last slot, which is dropped
    preimages[np.arange(len(images))[:, None], images] = np.arange(n)
    preimages = preimages[:, :n]
    hi = np.asarray(hi, dtype=np.int64)
    ends = (hi - np.asarray(lo, dtype=np.int64)).cumsum()  # one past the last number of each op
    total = int(ends[-1]) if ends.size else 0
    lab, _ = _components(_blocks(images, preimages, ends, hi - ends, total), zero + 1)
    # every root labels itself and is its class minimum, so counting the free roots up to it
    # numbers the classes by smallest vec index; the forced class reads -1
    root = np.zeros(zero + 1, dtype=bool)
    root[lab] = True
    forced = lab[zero]
    root[forced] = False
    number = root.cumsum()
    number -= 1
    number[forced] = -1
    labels = number[lab[:zero]].reshape((n, n), order="F")
    labels.flags.writeable = False
    return labels


def _equations(target: np.ndarray, preimage: np.ndarray, column: np.ndarray, n: int):
    """B[i, pi(j)] = B[pi^-1(i), j] for every row i and constrained column j, as
    the (columns, n) vec indices of both sides; a side that does not exist
    is the zero sentinel n*n.

    ``target`` and ``column`` are (columns, 1) arrays of pi(j) and j, and
    ``preimage`` the (columns, n) rows of pi^-1; -1 marks a missing image
    or preimage.  Called once per block, so that ``_blocks`` keeps none of
    these gathers across its yield."""
    zero = n * n
    return (np.where(target >= 0, np.arange(n) + target * n, zero),
            np.where(preimage >= 0, preimage + column * n, zero))


def _blocks(images: np.ndarray, preimages: np.ndarray, ends: np.ndarray, shift: np.ndarray,
            total: int):
    """The equations of ``_exact_commutant`` by runs of its ``total`` numbered (op,
    column) pairs, at most ``_BLOCK_ENTRIES`` equations but one column at least
    per run; op s numbers its column j as j - shift[s], and ``ends`` holds one
    past each op's last number."""
    n = images.shape[1]
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, total, step):
        number = np.arange(start, min(start + step, total))
        owner = ends.searchsorted(number, side="right")
        column = number + shift[owner]
        yield _equations(images[owner, column, None], preimages[owner], column[:, None], n)


def _fiber_form(labels: np.ndarray, blocks: int) -> CommutantBasis:
    """The solved commutant with its verdict on the form I_blocks (x) omega.

    Every class indicator b is I (x) b_0, b_0 its leading block, exactly
    when ``labels`` is its leading block on each diagonal block and -1 off
    them: ``labels`` is compared with a -1 array on whose diagonal blocks
    the leading block is written.  Entries of b - I (x) b_0 are 0 or +-1, so
    a failing form has a residual of norm at least 1, reported as 1.0.
    """
    fiber = labels.shape[0] // blocks
    tiled = np.full_like(labels, -1)
    diagonal = np.arange(blocks)
    tiled.reshape(blocks, fiber, blocks, fiber)[diagonal, :, diagonal] = labels[:fiber, :fiber]
    if _equal(labels, tiled):
        return CommutantBasis(labels, "fiber_scalar", 0.0)
    return CommutantBasis(labels, "other", 1.0)


def commutant_of_partial_isometries(m: int, r: int) -> CommutantBasis:
    """Solve for B commuting with both cut-shift pieces at every grid shift.

    The constraint set ranges over the shifts j = 1..m-1, which are all
    the realizable ones on an m-cell interval.  The expected solution
    space is r^2-dimensional with every element of the fiber-scalar form
    I_m (x) C; the verdict and its residual are reported, not assumed (the
    grid analogue of the continuum statement is instance evidence, not a
    proof).
    """
    if m < 2:
        raise InvalidInput("m must be >= 2: a single cell imposes no constraint")
    if r < 1:
        raise InvalidInput("fiber dimension must be >= 1")
    n = m * r
    _check_system(2 * (m - 1), n)
    images = _cut_shift_images(m, np.arange(1, m), r)
    return _fiber_form(_exact_commutant(images, [0] * len(images), [n] * len(images)), m)


def doubly_commutant_of_mz(d: int, r: int) -> CommutantBasis:
    """Solve for B doubly commuting with the truncated degree shift.

    The forward constraint is imposed on degree columns 0..d-1 and the
    adjoint constraint on columns 1..d; the top-degree boundary equations
    are excluded per the window rules.  Expected: dimension r^2 with each
    element of the form I (x) omega across degree blocks.
    """
    if d < 1:
        raise InvalidInput("top degree must be >= 1")
    if r < 1:
        raise InvalidInput("fiber dimension must be >= 1")
    n = (d + 1) * r
    _check_system(2, n)
    images = _forward_image(n, [r, -r])  # degree block b -> b + 1, and its adjoint
    return _fiber_form(_exact_commutant(images, [0, r], [n - r, n]), d + 1)


def fuglede_instance_check(normal_family: SemigroupFamily, shift_family: SemigroupFamily,
                           fiber: int, steps) -> list[CheckEntry]:
    """Commuting normal elements against the shift must doubly commute.

    The sampled times are the step counts ``steps`` on the one grid that
    both families must share.  At each the element must be normal
    (precondition).  A partial permutation A, injective by construction,
    has A A* and A* A equal to the projections onto its live rows and its
    live columns, so it is normal exactly when those two sets are equal.  The
    check then asserts the one-sided implication: a commutation residual
    of exactly 0 forces an adjoint-commutation residual of exactly 0, and
    the element must carry the fiber form I (x) B_t.  A commutator with no
    common faithful column is skipped, [A, V_t] with the rest of its
    sample; when no sample is left the window is too small.  B_t
    is the diagonal block of the first fiber block whose columns are all
    faithful, and the image is compared with I (x) B_t rebuilt from it by
    ``_held_residual`` on the faithful columns.  ``shift_family`` is
    trusted to be the half-line shift tensored with an identity fiber of
    the given size.
    """
    if normal_family.dim != shift_family.dim:
        raise DimensionMismatch("families act on different spaces")
    if fiber < 1 or normal_family.dim % fiber:
        raise InvalidInput("fiber dimension does not divide the space")
    m = normal_family.cells_per_unit
    if shift_family.cells_per_unit != m:
        raise InvalidInput("the two families use different time grids")
    cells = normal_family.dim // fiber
    entries = []
    usable = 0
    for j in _read_steps(steps):
        time = format_time(j, m)
        a = normal_family.element(j)
        if not _equal(a.adjoint().image >= 0, a.image >= 0):
            raise PreconditionFailed(f"element at t={time} is not normal")
        v = shift_family.element(j)
        got = _commutator_residual(a, v)
        if got is None:
            entries.append(CheckEntry(f"t={time}:commutator", 0.0, (0,), True,
                                      "empty window, skipped"))
            continue
        usable += 1
        comm, count = got
        entries.append(CheckEntry(f"t={time}:commutator", comm, (count,), True))
        if comm == 0.0:
            got = _commutator_residual(a, v.adjoint())
            double, count = (0.0, 0) if got is None else got
            entries.append(CheckEntry(f"t={time}:adjoint_commutator", double, (count,),
                                      double == 0.0, "" if count else "empty window, skipped"))
            full_cells = a.faithful_mask.reshape(cells, fiber).all(axis=1).nonzero()[0]
            if not full_cells.size:
                entries.append(CheckEntry(f"t={time}:fiber_form", 0.0, (0,), False,
                                          "no faithful fiber block"))
                continue
            first = full_cells[0] * fiber
            b_t = a.image[first:first + fiber] - first
            b_t[(b_t < 0) | (b_t >= fiber)] = -1
            offsets = np.arange(0, a.domain_dim, fiber)[:, None]
            rebuilt = np.where(b_t >= 0, offsets + b_t, -1).ravel()
            structure, _ = _held_residual((a.image, a.faithful_mask),
                                          (rebuilt, np.ones(a.domain_dim, dtype=bool)))
            entries.append(CheckEntry(f"t={time}:fiber_form", structure, (full_cells.size,),
                                      structure == 0.0))
    if not usable:
        raise WindowTooSmall("no sample leaves a nonempty faithful window")
    return entries
