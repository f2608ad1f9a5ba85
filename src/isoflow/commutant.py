"""Commutants of the structured operator families, solved exactly by union-find.

Every operator the solvers constrain against is a 0/1 partial permutation
pi, held as its image array (the row of each column's single 1, -1 for a
zero column).  For such an operator the commutation constraint on column
j of [B, M] = 0 reads, entrywise, B[i, pi(j)] = B[pi^-1(i), j]; a side
whose index does not exist is the constant 0.  Every equation therefore
has the form b_a = b_b or b_a = 0, and a union-find over the n^2 entries
of B (plus one zero sentinel) solves the whole system: each class not
joined to the sentinel is one free coefficient, and its 0/1 indicator is
one basis element.  No rank decision and no tolerance is involved.
Constraints are only imposed on faithful columns of the truncated
operators; including boundary equations would over-constrain, because a
truncation is not isometric at the top of its window.

The solution is held as that partition: an n x n ``int64`` array of class
labels.  Both solved spaces must have the form I (x) omega across blocks
of consecutive coordinates (cells of the interval, or degrees), and the
solvers decide that form by comparing label arrays, with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidInput, PreconditionFailed
from .numlin import DEFAULT_TOL, Tolerances, residual_norm, spectral_norm
from .report import CheckEntry, Report
from .semigroups import SemigroupFamily, _cut_shift_images, _forward_image, _pair_residual

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
    ``basis`` holds the 0/1 class indicators in label order, built on first
    read and kept; they have disjoint supports, but are not orthonormal.
    """

    labels: np.ndarray
    structure_verdict: str  # "fiber_scalar" | "other"
    max_structure_residual: float

    @property
    def dim(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple((self.labels == k).astype(np.complex128) for k in range(self.dim))


def _exact_commutant(ops, n: int) -> np.ndarray:
    """Entry classes of {B : [B, M] = 0 on the given columns, for every op}.

    Each op is ``(image, columns)`` with ``image`` the image array of a
    0/1 partial permutation on C^n.  Entry (i, k) of B has vec index
    i + k*n; index n*n is the zero sentinel.  The result is the read-only
    n x n ``int64`` array that labels each entry with its class, numbered
    by smallest vec index, or -1 where the entry is forced to zero.
    """
    zero = n * n
    parent = list(range(zero + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rows = np.arange(n)
    for image, columns in ops:
        image = np.asarray(image)
        cols = np.asarray(sorted(columns), dtype=np.int64)
        live = image[image >= 0]
        if (image.shape != (n,) or image.dtype.kind not in "iu" or (image < -1).any()
                or (live >= n).any() or len(set(live.tolist())) != live.size):
            raise InvalidInput("operator is not a 0/1 partial permutation")
        if cols.size and not (0 <= cols[0] and cols[-1] < n):
            raise InvalidInput("constrained column outside the space")
        preimage = np.full(n, -1, dtype=np.int64)
        preimage[live] = np.flatnonzero(image >= 0)
        target = image[cols]
        # B[i, pi(j)] = B[pi^-1(i), j] for every row i and constrained column j
        lhs = np.where(target >= 0, rows[:, None] + target * n, zero)
        rhs = np.where(preimage[:, None] >= 0, preimage[:, None] + cols * n, zero)
        for a, b in zip(lhs.ravel().tolist(), rhs.ravel().tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)  # every root is its class minimum
    roots = np.array([find(a) for a in range(zero)], dtype=np.int64)
    free = roots != find(zero)
    labels = np.full(zero, -1, dtype=np.int64)
    # a root is its class minimum, so sorted roots number the classes by smallest vec index
    labels[free] = np.unique(roots[free], return_inverse=True)[1]
    labels = labels.reshape((n, n), order="F")
    labels.flags.writeable = False
    return labels


def _fiber_form(labels: np.ndarray, blocks: int) -> CommutantBasis:
    """The solved commutant with its verdict on the form I_blocks (x) omega.

    Every class indicator b is I (x) b_0, b_0 its leading block, exactly
    when ``labels`` is its leading block on each diagonal block and -1 off
    them.  Entries of b - I (x) b_0 are 0 or +-1, so a failing form has a
    residual of norm at least 1, reported as 1.0.
    """
    fiber = labels.shape[0] // blocks
    tiled = np.kron(np.eye(blocks, dtype=np.int64), labels[:fiber, :fiber] + 1) - 1
    if np.array_equal(labels, tiled):
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
    ops = [(image, range(n)) for j in range(1, m) for image in _cut_shift_images(m, j, r)]
    return _fiber_form(_exact_commutant(ops, n), m)


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
    mz = _forward_image(n, r)  # degree block b -> b + 1
    mz_adj = np.arange(n) - r
    mz_adj[:r] = -1
    return _fiber_form(_exact_commutant([(mz, range(n - r)), (mz_adj, range(r, n))], n), d + 1)


def _fiber_block_average(matrix: np.ndarray, fiber: int, cells) -> np.ndarray:
    blocks = [matrix[k * fiber:(k + 1) * fiber, k * fiber:(k + 1) * fiber] for k in sorted(cells)]
    return sum(blocks) / len(blocks)


def fuglede_instance_check(normal_family: SemigroupFamily, shift_family: SemigroupFamily,
                           fiber: int, samples, tol: Tolerances = DEFAULT_TOL) -> Report:
    """Commuting normal elements against the shift must doubly commute.

    For each sampled time the element must be normal (precondition).  The
    check then asserts the one-sided implication: a commutation residual
    within tolerance forces the adjoint-commutation residual within 10x
    tolerance, and the element must carry the fiber form I (x) B_t
    (structure residual reported).  ``shift_family`` is trusted to be the
    half-line shift tensored with an identity fiber of the given size.
    """
    if normal_family.dim != shift_family.dim:
        raise DimensionMismatch("families act on different spaces")
    if fiber < 1 or normal_family.dim % fiber:
        raise InvalidInput("fiber dimension does not divide the space")
    cells = normal_family.dim // fiber
    entries = []
    for t in samples:
        time = Fraction(t)
        a = normal_family.at_time(time)
        normality = residual_norm(a.matrix @ a.matrix.conj().T, a.matrix.conj().T @ a.matrix)
        if normality > tol.resid_abs:
            raise PreconditionFailed(f"element at t={time} is not normal ({normality:.3e})")
        v = shift_family.at_time(time)
        comm, _ = _pair_residual(a.compose(v), v.compose(a)) or (0.0, 0)
        entries.append(CheckEntry(f"t={time}:commutator", comm, (), True))
        if comm <= tol.resid_abs:
            v_adj = v.adjoint()
            double, _ = _pair_residual(a.compose(v_adj), v_adj.compose(a)) or (0.0, 0)
            entries.append(CheckEntry(f"t={time}:adjoint_commutator", double, (),
                                      double <= 10 * tol.resid_abs))
            full_cells = np.flatnonzero(a.faithful_mask.reshape(cells, fiber).all(axis=1))
            if not full_cells.size:
                entries.append(CheckEntry(f"t={time}:fiber_form", 0.0, (0,), False,
                                          "no faithful fiber block"))
                continue
            b_t = _fiber_block_average(a.matrix, fiber, full_cells)
            rebuilt = np.kron(np.eye(cells, dtype=np.complex128), b_t)
            cols = np.flatnonzero(a.faithful_mask)
            structure = spectral_norm(a.matrix[:, cols] - rebuilt[:, cols])
            entries.append(CheckEntry(f"t={time}:fiber_form", structure, (len(full_cells),),
                                      structure <= 10 * tol.resid_abs))
    return Report(scenario="fuglede_instance", entries=entries)
