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

The solvers also verify the structural form the solutions must take
(a fiber operator conjugated into the cell ordering, or an identity
tensor across degree blocks) and report the worst reconstruction
residual; ``fiber_scalar`` is declared below 1e-8, which separates real
structure from accidental near-solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InvalidInput, PreconditionFailed
from .numlin import DEFAULT_TOL, Tolerances, _from_image, residual_norm, spectral_norm
from .report import CheckEntry, Report
from .semigroups import SemigroupFamily, _cut_shift_images, _forward_image, _pair_residual
from .spaces import lambda_reorder

__all__ = [
    "CommutantBasis",
    "commutant_of_partial_isometries",
    "theta_compress",
    "doubly_commutant_of_mz",
    "fuglede_instance_check",
]

FIBER_SCALAR_THRESHOLD = 1e-8


@dataclass(frozen=True)
class CommutantBasis:
    """A solved commutant.

    ``basis`` holds the 0/1 indicators of the free entry classes, ordered
    by smallest column-major entry index; they are linearly independent
    with disjoint supports, but not an orthonormal set.
    """

    dim: int
    basis: tuple[np.ndarray, ...]
    structure_verdict: str  # "fiber_scalar" | "other"
    max_structure_residual: float


def _unvec(vector: np.ndarray, n: int) -> np.ndarray:
    return vector.reshape((n, n), order="F")


def _exact_commutant(ops, n: int) -> tuple[np.ndarray, ...]:
    """0/1 indicators spanning {B : [B, M] = 0 on the given columns, for every op}.

    Each op is ``(image, columns)`` with ``image`` the image array of a
    0/1 partial permutation on C^n.  Entry (i, k) of B has vec index
    i + k*n; index n*n is the zero sentinel.  The indicators are ordered
    by smallest vec index.
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
    forced = find(zero)
    return tuple(_unvec((roots == root).astype(np.complex128), n)
                 for root in sorted(set(roots.tolist()) - {forced}))


def commutant_of_partial_isometries(m: int, r: int) -> CommutantBasis:
    """Solve for B commuting with both cut-shift pieces at every grid shift.

    The constraint set ranges over the shifts j = 1..m-1, which are all
    the realizable ones on an m-cell interval.  The expected solution
    space is r^2-dimensional with every element of the fiber-scalar form;
    the verdict and worst reconstruction residual are reported, not
    assumed (the grid analogue of the continuum statement is instance
    evidence, not a proof).
    """
    if m < 2:
        raise InvalidInput("m must be >= 2: a single cell imposes no constraint")
    if r < 1:
        raise InvalidInput("fiber dimension must be >= 1")
    n = m * r
    ops = [(image, range(n)) for j in range(1, m) for image in _cut_shift_images(m, j, r)]
    basis = _exact_commutant(ops, n)
    lam = lambda_reorder(m, r)
    worst = 0.0
    for b in basis:
        c = theta_compress(b, m, r)
        rebuilt = lam @ np.kron(c, np.eye(m, dtype=np.complex128)) @ lam.conj().T
        worst = max(worst, residual_norm(b, rebuilt))
    verdict = "fiber_scalar" if worst <= FIBER_SCALAR_THRESHOLD else "other"
    return CommutantBasis(len(basis), basis, verdict, worst)


def theta_compress(b: np.ndarray, m: int, r: int) -> np.ndarray:
    """Compress a cell-space operator to the fiber along constant functions.

    The embedding sends a fiber vector to the constant cell function with
    value x/sqrt(m), so the compression is unital: B = I gives C = I_r.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (m * r, m * r):
        raise DimensionMismatch(f"operator shape {b.shape} does not match ({m * r}, {m * r})")
    flat = _from_image(np.arange(m * r) % r, r).T  # sqrt(m) * Theta, kept integer-exact
    return (flat.conj().T @ b @ flat) / m


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
    basis = _exact_commutant([(mz, range(n - r)), (mz_adj, range(r, n))], n)
    eye_deg = np.eye(d + 1, dtype=np.complex128)
    worst = 0.0
    for b in basis:
        omega = b[:r, :r]
        worst = max(worst, residual_norm(b, np.kron(eye_deg, omega)))
    verdict = "fiber_scalar" if worst <= FIBER_SCALAR_THRESHOLD else "other"
    return CommutantBasis(len(basis), basis, verdict, worst)


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
