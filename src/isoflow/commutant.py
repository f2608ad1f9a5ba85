"""Commutants of the structured operator families, by vectorized nullspaces.

Commutation constraints [B, M] = 0 are linear in B, so a commutant is the
nullspace of a stacked matrix acting on vec(B) (column-major).  Constraints
are only imposed on faithful columns of the truncated operators involved;
including boundary equations would over-constrain, because a truncation is
not isometric at the top of its window.

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
from .numlin import (DEFAULT_TOL, Tolerances, column_restricted_residual, nullspace,
                     residual_norm)
from .report import CheckEntry, Report
from .semigroups import SemigroupFamily, _pair_residual, partial_isometry_pair
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
    dim: int
    basis: tuple[np.ndarray, ...]
    structure_verdict: str  # "fiber_scalar" | "other"
    max_structure_residual: float


def _unvec(vector: np.ndarray, n: int) -> np.ndarray:
    return vector.reshape((n, n), order="F")


def _commutator_rows(m: np.ndarray, columns=None) -> np.ndarray:
    """Rows of vec(B) -> vec((B M - M B)[:, columns])."""
    n = m.shape[0]
    if columns is None:
        sel = np.eye(n, dtype=np.complex128)
    else:
        sel = np.zeros((n, len(columns)), dtype=np.complex128)
        for pos, col in enumerate(sorted(columns)):
            sel[col, pos] = 1.0
    eye = np.eye(n, dtype=np.complex128)
    return np.kron((m @ sel).T, eye) - np.kron(sel.T, m)


def commutant_of_partial_isometries(m: int, r: int, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
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
    rows = []
    for j in range(1, m):
        e0, e1 = partial_isometry_pair(m, j, r)
        rows.append(_commutator_rows(e0))
        rows.append(_commutator_rows(e1))
    solution = nullspace(np.vstack(rows), tol)
    n = m * r
    basis = tuple(_unvec(solution.basis[:, k], n) for k in range(solution.dim))
    lam = lambda_reorder(m, r)
    worst = 0.0
    for b in basis:
        c = theta_compress(b, m, r)
        rebuilt = lam @ np.kron(c, np.eye(m, dtype=np.complex128)) @ lam.conj().T
        worst = max(worst, residual_norm(b, rebuilt))
    verdict = "fiber_scalar" if worst <= FIBER_SCALAR_THRESHOLD else "other"
    return CommutantBasis(solution.dim, basis, verdict, worst)


def theta_compress(b: np.ndarray, m: int, r: int) -> np.ndarray:
    """Compress a cell-space operator to the fiber along constant functions.

    The embedding sends a fiber vector to the constant cell function with
    value x/sqrt(m), so the compression is unital: B = I gives C = I_r.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (m * r, m * r):
        raise DimensionMismatch(f"operator shape {b.shape} does not match ({m * r}, {m * r})")
    flat = np.zeros((m * r, r), dtype=np.complex128)  # sqrt(m) * Theta, kept integer-exact
    for k in range(m):
        for rho in range(r):
            flat[k * r + rho, rho] = 1.0
    return (flat.conj().T @ b @ flat) / m


def doubly_commutant_of_mz(d: int, r: int, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
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
    mz = np.zeros((n, n), dtype=np.complex128)
    for b in range(d):
        for rho in range(r):
            mz[(b + 1) * r + rho, b * r + rho] = 1.0
    forward_cols = [b * r + rho for b in range(d) for rho in range(r)]
    backward_cols = [b * r + rho for b in range(1, d + 1) for rho in range(r)]
    stacked = np.vstack([
        _commutator_rows(mz, forward_cols),
        _commutator_rows(mz.conj().T, backward_cols),
    ])
    solution = nullspace(stacked, tol)
    basis = tuple(_unvec(solution.basis[:, k], n) for k in range(solution.dim))
    eye_deg = np.eye(d + 1, dtype=np.complex128)
    worst = 0.0
    for b in basis:
        omega = b[:r, :r]
        worst = max(worst, residual_norm(b, np.kron(eye_deg, omega)))
    verdict = "fiber_scalar" if worst <= FIBER_SCALAR_THRESHOLD else "other"
    return CommutantBasis(solution.dim, basis, verdict, worst)


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
            full_cells = [k for k in range(cells)
                          if all(k * fiber + rho in a.faithful for rho in range(fiber))]
            if not full_cells:
                entries.append(CheckEntry(f"t={time}:fiber_form", 0.0, (0,), False,
                                          "no faithful fiber block"))
                continue
            b_t = _fiber_block_average(a.matrix, fiber, full_cells)
            rebuilt = np.kron(np.eye(cells, dtype=np.complex128), b_t)
            cols = sorted(a.faithful)
            structure = column_restricted_residual(a.matrix, rebuilt, cols)
            entries.append(CheckEntry(f"t={time}:fiber_form", structure, (len(full_cells),),
                                      structure <= 10 * tol.resid_abs))
    return Report(scenario="fuglede_instance", entries=entries)
