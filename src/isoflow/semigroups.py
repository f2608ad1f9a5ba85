"""Operator families carried as finite matrices with exactness windows.

A truncated operator is trusted only where it agrees with the
infinite-dimensional operator it represents.  ``WindowedMap`` couples the
matrix with that set of trusted domain indices (``faithful``) and the
corresponding set for the adjoint (``adj_faithful``).  Composition
shrinks windows by the support rule

    faithful(A o B) = { i in faithful(B) : supp(B e_i) subset faithful(A) },

and every identity check in this package quantifies only over faithful
indices.  Columns whose true image leaves the represented window are
stored as exact zeros and marked unfaithful; columns that the true
operator genuinely annihilates stay faithful with their exact zeros.

All constructors below compute the image array of a 0/1 partial
permutation by index arithmetic over the layouts of ``spaces`` and
materialize it with ``numlin._from_image``, so the algebraic identities
between them hold with residual exactly zero, not merely small.  Grid
times are restricted to multiples of 1/m and rejected otherwise; nothing
is interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InvalidInput, InvalidShift, WindowTooSmall
from .numlin import DEFAULT_TOL, Tolerances, _from_image, as_matrix, column_restricted_residual
from .report import CheckEntry, Report
from .spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D, TorusGrid2D

__all__ = [
    "WindowedMap",
    "SemigroupFamily",
    "PairOfSemigroups",
    "grid_steps",
    "halfline_shift",
    "halfline_shift_family",
    "partial_isometry_pair",
    "phi_multiplier",
    "phi_family",
    "bishift_pair",
    "bishift_families",
    "modified_bishift_pair",
    "modified_bishift_families",
    "torus_translation",
    "circulant_unitary",
    "circulant_family",
    "direct_sum",
    "tensor_with_identity",
    "check_semigroup_law",
]


def grid_steps(t, cells_per_unit: int) -> int:
    """Convert a grid time t = j/m into the integer step count j.

    Accepts ints, Fractions, strings like "3/4", and binary-exact floats.
    Times off the 1/m grid raise InvalidInput rather than interpolating.
    """
    try:
        frac = Fraction(t)
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"cannot read grid time {t!r}") from exc
    steps = frac * cells_per_unit
    if steps.denominator != 1 or steps < 0:
        raise InvalidInput(f"time {t} is not a nonnegative multiple of 1/{cells_per_unit}")
    return int(steps)


def _escapes(matrix: np.ndarray, window) -> np.ndarray:
    """Mask of the columns with a nonzero entry in some row outside ``window``.

    This is the support rule: column i of B stays faithful under A o B only
    when supp(B e_i) lies inside the window of A.
    """
    outside = np.ones(matrix.shape[0], dtype=bool)
    outside[list(window)] = False
    return matrix[outside].any(axis=0)


def _pair_residual(x: "WindowedMap", y: "WindowedMap") -> tuple[float, int] | None:
    """Residual of x - y on the columns faithful for both, with their count.

    None when no column is faithful for both.
    """
    columns = x.faithful & y.faithful
    if not columns:
        return None
    return column_restricted_residual(x.matrix, y.matrix, columns), len(columns)


@dataclass(frozen=True, eq=False)
class WindowedMap:
    """A finite matrix plus the domain indices on which it is exact."""

    matrix: np.ndarray
    faithful: frozenset[int]
    adj_faithful: frozenset[int]
    domain: str = ""
    codomain: str = ""

    def __post_init__(self) -> None:
        mat = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "faithful", frozenset(int(i) for i in self.faithful))
        object.__setattr__(self, "adj_faithful", frozenset(int(i) for i in self.adj_faithful))
        rows, cols = mat.shape
        if any(not 0 <= i < cols for i in self.faithful):
            raise InvalidInput("faithful index outside the domain")
        if any(not 0 <= i < rows for i in self.adj_faithful):
            raise InvalidInput("adjoint-faithful index outside the codomain")

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int, space: str = "") -> "WindowedMap":
        return cls(np.eye(n, dtype=np.complex128), frozenset(range(n)), frozenset(range(n)), space, space)

    @classmethod
    def full(cls, matrix, domain: str = "", codomain: str = "") -> "WindowedMap":
        """Wrap a matrix that represents its operator exactly everywhere."""
        mat = as_matrix(matrix)
        return cls(mat, frozenset(range(mat.shape[1])), frozenset(range(mat.shape[0])), domain, codomain)

    def compose(self, other: "WindowedMap") -> "WindowedMap":
        """self o other, with both windows shrunk by the support rule."""
        if other.codomain_dim != self.domain_dim:
            raise DimensionMismatch(
                f"cannot compose {self.matrix.shape} after {other.matrix.shape}")
        matrix = self.matrix @ other.matrix
        kept = np.flatnonzero(~_escapes(other.matrix, self.faithful)).tolist()
        adj_kept = np.flatnonzero(~_escapes(self.matrix.T, other.adj_faithful)).tolist()
        return WindowedMap(matrix, other.faithful.intersection(kept),
                           self.adj_faithful.intersection(adj_kept), other.domain, self.codomain)

    def __matmul__(self, other: "WindowedMap") -> "WindowedMap":
        return self.compose(other)

    def adjoint(self) -> "WindowedMap":
        return WindowedMap(self.matrix.conj().T, self.adj_faithful, self.faithful,
                           self.codomain, self.domain)


class SemigroupFamily:
    """Discrete one-parameter family generated by a single step map.

    ``element(j)`` is the j-fold composition of the generator at time
    j / cells_per_unit; element(0) is the identity with full window.
    Composed powers are memoized, so repeated requests return the same map.
    """

    def __init__(self, generator: WindowedMap, label: str = "", cells_per_unit: int = 1):
        if generator.domain_dim != generator.codomain_dim:
            raise DimensionMismatch("semigroup generator must be square")
        if cells_per_unit < 1:
            raise InvalidInput("cells_per_unit must be >= 1")
        self._generator = generator
        self._label = label
        self._m = int(cells_per_unit)
        self._cache: dict[int, WindowedMap] = {
            0: WindowedMap.identity(generator.domain_dim, generator.domain)}

    @property
    def generator(self) -> WindowedMap:
        return self._generator

    @property
    def label(self) -> str:
        return self._label

    @property
    def cells_per_unit(self) -> int:
        return self._m

    @property
    def dim(self) -> int:
        return self._generator.domain_dim

    def element(self, steps: int) -> WindowedMap:
        if int(steps) != steps or steps < 0:
            raise InvalidInput(f"step count must be a nonnegative integer, got {steps!r}")
        steps = int(steps)
        top = max(self._cache)
        while top < steps:
            self._cache[top + 1] = self._generator.compose(self._cache[top])
            top += 1
        return self._cache[steps]

    def at_time(self, t) -> WindowedMap:
        return self.element(grid_steps(t, self._m))


@dataclass(frozen=True)
class PairOfSemigroups:
    """Two families on a common space and a common time grid."""

    first: SemigroupFamily
    second: SemigroupFamily

    def __post_init__(self) -> None:
        if self.first.dim != self.second.dim:
            raise DimensionMismatch("the two families act on different spaces")
        if self.first.cells_per_unit != self.second.cells_per_unit:
            raise InvalidInput("the two families use different time grids")

    @property
    def dim(self) -> int:
        return self.first.dim

    @property
    def cells_per_unit(self) -> int:
        return self.first.cells_per_unit


# ---------------------------------------------------------------------------
# constructors


def _forward_image(dim: int, offset: int) -> np.ndarray:
    """Image of coordinate i -> i + offset, -1 where that leaves [0, dim)."""
    target = np.arange(dim) + offset
    return np.where(target < dim, target, -1)


def _live(image: np.ndarray) -> frozenset[int]:
    """The columns an image array keeps."""
    return frozenset(np.flatnonzero(image >= 0).tolist())


def halfline_shift(grid: CellGrid1D, t) -> WindowedMap:
    """Forward translation by t on the half-line grid.

    Cell k maps to cell k+j (fiber preserved) while the image stays in
    the window; the remaining columns are zero and unfaithful.  The
    transposed matrix is the exact backward translation everywhere, so
    the adjoint window is the whole grid.
    """
    j = grid_steps(t, grid.m)
    if j > grid.cells:
        raise WindowTooSmall(f"shift by {j} cells exceeds the {grid.cells}-cell window")
    image = _forward_image(grid.dim, j * grid.r)
    label = f"halfline(m={grid.m},T={grid.T},r={grid.r})"
    return WindowedMap(_from_image(image), _live(image), frozenset(range(grid.dim)), label, label)


def halfline_shift_family(grid: CellGrid1D) -> SemigroupFamily:
    gen = halfline_shift(grid, Fraction(1, grid.m))
    return SemigroupFamily(gen, f"halfline_shift[m={grid.m},T={grid.T},r={grid.r}]", grid.m)


def _cut_shift_images(m: int, j: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Image arrays of the cut-shift pair E0, E1 (see ``partial_isometry_pair``)."""
    if m < 1 or r < 1:
        raise InvalidInput("m and r must be >= 1")
    if not 0 <= j < m:
        raise InvalidShift(f"shift {j} outside [0, {m})")
    e0 = _forward_image(m * r, j * r)
    e1 = np.where(e0 < 0, np.arange(m * r) + (j - m) * r, -1)  # the top j cells wrap
    return e0, e1


def partial_isometry_pair(m: int, j: int, r: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The cut-shift pair on the m-cell interval with fiber r.

    E0 moves cell k to cell k+j and annihilates the top j cells; E1 wraps
    the top j cells around to the bottom.  Both are genuine partial
    isometries (the zeros are true operator behavior, not truncation), and
    E0 E0* + E1 E1* = E0* E0 + E1* E1 = I exactly.
    """
    e0, e1 = _cut_shift_images(m, j, r)
    return _from_image(e0), _from_image(e1)


def phi_multiplier(d: int, m: int, r: int, t) -> WindowedMap:
    """Multiplication by the degree-shifting cut-shift polynomial at time t.

    With t = n + s (n integer, 0 <= s < 1), degree block b receives the
    E0 piece from block b-n and the E1 piece from block b-n-1.  Both pieces
    move coordinate i to i + j*r at step j, E1 exactly where E0 overflows a
    block, and the stored column is zero where that passes the top degree.
    A block column is faithful when every piece the true multiplier
    produces fits under the top degree d.
    """
    space = HardyCoeffSpace(d, m, r)
    j = grid_steps(t, m)
    n, jj = divmod(j, m)
    if n > d:
        raise WindowTooSmall(f"integer part {n} of the time exceeds the top degree {d}")
    top = d - n if jj == 0 else d - n - 1
    label = f"coeff(d={d},m={m},r={r})"
    return WindowedMap(_from_image(_forward_image(space.dim, j * r)),
                       frozenset(range((top + 1) * space.block)),
                       frozenset(range(space.dim)), label, label)


def phi_family(d: int, m: int, r: int = 1) -> SemigroupFamily:
    gen = phi_multiplier(d, m, r, Fraction(1, m))
    return SemigroupFamily(gen, f"phi_multiplier[d={d},m={m},r={r}]", m)


def bishift_pair(grid: QuadrantGrid2D, t) -> tuple[WindowedMap, WindowedMap]:
    """The two coordinate shifts by t on the quadrant grid."""
    j = grid_steps(t, grid.m)
    if j > grid.side:
        raise WindowTooSmall(f"shift by {j} cells exceeds the {grid.side}-cell axis")
    idx = np.arange(grid.dim)
    _, k2, _ = np.unravel_index(idx, (grid.side, grid.side, grid.r))
    images = (_forward_image(grid.dim, j * grid.side * grid.r),
              np.where(k2 + j < grid.side, idx + j * grid.r, -1))
    label = f"quadrant(m={grid.m},T={grid.T},r={grid.r})"
    everything = frozenset(range(grid.dim))
    return tuple(WindowedMap(_from_image(image), _live(image), everything, label, label)
                 for image in images)


def bishift_families(grid: QuadrantGrid2D) -> PairOfSemigroups:
    g1, g2 = bishift_pair(grid, Fraction(1, grid.m))
    tag = f"m={grid.m},T={grid.T},r={grid.r}"
    return PairOfSemigroups(SemigroupFamily(g1, f"bishift1[{tag}]", grid.m),
                            SemigroupFamily(g2, f"bishift2[{tag}]", grid.m))


def modified_bishift_pair(region: LRegionIndex, t) -> tuple[WindowedMap, WindowedMap]:
    """The compressed two-sided translations by t on the L-shaped region.

    The first map sends physical cell (c1, c2) to (c1 - j, c2): values of
    the translated function at a point come from t further to the right.
    Moving away from the removed quadrant keeps the L-region invariant,
    so the map is isometric wherever its image stays inside the window
    [-T, T); columns that would wrap are zeroed and left unfaithful.  The
    adjoint direction genuinely annihilates the cells it pushes into the
    removed quadrant, and those zero columns of the transpose are exact.
    """
    j = grid_steps(t, region.m)
    half = region.half
    if j > 2 * half:
        raise WindowTooSmall(f"shift by {j} cells exceeds the {2 * half}-cell axis")
    cells = np.array(region.l_cells())
    n, r = region.parent.n, region.r
    k1, k2, _ = np.unravel_index(cells, (n, n, r))
    label = f"lregion(m={region.m},T={region.T},r={region.r})"

    def build(k: np.ndarray, stride: int) -> WindowedMap:
        # a leftward/downward image stays in L, so its position is found by search
        image = np.where(k >= j, np.searchsorted(cells, cells - j * stride), -1)
        adj_faithful = frozenset(np.flatnonzero(k + j < n).tolist())
        return WindowedMap(_from_image(image), _live(image), adj_faithful, label, label)

    return build(k1, n * r), build(k2, r)


def modified_bishift_families(region: LRegionIndex) -> PairOfSemigroups:
    g1, g2 = modified_bishift_pair(region, Fraction(1, region.m))
    tag = f"m={region.m},T={region.T},r={region.r}"
    return PairOfSemigroups(SemigroupFamily(g1, f"modified1[{tag}]", region.m),
                            SemigroupFamily(g2, f"modified2[{tag}]", region.m))


def torus_translation(grid: TorusGrid2D, a: int, b: int) -> np.ndarray:
    """Exactly unitary cyclic translation by (a, b) cells."""
    shape = (grid.n, grid.n, grid.r)
    k1, k2, rho = np.unravel_index(np.arange(grid.dim), shape)
    return _from_image(np.ravel_multi_index(((k1 + a) % grid.n, (k2 + b) % grid.n, rho), shape))


def circulant_unitary(n: int, k: int) -> np.ndarray:
    """Cyclic shift by k on C^n; the powers form a discrete unitary group."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    return _from_image((np.arange(n) + k) % n)


def circulant_family(n: int, k: int = 1, cells_per_unit: int = 1) -> SemigroupFamily:
    gen = WindowedMap.full(circulant_unitary(n, k), f"cycle({n})", f"cycle({n})")
    return SemigroupFamily(gen, f"circulant[n={n},k={k}]", cells_per_unit)


def direct_sum(*parts: WindowedMap) -> WindowedMap:
    """Block-diagonal direct sum; windows are the shifted unions."""
    if not parts:
        raise InvalidInput("direct_sum needs at least one part")
    rows = sum(p.codomain_dim for p in parts)
    cols = sum(p.domain_dim for p in parts)
    mat = np.zeros((rows, cols), dtype=np.complex128)
    faithful: set[int] = set()
    adj_faithful: set[int] = set()
    row0 = col0 = 0
    for part in parts:
        mat[row0:row0 + part.codomain_dim, col0:col0 + part.domain_dim] = part.matrix
        faithful.update(col0 + i for i in part.faithful)
        adj_faithful.update(row0 + i for i in part.adj_faithful)
        row0 += part.codomain_dim
        col0 += part.domain_dim
    domain = "(+)".join(p.domain for p in parts)
    codomain = "(+)".join(p.codomain for p in parts)
    return WindowedMap(mat, frozenset(faithful), frozenset(adj_faithful), domain, codomain)


def tensor_with_identity(part: WindowedMap, fiber: int, side: str = "right") -> WindowedMap:
    """Kronecker product with an identity on the declared fiber side.

    side="right" gives part (x) I_fiber (fiber is the inner index);
    side="left" gives I_fiber (x) part.
    """
    if fiber < 1:
        raise InvalidInput("fiber dimension must be >= 1")
    eye = np.eye(fiber, dtype=np.complex128)
    if side == "right":
        mat = np.kron(part.matrix, eye)
        faithful = frozenset(i * fiber + rho for i in part.faithful for rho in range(fiber))
        adj = frozenset(i * fiber + rho for i in part.adj_faithful for rho in range(fiber))
        domain = f"{part.domain}(x)C{fiber}"
        codomain = f"{part.codomain}(x)C{fiber}"
    elif side == "left":
        mat = np.kron(eye, part.matrix)
        n_dom, n_cod = part.domain_dim, part.codomain_dim
        faithful = frozenset(kappa * n_dom + i for kappa in range(fiber) for i in part.faithful)
        adj = frozenset(kappa * n_cod + i for kappa in range(fiber) for i in part.adj_faithful)
        domain = f"C{fiber}(x){part.domain}"
        codomain = f"C{fiber}(x){part.codomain}"
    else:
        raise InvalidInput(f"side must be 'left' or 'right', got {side!r}")
    return WindowedMap(mat, faithful, adj, domain, codomain)


def check_semigroup_law(family: SemigroupFamily, samples,
                        tol: Tolerances = DEFAULT_TOL) -> Report:
    """Verify element(s+t) = element(s) o element(t) on composed windows.

    Sample pairs whose composed window is empty are skipped; if no pair
    leaves anything checkable the window is too small for the request.
    """
    steps = sorted({grid_steps(t, family.cells_per_unit) for t in samples})
    if not steps:
        raise InvalidInput("no sample times given")
    entries = []
    usable = 0
    for a_pos, s in enumerate(steps):
        for t in steps[a_pos:]:
            got = _pair_residual(family.element(s + t),
                                 family.element(s).compose(family.element(t)))
            check_id = f"law_{Fraction(s, family.cells_per_unit)}+{Fraction(t, family.cells_per_unit)}"
            if got is None:
                entries.append(CheckEntry(check_id, 0.0, (0,), True, "empty window, skipped"))
                continue
            usable += 1
            residual, count = got
            entries.append(CheckEntry(check_id, residual, (count,), residual <= tol.resid_abs))
    if not usable:
        raise WindowTooSmall("every sample pair exhausts the window")
    return Report(scenario=f"semigroup_law[{family.label}]", entries=entries)
