"""Operator families carried as 0/1 partial permutations with exactness windows.

A truncated operator is trusted only where it agrees with the
infinite-dimensional operator it represents.  ``WindowedMap`` couples the
operator with that set of trusted domain indices and the corresponding
set for the adjoint, each held as a read-only boolean mask over the
columns (``faithful_mask``) or the rows (``adj_faithful_mask``).
Composition shrinks windows by the support rule

    faithful(A o B) = { i in faithful(B) : supp(B e_i) subset faithful(A) },

and every identity check in this package quantifies only over faithful
indices.  Columns whose true image leaves the represented window are
stored as exact zeros and marked unfaithful; columns that the true
operator genuinely annihilates stay faithful with their exact zeros.

Every operator here is a 0/1 partial permutation, held as its image
array (the row of each column's single 1, -1 for a zero column), which
the constructors below compute by index arithmetic over the layouts of
``spaces``.  Every operator of the paper acts on one space, so a
``WindowedMap`` keeps only that image and acts on C^n, n its length.
``from_image`` refuses an image in which two columns share a row, so
every map is injective on its live columns; no dense matrix is built.
Composition is an index gather, the adjoint is the inverse image, and
two maps are compared image against image, so the algebraic identities
between them hold with residual exactly zero, not merely small.  Where
two images differ, ``_image_residual`` gives the norm of their
difference in closed form.

A time on the grid t = j/m is held as its integer step count j.  Only
``catalog`` reads times: it resolves a config's samples to step counts
and rejects a time off the grid, never interpolating.  The constructors
(``halfline_shift``, ``phi_multiplier``, ``bishift_pair`` and
``modified_bishift_pair``), ``SemigroupFamily.element`` and the checks
take step counts, each read by ``numlin._read_count``, which refuses a
negative or non-integer one, and a check refuses an empty list of them
(``numlin._read_steps``); the families are built from step 1.  No step
constructor refuses a count that ``_read_count`` admits: past its window
it gives the zero map of the composed power, ``element(j)``.  A family
is its generator and its powers, and holds no grid: the grid m is an
argument of the check that writes a time, ``check_semigroup_law``, read
by the same rule as the sizes, and ``report.format_time`` writes a step
count back as the time j/m of a check id.

Compression, the isometry test and the skipped-window entry are written
once, here: ``_compress`` restricts a map to a subspace,
``_isometry_defect`` is the norm of C* C - I for the 0/1 matrix C of an
image, and ``_window_entry`` turns one windowed comparison into a
``CheckEntry``.  Conjugation has no helper of its own: Z A Z* is
written once, as two compositions compared by ``_pair_residual`` in
``decompose.verify_joint_equivalence``, which
``duality.modified_bishift_model_check`` calls.  The image half of the support rule is
``_gather``, which ``compose`` uses; checks that only compare a product
with another map read its image and faithful mask from there and compare
them by ``_held_residual``, building no map.  Two such checks close the
module: the semigroup law of a family, which returns one ``CheckEntry``
per pair of sampled steps, and the commutation class of a pair
(``classify_pair``, which ``decompose`` re-exports).  A pair keeps
its class at the step time as ``PairOfSemigroups.step_verdict``, the one
precondition of the fourfold split and of the product family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch, InvalidInput, InvalidShift, WindowTooSmall
from .numlin import (Subspace, _check_cells, _components, _distinct, _index_array, _mask,
                     _positions, _read_count, _read_steps)
from .report import CheckEntry, format_time
from .spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D

__all__ = [
    "WindowedMap",
    "SemigroupFamily",
    "PairOfSemigroups",
    "halfline_shift",
    "halfline_shift_family",
    "phi_multiplier",
    "phi_family",
    "bishift_pair",
    "bishift_families",
    "modified_bishift_pair",
    "modified_bishift_families",
    "circulant_family",
    "direct_sum",
    "tensor_with_identity",
    "check_semigroup_law",
]


def _window(window, n: int, outside: str) -> np.ndarray:
    """Read-only boolean mask of length n for ``window``.

    ``window`` is a boolean array of length n, an integer index array, or
    any iterable of integer indices (a set, a range, a list).  A float
    entry, an index array of another dtype (empty or not, as the image),
    and an index outside [0, n) raise InvalidInput; the last with the
    message ``outside``.  A boolean array is kept as a read-only
    view, not copied, as the image is.
    """
    window = _index_array(window)
    if window.dtype == bool:
        if window.shape != (n,):
            raise InvalidInput(f"window mask of shape {window.shape} for {n} indices")
        mask = window.view()
    else:
        if window.ndim != 1 or window.dtype.kind not in "iu":
            raise InvalidInput("a window must be a boolean mask or 1-D integer indices")
        if window.size and not 0 <= np.minimum.reduce(window) <= np.maximum.reduce(window) < n:
            raise InvalidInput(outside)
        mask = _mask(window, n)
    mask.flags.writeable = False
    return mask


def _check_image(image: np.ndarray, rows: int) -> None:
    """Raise InvalidInput unless every entry of ``image`` lies in [-1, rows)."""
    if image.size and not (-1 <= np.minimum.reduce(image, axis=None)
                           <= np.maximum.reduce(image, axis=None) < rows):
        raise InvalidInput("image entry outside [-1, rows)")


def _pair_residual(x: "WindowedMap", y: "WindowedMap") -> tuple[float, int] | None:
    """Residual of x - y on the columns faithful for both, with their count.

    None when no column is faithful for both; maps of different shapes
    raise DimensionMismatch.  The images are compared by ``_held_residual``:
    exactly 0.0 when they agree on those columns.
    """
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    return _held_residual((x.image, x.faithful_mask), (y.image, y.faithful_mask))


def _held_residual(got: tuple[np.ndarray, np.ndarray],
                   want: tuple[np.ndarray, np.ndarray]) -> tuple[float, int] | None:
    """Residual of two maps of one shape given as (image, faithful mask), with the count.

    The images are compared where both masks hold; only the columns that
    differ there reach ``_image_residual``.
    """
    common = got[1] & want[1]
    count = int(np.count_nonzero(common))
    if not count:
        return None
    differ = got[0] != want[0]
    differ &= common
    if not np.count_nonzero(differ):
        return 0.0, count
    return _image_residual(got[0][differ], want[0][differ]), count


def _window_entry(check_id: str, got: tuple[float, int] | None) -> CheckEntry:
    """The entry of one windowed comparison ``got``, as ``_held_residual`` gives it.

    It passes at residual exactly 0.  A comparison with no common faithful
    column (None) is skipped: it passes with dims 0, and it alone carries a
    note, so a check whose every entry has one raises WindowTooSmall.
    """
    if got is None:
        return CheckEntry(check_id, 0.0, (0,), True, "empty window, skipped")
    residual, count = got
    return CheckEntry(check_id, residual, (count,), residual == 0.0)


_EXACT_NORMS = {3: 1.0, 4: float(np.sqrt(2.0)), 6: float(np.sqrt(3.0))}  # 2 cos(pi / 2N) by 2N


def _image_residual(got: np.ndarray, want: np.ndarray) -> float:
    """Spectral norm of the difference D of two injective 0/1 images over the same columns.

    Exactly 0.0 when they agree.  Otherwise D D* is a graph Laplacian on
    the rows that the differing columns touch: a column live in both
    images is an edge got(j)-want(j), and a column live in one only adds a
    half-edge at its row.  Each image is injective, so every row has
    degree at most 2, and each component (found by ``_components``) is a
    cycle of k rows or a path of k rows with h of 0, 1 or 2 half-edge
    ends.  Its largest eigenvalue is 2 + 2 cos(pi / N), with N = k for an
    odd cycle and for a path N = k + h/2, and 4 for an even cycle (Brouwer
    & Haemers, Spectra of Graphs, 2012, sec. 1.4).  The norm is
    2 cos(pi / 2N) at the largest N, and exactly sqrt of the eigenvalue
    where that is an integer: 1 at N = 3/2, 2 at N = 2, 3 at N = 3, 4 for
    an even cycle.
    """
    differ = got != want
    if not np.count_nonzero(differ):
        return 0.0
    got, want = got[differ], want[differ]
    rows = np.concatenate([got, want])
    rows = _distinct(rows[rows >= 0])  # the rows that some differing column touches
    got, want = (np.where(image >= 0, rows.searchsorted(image), -1) for image in (got, want))
    edge = (got >= 0) & (want >= 0)
    root, _ = _components([(got[edge], want[edge])], rows.size)
    half = np.concatenate([got[~edge], want[~edge]])
    k = np.bincount(root, minlength=rows.size)  # rows, edges and half-edges per component root
    edges = np.bincount(root[got[edge]], minlength=rows.size)
    halves = np.bincount(root[half[half >= 0]], minlength=rows.size)
    if np.count_nonzero((edges == k) & (k % 2 == 0) & (k > 0)):  # an even cycle
        return 2.0
    # 2N; a cycle has no half-edge, so N = k there too
    twice_n = int(np.maximum.reduce(2 * k + halves))
    return _EXACT_NORMS.get(twice_n) or float(2 * np.cos(np.pi / twice_n))


def _compress(u: "WindowedMap", sub: Subspace) -> "WindowedMap":
    """Compression of an ambient map to a subspace, with derived windows.

    For a coordinate subspace the compressed column at a cell is trusted
    exactly when the ambient column is trusted and its image stays
    inside the subspace (an escaping image means wrap pollution).  The
    adjoint direction is a co-isometry whose kills are true compression
    behavior: its window only excludes cells where the ambient adjoint
    itself is untrusted.  The compressed image is the ambient image
    gathered through the cell positions.
    """
    cells = sub.cells
    rows = u.image[cells]
    image = _positions(cells, u.codomain_dim)[rows]
    faithful = u.faithful_mask[cells] & ((rows < 0) | (image >= 0))
    return WindowedMap._derived(image, faithful, u.adj_faithful_mask[cells])


def _isometry_defect(image: np.ndarray) -> float:
    """Spectral norm of C* C - I for the 0/1 matrix C with this injective image.

    Unit columns on distinct rows are orthonormal, so C* C is the projector
    onto the live columns: the defect is 0.0 when every column is live and
    1.0 otherwise.
    """
    return 1.0 if np.count_nonzero(image < 0) else 0.0


def _gather(outer: "WindowedMap", inner: "WindowedMap") -> tuple[np.ndarray, np.ndarray]:
    """Image and faithful mask of outer o inner, two maps that compose.

    The image half of the support rule: column i of inner is the unit
    vector at row b[i] (or zero when b[i] = -1), so it goes to a[b[i]], and
    it stays faithful when it is faithful for inner and b[i] is faithful
    for outer or absent.  Both arrays are fresh.
    """
    a, inside, b = outer.image, outer.faithful_mask, inner.image
    dead = b < 0
    image = a[b]
    image[dead] = -1
    kept = inside[b]
    kept |= dead
    kept &= inner.faithful_mask
    return image, kept


class WindowedMap:
    """A 0/1 partial permutation on C^n plus the domain indices on which it is exact.

    The operator is held as its ``image``: an ``int64`` array of length n
    with the row of each column's single 1, or -1 for a zero column.  No
    two columns share a row: ``from_image`` refuses such an image, so the
    map is a partial isometry with a partial permutation for its adjoint.

    The windows are read-only boolean masks of length n: ``faithful_mask``
    over the columns and ``adj_faithful_mask`` over the rows.  The
    constructors take a window as such a mask, as an integer index array,
    or as any iterable of integer indices.  ``shape`` is (n, n), and
    ``domain_dim`` and ``codomain_dim`` both read n; they and the frozenset
    ``faithful`` stay because the tracer of ``perfbench/tracing.py`` reads
    both dims and ``len(faithful)`` on every traced ``compose``.  No code
    path of this package reads ``faithful``.

    ``compose`` is an index gather with windows by mask arithmetic;
    ``adjoint`` inverts the image and swaps the two masks.  Their results,
    and those of ``_compress`` and ``tensor_with_identity``, come from
    ``_derived`` and skip the checks of ``from_image``: a gather of
    injective images is injective, and so are an inverse image and copies
    of an image on disjoint fibers.
    """

    @classmethod
    def from_image(cls, image, faithful, adj_faithful) -> "WindowedMap":
        """The 0/1 partial permutation on C^len(image) with a 1 at (image[j], j) for image[j] >= 0.

        An entry outside [-1, n) and two live columns on one row raise InvalidInput.
        """
        made = cls.__new__(cls)
        made.image = image = np.asarray(image)
        made.shape = (image.size, image.size)
        made.faithful_mask, made.adj_faithful_mask = faithful, adj_faithful
        made.__post_init__()
        return made

    @classmethod
    def _derived(cls, image: np.ndarray, faithful: np.ndarray,
                 adj_faithful: np.ndarray) -> "WindowedMap":
        """A map on C^n, n = len(image), computed from checked maps, built without checks.

        ``image`` is a fresh, injective ``int64`` array and both masks have
        length n; a gather from a checked image stays in [-1, n).  All
        three are marked read-only in place.  ``__post_init__`` does not run.
        """
        made = cls.__new__(cls)
        for array in (image, faithful, adj_faithful):
            array.flags.writeable = False
        made.image, made.shape = image, (image.size, image.size)
        made.faithful_mask, made.adj_faithful_mask = faithful, adj_faithful
        return made

    def __post_init__(self) -> None:
        """Check the image, injective too, and turn both windows into read-only masks."""
        image = self.image
        if image.ndim != 1 or image.dtype.kind not in "iu":
            raise InvalidInput("image must be a 1-D integer array")
        image = image.astype(np.int64, copy=False).view()
        image.flags.writeable = False
        n = image.size
        _check_image(image, n)
        hit = np.zeros(n + 1, dtype=bool)
        hit[image] = True  # a zero column (-1) lands in the extra last slot
        if np.count_nonzero(hit[:-1]) != n - np.count_nonzero(image < 0):
            raise InvalidInput("two columns share a row: not a partial permutation")
        self.image = image
        self.faithful_mask = _window(self.faithful_mask, n, "faithful index outside the domain")
        self.adj_faithful_mask = _window(self.adj_faithful_mask, n,
                                         "adjoint-faithful index outside the codomain")

    @cached_property
    def faithful(self) -> frozenset[int]:
        """``faithful_mask`` as a frozenset, built on first read; the tracer's alone."""
        return frozenset(self.faithful_mask.nonzero()[0].tolist())

    @property
    def domain_dim(self) -> int:
        """n, as ``codomain_dim``; the tracer reads both."""
        return self.shape[1]

    @property
    def codomain_dim(self) -> int:
        """n, as ``domain_dim``; the tracer reads both."""
        return self.shape[0]

    @classmethod
    def identity(cls, n: int) -> "WindowedMap":
        n = _read_count(n, "n", 0)
        return cls.from_image(np.arange(n), np.ones(n, dtype=bool), np.ones(n, dtype=bool))

    def compose(self, other: "WindowedMap") -> "WindowedMap":
        """self o other, with both windows shrunk by the support rule.

        The image and faithful mask are those of ``_gather``, which the
        image-only checks also read without building the map, and the
        adjoint window comes from one scatter of the rows outside other's
        adjoint window.
        """
        if other.codomain_dim != self.domain_dim:
            raise DimensionMismatch(f"cannot compose {self.shape} after {other.shape}")
        image, kept = _gather(self, other)
        # row i of self is supported on the columns j with a[j] = i
        hit = np.zeros(self.codomain_dim + 1, dtype=bool)
        hit[self.image[~other.adj_faithful_mask]] = True
        adj_kept = self.adj_faithful_mask & ~hit[:-1]
        return WindowedMap._derived(image, kept, adj_kept)

    def adjoint(self) -> "WindowedMap":
        """The inverse image, with the two windows swapped."""
        live = (self.image >= 0).nonzero()[0]
        inverse = np.full(self.codomain_dim, -1, dtype=np.int64)
        inverse[self.image[live]] = live
        return WindowedMap._derived(inverse, self.adj_faithful_mask, self.faithful_mask)


class SemigroupFamily:
    """Discrete one-parameter family generated by a single step map.

    ``element(j)`` is the j-fold composition of the generator; element(0)
    is the identity with full window, built the first time it is asked
    for.  A power is built by binary powering:
    the squares V, V^2, V^4, ... are kept in a list, and V^j composes the
    squares of the set bits of j, so the first request for step j costs
    O(log j) compositions.  Composition of windows is associative, so this
    gives the same image and windows as composing one step at a time.
    Only the squares and the step counts actually requested are kept, the
    latter in a dict, so repeated requests return the same map.  The step
    is read by ``numlin._read_count``, the rule of every check, so a float
    or a ``Fraction`` raises InvalidInput even when it is whole.
    """

    def __init__(self, generator: WindowedMap):
        self._generator = generator
        self._squares = [generator]  # V^(2^i) at position i
        self._powers: dict[int, WindowedMap] = {}

    @property
    def generator(self) -> WindowedMap:
        return self._generator

    @property
    def dim(self) -> int:
        return self._generator.domain_dim

    def element(self, steps: int) -> WindowedMap:
        steps = _read_count(steps, "step count", 0)
        power = self._powers.get(steps)
        if power is None:
            power = self._powers[steps] = self._power(steps)
        return power

    def _power(self, steps: int) -> WindowedMap:
        """V^steps from the squares of the set bits of ``steps``, lowest bit first."""
        if not steps:
            return WindowedMap.identity(self.dim)
        squares = self._squares
        while len(squares) < steps.bit_length():
            squares.append(squares[-1].compose(squares[-1]))
        power = None
        for i in range(steps.bit_length()):
            if steps >> i & 1:
                power = squares[i] if power is None else squares[i].compose(power)
        return power


@dataclass(frozen=True)
class PairOfSemigroups:
    """Two families on a common space."""

    first: SemigroupFamily
    second: SemigroupFamily

    def __post_init__(self) -> None:
        if self.first.dim != self.second.dim:
            raise DimensionMismatch("the two families act on different spaces")

    @property
    def dim(self) -> int:
        return self.first.dim

    @cached_property
    def step_verdict(self) -> "CommutationReport":
        """``classify_pair`` at step 1, the generators, computed on first read.

        The splits that need the pair to commute, or to doubly commute,
        check it here, so each pair object is classified at its step once.
        """
        return classify_pair(self, [1])


# ---------------------------------------------------------------------------
# constructors


def _forward_image(dim: int, offset) -> np.ndarray:
    """Image of coordinate i -> i + offset, -1 where that leaves [0, dim).

    An array of offsets gives one row per offset.
    """
    target = np.arange(dim) + np.asarray(offset)[..., None]
    target[(target < 0) | (target >= dim)] = -1
    return target


def _halfline_rows(grid: CellGrid1D, steps: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Images and faithful masks of the half-line shifts by each step count.

    Row s of both (len(steps), dim) arrays belongs to steps[s].  A step is
    clamped to mT, the first that moves every cell out (which keeps a step
    past int64 out of the cast): past the window a row is zero with an
    empty faithful window, and at every step both windows are V^j's.
    """
    images = _forward_image(grid.dim, np.minimum(steps, grid.cells).astype(np.int64) * grid.r)
    return images, images >= 0


def halfline_shift(grid: CellGrid1D, steps: int) -> WindowedMap:
    """Forward translation by j = ``steps`` cells, the time j/m, on the half-line grid.

    Cell k maps to cell k+j (fiber preserved) while the image stays in
    the window; the remaining columns are zero and unfaithful, all of them
    from j = mT on, as in the composed power.  The transposed matrix is the
    exact backward translation everywhere, so the adjoint window is the
    whole grid.  The map is the one row of ``_halfline_rows`` for j.
    """
    (image,), (faithful,) = _halfline_rows(grid, [_read_count(steps, "step count", 0)])
    return WindowedMap.from_image(image, faithful, np.ones(grid.dim, dtype=bool))


def halfline_shift_family(grid: CellGrid1D) -> SemigroupFamily:
    return SemigroupFamily(halfline_shift(grid, 1))


def _cut_shift_images(m: int, j, r: int) -> np.ndarray:
    """Image arrays of the cut-shift pair E0, E1 on the m-cell interval with fiber r.

    E0 moves cell k to cell k+j and annihilates the top j cells; E1 wraps
    the top j cells around to the bottom.  Both are genuine partial
    isometries (the zeros are true operator behavior, not truncation), and
    E0 E0* + E1 E1* = E0* E0 + E1* E1 = I exactly.  The result has rows E0
    and E1; an array of shifts gives those two rows for each shift in turn,
    built by one broadcast.  Its callers have read m and r as counts.
    """
    j = np.asarray(j)
    if np.count_nonzero((j < 0) | (j >= m)):
        raise InvalidShift(f"shift {j} outside [0, {m})")
    return _forward_image(m * r, ((j[..., None] - np.array([0, m])) * r).ravel())


def _phi_rows(d: int, m: int, r: int, steps: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Images and faithful masks of the multipliers at each step count j = t*m.

    Row s of both (len(steps), dim) arrays belongs to steps[s].  A step is
    clamped to (d + 1) m, the first that moves every block past degree d,
    so past the window a row is zero with an empty faithful window, the
    image and adjoint window of the composed power.  Each image is built
    from the cut-shift pieces that define the multiplier, not as a shift of
    the whole space: a coordinate that E0 keeps in its block moves n blocks
    up, one that E0 drops goes where E1 wraps it, n + 1 blocks up, and past
    degree d it maps to -1.
    """
    space = HardyCoeffSpace(d, m, r)
    n, jj = np.divmod(np.minimum(steps, (d + 1) * m).astype(np.int64), m)
    e0, e1 = _cut_shift_images(m, jj, r).reshape(jj.size, 2, space.block).transpose(1, 0, 2)
    up = n[:, None] * space.block
    moved = np.where(e0 >= 0, e0 + up, e1 + up + space.block)  # from its own block's start
    starts = np.arange(0, space.dim, space.block)
    image = (moved[:, None, :] + starts[:, None]).reshape(jj.size, space.dim)
    image[image >= space.dim] = -1
    top = np.where(jj == 0, d - n, d - n - 1)
    faithful = np.arange(space.dim) < ((top + 1) * space.block)[:, None]
    return image, faithful


def phi_multiplier(d: int, m: int, r: int, steps: int) -> WindowedMap:
    """Multiplication by the degree-shifting cut-shift polynomial at j = ``steps``.

    With the time j/m = n + s (n integer, 0 <= s < 1), degree block b
    receives the E0 piece from block b-n and the E1 piece from block b-n-1,
    the pieces of ``_cut_shift_images`` at the shift s*m, and the stored
    column is zero where that passes the top degree.  A block column is
    faithful when every piece the true multiplier produces fits under the
    top degree d, a window that contains the composed power's and is empty
    from the time d + 1 on.  The map is the one row of ``_phi_rows`` for j,
    so ``bcl_check`` compares it with a shift built another way.
    """
    (image,), (faithful,) = _phi_rows(d, m, r, [_read_count(steps, "step count", 0)])
    return WindowedMap.from_image(image, faithful, np.ones(image.size, dtype=bool))


def phi_family(d: int, m: int, r: int = 1) -> SemigroupFamily:
    return SemigroupFamily(phi_multiplier(d, m, r, 1))


def bishift_pair(grid: QuadrantGrid2D, steps: int) -> tuple[WindowedMap, WindowedMap]:
    """The two coordinate shifts by j = ``steps`` cells, the time j/m, on the quadrant grid,
    each its composed power: from j = mT on, zero with an empty faithful window."""
    j = min(_read_count(steps, "step count", 0), grid.side)
    idx = np.arange(grid.dim)
    _, k2, _ = np.unravel_index(idx, (grid.side, grid.side, grid.r))
    images = (_forward_image(grid.dim, j * grid.side * grid.r),
              np.where(k2 + j < grid.side, idx + j * grid.r, -1))
    return tuple(WindowedMap.from_image(image, image >= 0, np.ones(grid.dim, dtype=bool))
                 for image in images)


def bishift_families(grid: QuadrantGrid2D) -> PairOfSemigroups:
    g1, g2 = bishift_pair(grid, 1)
    return PairOfSemigroups(SemigroupFamily(g1), SemigroupFamily(g2))


def modified_bishift_pair(region: LRegionIndex, steps: int) -> tuple[WindowedMap, WindowedMap]:
    """The compressed two-sided translations by j = ``steps`` cells, the time
    t = j/m, on the L-shaped region.

    The first map sends physical cell (c1, c2) to (c1 - j, c2): values of
    the translated function at a point come from t further to the right.
    Moving away from the removed quadrant keeps the L-region invariant,
    so the map is isometric wherever its image stays inside the window
    [-T, T); columns that would wrap are zeroed and left unfaithful.  The
    adjoint direction genuinely annihilates the cells it pushes into the
    removed quadrant, and those zero columns of the transpose are exact.
    From j = 2mT on both maps are zero with empty windows.  At every step
    the image and faithful window are the composed power's, and the
    adjoint window lies inside the power's.
    """
    j = min(_read_count(steps, "step count", 0), 2 * region.half)
    cells = region.l_cells()
    n, r = region.parent.n, region.r
    k1, k2, _ = np.unravel_index(cells, (n, n, r))

    def build(k: np.ndarray, stride: int) -> WindowedMap:
        # a leftward/downward image stays in L, so its position is found by search
        image = np.where(k >= j, cells.searchsorted(cells - j * stride), -1)
        return WindowedMap.from_image(image, image >= 0, k + j < n)

    return build(k1, n * r), build(k2, r)


def modified_bishift_families(region: LRegionIndex) -> PairOfSemigroups:
    g1, g2 = modified_bishift_pair(region, 1)
    return PairOfSemigroups(SemigroupFamily(g1), SemigroupFamily(g2))


def _circulant_image(n: int) -> np.ndarray:
    """Image of the cyclic shift by one on C^n."""
    _check_cells(_read_count(n, "n"))
    return (np.arange(n) + 1) % n


def circulant_family(n: int) -> SemigroupFamily:
    """The cyclic shift by one on C^n, exact everywhere, as a family."""
    gen = WindowedMap.from_image(_circulant_image(n), np.ones(n, dtype=bool),
                                 np.ones(n, dtype=bool))
    return SemigroupFamily(gen)


def direct_sum(*parts: WindowedMap) -> WindowedMap:
    """Block-diagonal direct sum; windows are the concatenated masks.

    Each part's image is offset by the cells before it.
    """
    if not parts:
        raise InvalidInput("direct_sum needs at least one part")
    row0 = list(accumulate((p.image.size for p in parts), initial=0))
    _check_cells(row0[-1])
    faithful = np.concatenate([p.faithful_mask for p in parts])
    adj_faithful = np.concatenate([p.adj_faithful_mask for p in parts])
    image = np.concatenate([np.where(p.image >= 0, p.image + row0[k], -1)
                            for k, p in enumerate(parts)])
    return WindowedMap.from_image(image, faithful, adj_faithful)


def tensor_with_identity(part: WindowedMap, fiber: int, side: str = "right") -> WindowedMap:
    """Kronecker product with an identity on the declared fiber side.

    side="right" gives part (x) I_fiber (fiber is the inner index, so the
    pair (i, k) sits at i * fiber + k); side="left" gives I_fiber (x) part
    (the pair sits at k * n + i).  Each window mask is spread by the same
    index rule as the image.  Copies of an injective image on disjoint
    fibers stay injective, so the result comes from ``_derived``.
    """
    fiber = _read_count(fiber, "fiber")
    if side not in ("left", "right"):
        raise InvalidInput(f"side must be 'left' or 'right', got {side!r}")
    _check_cells(fiber * part.domain_dim)
    k = np.arange(fiber)

    def spread(values: np.ndarray) -> np.ndarray:
        """The entries values[i] (or values[i, k]) laid out in the side's order."""
        out = np.empty(values.shape[0] * fiber, dtype=values.dtype)
        if side == "right":
            out.reshape(-1, fiber)[:] = values
        else:
            out.reshape(fiber, -1)[:] = values.T
        return out

    # column (i, k) goes to row (image[i], k)
    target = part.image[:, None]
    rows = target * fiber + k if side == "right" else k * part.codomain_dim + target
    image = spread(np.where(target >= 0, rows, -1))
    return WindowedMap._derived(image, spread(part.faithful_mask[:, None]),
                                spread(part.adj_faithful_mask[:, None]))


def check_semigroup_law(family: SemigroupFamily, m: int, steps) -> list[CheckEntry]:
    """Verify element(s+t) = element(s) o element(t) on composed windows.

    ``steps`` are the sampled step counts on the grid t = j/m; each
    distinct pair s <= t is checked once, and its id names the two times.  Pairs whose composed
    window is empty are skipped (``_window_entry``); if no pair leaves
    anything checkable the window is too small for the request.  The
    product is not built: ``_gather`` gives its image and faithful mask,
    and ``_held_residual`` compares them with element(s+t), which is what
    ``_pair_residual`` of the composed map gives.
    """
    m = _read_count(m, "m")
    steps = sorted(set(_read_steps(steps)))
    time = {j: format_time(j, m) for j in steps}
    entries = []
    for a_pos, s in enumerate(steps):
        for t in steps[a_pos:]:
            whole = family.element(s + t)
            got = _held_residual((whole.image, whole.faithful_mask),
                                 _gather(family.element(s), family.element(t)))
            entries.append(_window_entry(f"law_{time[s]}+{time[t]}", got))
    if all(entry.note for entry in entries):
        raise WindowTooSmall("every sample pair exhausts the window")
    return entries


@dataclass(frozen=True)
class CommutationReport:
    comm_residual: float
    double_comm_residual: float
    classified: str  # "doubly_commuting" | "commuting" | "neither"


def _commutator_residual(a: WindowedMap, b: WindowedMap) -> tuple[float, int] | None:
    """``_pair_residual(a.compose(b), b.compose(a))`` for square maps on one space.

    The images and faithful masks that ``_gather`` gives are compared by
    ``_held_residual``, without building either product.
    """
    return _held_residual(_gather(a, b), _gather(b, a))


def classify_pair(pair: PairOfSemigroups, steps) -> CommutationReport:
    """Classify a pair as commuting / doubly commuting / neither.

    Residuals are maxima over all ordered pairs of distinct sampled step
    counts (t for the first family, s for the second), restricted to the
    composed faithful sets, so a repeated sample adds no commutator.  The
    commutators [V1_t, V2_s] and [V1_t, V2_s*] come
    from ``_commutator_residual``, which builds no product.  The loop runs
    over s outside: V2_s* is built once, used for every t and dropped, so
    one adjoint is held at a time.  The pair commutes when the first
    maximum is exactly 0, and doubly commutes when both are.
    """
    steps = sorted(set(_read_steps(steps)))
    comm = 0.0
    double = 0.0
    usable_comm = usable_double = 0
    for s in steps:
        b = pair.second.element(s)
        b_adj = b.adjoint()
        for t in steps:
            a = pair.first.element(t)
            got = _commutator_residual(a, b)
            if got is not None:
                comm = max(comm, got[0])
                usable_comm += 1
            got = _commutator_residual(a, b_adj)
            if got is not None:
                double = max(double, got[0])
                usable_double += 1
    if not usable_comm or not usable_double:
        raise WindowTooSmall("no sample pair leaves a nonempty faithful intersection")
    if comm == 0.0 and double == 0.0:
        classified = "doubly_commuting"
    elif comm == 0.0:
        classified = "commuting"
    else:
        classified = "neither"
    return CommutationReport(comm, double, classified)
