"""Minimal unitary extensions on finite ambients and dual-pair extraction.

An ``ExtensionSetup`` supplies the extension as data: two commuting
permutations of a finite ambient space together with an embedded cell
set whose compressions recover the pair of isometric families under
study.  Solving for extensions of abstract pairs is out of scope; the
bundled setups realize the two-sided translation ambients in which the
compressions are exact.

The dual of the pair is the adjoint extension compressed to the
orthogonal complement of the original space inside the minimal extension
space.  The minimal extension space itself is certified by a finite orbit
computation: the span of U1^a U2^b H over the box |a|, |b| <= A, with A
grown until one more radius adds no cell.  Because the unitaries commute,
the box of radius A + 1 is the box of radius A moved once by every
U1^s U2^t with |s|, |t| <= 1, so each step moves only the cells the last
step added (the frontier): O(A n) time and O(n) memory, with no table of
powers.  A permutation moves a set without repeats to a set without
repeats, so each moved part of the frontier is kept by a membership test
on a mask, with nothing to deduplicate.  The continuum statement
quantifies over real parameters; the certificate here covers the integer
box only, and that distinction is always reported (the ``stabilized``
flag), never hidden.

Each value is computed once per scenario.  The runners compute
``dual_pair(setup)`` once and hand it to each check that reads it
(``dual_cnu_check``, ``dual_fourfold`` and
``modified_bishift_model_check``); ``double_dual_check`` and
``simultaneous_dc_ddc_classify`` compute their own dual, since a dual
that fails is part of what they report.  A setup keeps its compressed
pair (``ExtensionSetup.compressed_pair``) and a pair its step-time
verdict (``PairOfSemigroups.step_verdict``), so the joint classification
and the fourfold splits it calls read one pair and one verdict.  A
setup has one constructor, which checks its unitaries in O(n): the
adjoint setup of ``double_dual_check`` goes through it too.

The checks ``dual_cnu_check``, ``double_dual_check``,
``modified_bishift_model_check`` and ``simultaneous_dc_ddc_classify``
return their ``CheckEntry`` lists, and ``dual_fourfold`` its
``DualFourfoldResult``.  Every computation below is
integer-exact set arithmetic on images and cells.  Compressions and
isometry tests come from ``semigroups``; the model check conjugates by
``decompose.verify_joint_equivalence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from .errors import (InternalInconsistency, InvalidInput, PreconditionFailed,
                     WindowTooSmall)
from .numlin import _BLOCK, Subspace, _equal, _positions, _read_count, intersect, subtract
from .decompose import (_reduction_residual, fourfold_decompose, product_unitary_part,
                        verify_joint_equivalence)
from .report import CheckEntry
from .semigroups import (PairOfSemigroups, SemigroupFamily, WindowedMap, _circulant_image,
                         _compress, _isometry_defect, _pair_residual, circulant_family,
                         direct_sum, modified_bishift_families, tensor_with_identity)
from .spaces import LRegionIndex

__all__ = [
    "ExtensionSetup",
    "OrbitSpan",
    "DualResult",
    "DualFourfoldResult",
    "minimal_extension",
    "dual_pair",
    "dual_cnu_check",
    "double_dual_check",
    "dual_fourfold",
    "modified_bishift_model_check",
    "simultaneous_dc_ddc_classify",
    "l_region_setup",
    "bishift_setup",
    "halfline_circulant_setup",
    "circulant_pair_setup",
    "setup_direct_sum",
]


@dataclass(frozen=True, eq=False)
class ExtensionSetup:
    """Commuting ambient permutations plus the embedded original subspace.

    The unitaries are carried as WindowedMaps so that their own exactness
    windows (wrap-affected cells of a cyclic ambient) propagate into every
    compression.  Each must be a permutation (isometry defect exactly 0,
    which for a square map means unitary), and the two must commute: the
    images a[b] and b[a] are compared in blocks of at most
    ``numlin._BLOCK`` cells, so no full-size gather is made.  A setup is
    the pair of operators and the space alone: no structure theorem reads
    a time grid, so the grid is an argument of the checks that write a
    time, and the L-region an argument of ``modified_bishift_model_check``,
    the one check that reads it.
    """

    u1: WindowedMap
    u2: WindowedMap
    h: Subspace

    def __post_init__(self) -> None:
        n = self.u1.domain_dim
        if self.u1.shape != (n, n) or self.u2.shape != (n, n):
            raise InvalidInput("ambient unitaries must be square and equal-sized")
        if self.h.ambient != n:
            raise InvalidInput("subspace ambient does not match the unitaries")
        for tag, u in (("U1", self.u1), ("U2", self.u2)):
            if _isometry_defect(u.image) != 0.0:  # a square isometry is unitary
                raise InvalidInput(f"{tag} is not unitary")
        a, b = self.u1.image, self.u2.image
        for start in range(0, n, _BLOCK):
            cells = slice(start, start + _BLOCK)
            if not _equal(a[b[cells]], b[a[cells]]):
                raise InvalidInput("ambient unitaries do not commute")

    @property
    def ambient_dim(self) -> int:
        return self.u1.domain_dim

    @cached_property
    def compressed_pair(self) -> PairOfSemigroups:
        """The pair of isometric families P_H U_i|_H that the setup encodes,
        computed on first read, so its ``step_verdict`` is computed once too."""
        g1 = _compress(self.u1, self.h)
        g2 = _compress(self.u2, self.h)
        return PairOfSemigroups(SemigroupFamily(g1), SemigroupFamily(g2))


@dataclass(frozen=True)
class OrbitSpan:
    span: Subspace
    stabilized: bool
    radius: int


@dataclass(frozen=True)
class DualResult:
    obh: Subspace
    wth: Subspace
    pair: PairOfSemigroups
    invariance_residuals: tuple[float, float]
    radius: int


@dataclass(frozen=True)
class DualFourfoldResult:
    h_m: Subspace
    h_pu: Subspace
    h_up: Subspace
    h_uu: Subspace
    tilde_dims: tuple[int, int, int, int]
    orthogonality_residual: float
    reduction_residual: float

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.h_m.dim, self.h_pu.dim, self.h_up.dim, self.h_uu.dim)


# ---------------------------------------------------------------------------
# orbit spans and host coordinates


def _orbit_moves(u1: WindowedMap, u2: WindowedMap) -> tuple[np.ndarray, ...]:
    """The images of U1, U1*, U2 and U2*, the moves that ``_orbit_span`` reads."""
    return u1.image, u1.adjoint().image, u2.image, u2.adjoint().image


def _orbit_span(moves: tuple[np.ndarray, ...], start: Subspace, max_orbit: int) -> OrbitSpan:
    """Span of U1^a U2^b (start) over the box |a|, |b| <= A, grown until stable.

    ``moves`` holds the images of U1, U1*, U2 and U2* (``_orbit_moves``).
    Requires U1 and U2 to be commuting unitaries (``ExtensionSetup``
    checks both).  Then box(r + 1) = N(box(r)) with
    N = {U1^s U2^t : |s|, |t| <= 1}, so box(r + 1) = box(r) | N(F_r)
    where F_r holds the cells that radius r added.  Only that frontier
    moves, and the orbit is stable at the first radius whose frontier adds
    nothing.  A permutation maps a set without repeats to a set without
    repeats, so every part below is kept by a membership test on a mask
    alone (``_take``), never deduplicated.  G = F | U1 F | U1* F is built from its three parts,
    leaving out the cells that an earlier radius already moved through U2
    and U2*: their moves are in the span, so G | U2 G | U2* G still covers
    N(F_r) outside it.  The next frontier is that set minus the span, its
    three parts filtered against the mask of cells outside the span, and
    the span's cells are read off that mask once, at the end.  Each cell
    enters a frontier once and goes through U2 and U2* at most once, so
    all radii together move at most 4n cells.  Memory is two masks and the
    parts beside the moves: on ``l_region_setup(8, 16)`` (n = 65,536) the
    ``tracemalloc`` peak above live memory, ``_orbit_moves`` included, is
    4.0 x 8n bytes.
    """
    max_orbit = _read_count(max_orbit, "max_orbit")
    n = start.ambient
    f1, b1, f2, b2 = moves
    unmoved = np.ones(n, dtype=bool)  # False once a cell has gone through U2 and U2*
    outside = np.ones(n, dtype=bool)  # False on the span
    outside[start.cells] = False
    frontier = start.cells
    for radius in range(max_orbit):
        g = np.concatenate([_take(frontier, unmoved),
                            *(_take(move[frontier], unmoved) for move in (f1, b1))])
        frontier = np.concatenate([_take(g, outside),
                                   *(_take(move[g], outside) for move in (f2, b2))])
        if not frontier.size:
            return OrbitSpan(Subspace._derived(n, (~outside).nonzero()[0]), True, radius)
    return OrbitSpan(Subspace._derived(n, (~outside).nonzero()[0]), False, max_orbit)


def _take(cells: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The cells of a repeat-free array that ``free`` marks, unmarked in ``free``."""
    cells = cells[free[cells]]
    free[cells] = False
    return cells


def minimal_extension(setup: ExtensionSetup, max_orbit: int) -> OrbitSpan:
    """Certified span of the unitary orbit of the embedded subspace."""
    return _orbit_span(_orbit_moves(setup.u1, setup.u2), setup.h, max_orbit)


def _lift_local(local: Subspace, host: Subspace) -> Subspace:
    """Embed a subspace given in host-local coordinates into the ambient."""
    return Subspace._derived(host.ambient, host.cells[local.cells])


def _restrict_to(host: Subspace, part: Subspace) -> Subspace:
    """Express a cell set contained in the cell set ``host`` in host-local coordinates."""
    at = _positions(host.cells, host.ambient)[part.cells]
    if np.count_nonzero(at < 0):
        raise InternalInconsistency(
            f"cells {part.cells[at < 0].tolist()} fall outside the host subspace")
    return Subspace._derived(host.dim, at)


# ---------------------------------------------------------------------------
# dual pair operations


def dual_pair(setup: ExtensionSetup, max_orbit: int) -> DualResult:
    """Dual of the compressed pair: adjoint extension on obH minus H.

    Reports the invariance defect of the complement under each adjoint
    unitary, restricted to faithful columns (the complement is invariant
    for the adjoints; a nonzero value flags window pollution): 1.0 when
    ``_compress`` unmarks a faithful column, as it does where the image
    leaves the cells.  Only one adjoint is held at a time.

    Each adjoint is built twice, so a call makes 4 ``adjoint`` calls: once
    for the orbit moves of ``minimal_extension``, dropped with them, and
    once here.  Compressing the inverse images of ``_orbit_moves`` instead
    makes 2 calls, but U2* then stays alive through the compression of
    U1*: on ``l_region_setup(8, 16)`` (n = 65,536) the ``tracemalloc`` peak
    above live memory rose from 4.57 to 5.07 x 8n bytes (5.00 with U1*
    dropped once compressed).  That peak is what bounds the largest dual
    run, ``dual_example m=64`` on 16.8 M cells, so the rebuild stays.
    """
    extension = minimal_extension(setup, max_orbit)
    if not extension.stabilized:
        raise PreconditionFailed(f"orbit span did not stabilize within radius {max_orbit}")
    wth = subtract(extension.span, setup.h)
    residuals, compressed = [], []
    for u in (setup.u1, setup.u2):  # one adjoint at a time, dropped once compressed
        adj = u.adjoint()
        part = _compress(adj, wth)
        unmarked = np.count_nonzero(adj.faithful_mask[wth.cells] & ~part.faithful_mask)
        residuals.append(1.0 if unmarked else 0.0)
        compressed.append(part)
        del adj
    g1, g2 = compressed
    pair = PairOfSemigroups(SemigroupFamily(g1), SemigroupFamily(g2))
    return DualResult(extension.span, wth, pair, (residuals[0], residuals[1]),
                      extension.radius)


def dual_cnu_check(dual: DualResult, max_steps: int) -> list[CheckEntry]:
    """The dual pair ``dual``, a ``dual_pair`` result, must be completely nonunitary.

    Verified through the product family: the pair is c.n.u. exactly when
    the unitary part of t -> V1_t V2_t vanishes.  An empty dual passes
    vacuously.  This is a theorem on faithful data, so a failure entry
    here flags window pollution rather than new mathematics.
    """
    entries = []
    if dual.wth.dim == 0:
        entries.append(CheckEntry("empty_dual", 0.0, (0,), True, "vacuous"))
    else:
        product = product_unitary_part(dual.pair, max_steps)
        entries.append(CheckEntry(
            "dual_product_unitary_dim", product.reduction_residual,
            (product.subspace.dim,), product.subspace.dim == 0 and product.stabilized,
            f"stabilized={product.stabilized}"))
    entries.append(CheckEntry("dual_invariance", max(dual.invariance_residuals),
                              (dual.wth.dim,), max(dual.invariance_residuals) == 0.0))
    return entries


def double_dual_check(setup: ExtensionSetup, max_orbit: int,
                      radius_bound: int | None = None) -> list[CheckEntry]:
    """Dual of the dual recovers the original pair; minimality certified.

    Requires the original pair to be c.n.u. (checked through the product
    family); the recovered compressions are compared with the original
    ones restricted to their common faithful columns, and the orbit of the
    dual space under the adjoint unitaries must reproduce the extension
    space.  ``radius_bound``, when given, caps the orbit radius at which
    that minimality certificate is allowed to stabilize.  When the
    recovered cells are not the original ones, each recovered axis fails
    with residual 1.0.
    """
    if setup.h.dim == 0:
        raise PreconditionFailed("empty original space: c.n.u. check is undefined")
    original = setup.compressed_pair
    product = product_unitary_part(original, max_orbit)
    if product.subspace.dim != 0 or not product.stabilized:
        raise PreconditionFailed(
            f"original pair is not certified c.n.u. (unitary dim {product.subspace.dim}, "
            f"stabilized={product.stabilized})")
    first_dual = dual_pair(setup, max_orbit)
    dual_setup = ExtensionSetup(setup.u1.adjoint(), setup.u2.adjoint(), first_dual.wth)
    second_dual = dual_pair(dual_setup, max_orbit)
    minimality_gap = second_dual.obh.gap(first_dual.obh)
    recovered_gap = second_dual.wth.gap(setup.h)
    entries = [
        CheckEntry("minimality_gap", minimality_gap, (second_dual.obh.dim,),
                   minimality_gap == 0.0),
        CheckEntry("minimality_radius", 0.0, (second_dual.radius,),
                   radius_bound is None or second_dual.radius <= radius_bound,
                   f"orbit stabilized at radius {second_dual.radius}"),
        CheckEntry("recovered_space_gap", recovered_gap, (second_dual.wth.dim,),
                   recovered_gap == 0.0),
    ]
    recovered = second_dual.pair
    for axis, (rec, orig) in enumerate(((recovered.first, original.first),
                                        (recovered.second, original.second)), start=1):
        if recovered_gap == 0.0:
            got = _pair_residual(rec.generator, orig.generator)
            if got is None:
                raise WindowTooSmall(f"no column of axis {axis} is faithful for both "
                                     "the recovered and the original generator")
            residual, count = got
            dims = (count,)
        else:  # the compressions live on different cells: no comparison to make
            residual, dims = 1.0, (second_dual.wth.dim,)
        entries.append(CheckEntry(f"recovered_axis{axis}", residual, dims, residual == 0.0))
    return entries


def dual_fourfold(setup: ExtensionSetup, dual: DualResult, max_steps: int,
                  max_orbit: int) -> DualFourfoldResult:
    """Cooper-type splitting of a dual doubly commuting pair, given its dual.

    ``dual`` is ``dual_pair(setup)``.  The unitary-times-unitary corner
    H_uu comes from the product family on the original space.  Both
    compressions act on H_uu as unitaries, so U1 and U2 map H_uu onto
    itself and H_uu reduces them.  The minimal extension space of H is
    then that of H minus H_uu plus H_uu itself, so removing H_uu from
    both leaves the dual unchanged: the dual of H minus H_uu is the dual
    of H, and the split reads ``dual`` as it is.  The dual pair is split
    fourfold; its unitary-times-unitary corner must vanish (a theorem for
    duals: nonzero means window pollution and raises
    InternalInconsistency).
    The remaining three dual corners are lifted back by orbit spans under
    the original unitaries, and the original summands are the lifted
    spaces minus the dual corners.  An empty corner needs no branch: its
    orbit span is empty, stable at radius 0, and so is its summand.
    """
    pair = setup.compressed_pair
    product = product_unitary_part(pair, max_steps)
    if not product.stabilized:
        raise WindowTooSmall("product unitary part did not stabilize")
    h_uu_local = product.subspace
    if h_uu_local.dim == setup.h.dim:
        zero_local = Subspace.zero(setup.h.dim)
        return DualFourfoldResult(zero_local, zero_local, zero_local, h_uu_local,
                                  (0, 0, 0, 0), 0.0, product.reduction_residual)
    split = fourfold_decompose(dual.pair, max_steps)  # raises unless doubly commuting
    if split.h_uu.dim != 0:
        raise InternalInconsistency(
            f"dual unitary-unitary corner has dimension {split.h_uu.dim}; "
            "the dual of a c.n.u. pair admits none (window pollution)")
    tilde_dims = split.dims
    hats: list[Subspace] = []
    parts_ambient: list[Subspace] = []
    moves = _orbit_moves(setup.u1, setup.u2)  # built once for the three lifts
    for tilde_local in (split.h_pp, split.h_pu, split.h_up):
        tilde_ambient = _lift_local(tilde_local, dual.wth)
        lift = _orbit_span(moves, tilde_ambient, max_orbit)
        if not lift.stabilized:
            raise WindowTooSmall("lifted orbit span did not stabilize")
        hats.append(lift.span)
        parts_ambient.append(subtract(lift.span, tilde_ambient))
    # the norm of P_A P_B, the projector onto the cells the two share
    ortho = max(float(intersect(a, b).dim > 0) for a, b in combinations(hats, 2))
    locals_ = [_restrict_to(setup.h, part) for part in parts_ambient]
    h_m, h_pu, h_up = locals_
    gens = [pair.first.generator, pair.second.generator]
    reduction = max(product.reduction_residual,
                    _reduction_residual((h_m, h_pu, h_up, h_uu_local), gens))
    return DualFourfoldResult(h_m, h_pu, h_up, h_uu_local, tilde_dims, ortho, reduction)


def modified_bishift_model_check(setup: ExtensionSetup, dual: DualResult,
                                 region: LRegionIndex, max_steps: int) -> list[CheckEntry]:
    """A pair whose dual is a pure bishift matches the canonical model on ``region``.

    The dual is split fourfold; it must be concentrated in the
    pure-times-pure corner (that is the bishift certificate), on the
    quadrant cells of ``region``.  The original space must hold exactly
    the L-region cells, so the reindexing Z onto the canonical region is
    the identity.  ``verify_joint_equivalence`` compares Z A Z*, A the
    original pair, with the canonical compressed-translation pair at step
    1, the one-cell step of the setup's generators, fiber included.  Its
    entries follow ``dual_bishift_dims`` as ``axis1_t=...`` and
    ``axis2_t=...``, the time written on the region's grid ``region.m``.
    It raises PreconditionFailed unless the setup holds exactly the
    L-region cells of ``region``.
    """
    split = fourfold_decompose(dual.pair, max_steps)  # raises unless doubly commuting
    if split.dims != (dual.wth.dim, 0, 0, 0):
        raise PreconditionFailed(f"dual fourfold dims {split.dims} are not pure bishift")
    if not _equal(dual.wth.cells, region.quadrant_cells()):
        raise PreconditionFailed("recovered dual space does not sit on the quadrant cells")
    if not _equal(setup.h.cells, region.l_cells()):
        raise PreconditionFailed("original space does not sit on the L-region cells")
    return [CheckEntry("dual_bishift_dims", 0.0, split.dims, True),
            *verify_joint_equivalence(setup.compressed_pair, modified_bishift_families(region),
                                      WindowedMap.identity(setup.h.dim), region.m, [1])]


def simultaneous_dc_ddc_classify(setup: ExtensionSetup, max_steps: int,
                                 max_orbit: int) -> list[CheckEntry]:
    """Classify double commutation of the pair and of its dual, jointly.

    When both hold, the space must split into the three mixed/unitary
    summands with both the pure-times-pure corner and the two-sided
    compressed-translation corner absent; the splitting is computed and
    those two dimensions are checked to vanish.  Each value is computed
    once: the compressed pair, with its step-time verdict, and the dual go
    on to both fourfold splits.
    """
    pair = setup.compressed_pair
    entries = []
    dc = pair.step_verdict
    entries.append(CheckEntry("doubly_commuting", dc.double_comm_residual,
                              (1 if dc.classified == "doubly_commuting" else 0,), True,
                              dc.classified))
    try:
        dual = dual_pair(setup, max_orbit)
    except (PreconditionFailed, WindowTooSmall) as exc:
        entries.append(CheckEntry("dual", 0.0, (), False, f"window exhausted: {exc}"))
        return entries
    if dual.wth.dim == 0:
        ddc_holds = True
        entries.append(CheckEntry("dual_doubly_commuting", 0.0, (1,), True,
                                  "empty dual, vacuous"))
    else:
        ddc = dual.pair.step_verdict
        ddc_holds = ddc.classified == "doubly_commuting"
        entries.append(CheckEntry("dual_doubly_commuting", ddc.double_comm_residual,
                                  (1 if ddc_holds else 0,), True, ddc.classified))
    if dc.classified == "doubly_commuting" and ddc_holds:
        split = fourfold_decompose(pair, max_steps)
        entries.append(CheckEntry("h_pp_dim", split.reduction_residual,
                                  (split.h_pp.dim,), split.h_pp.dim == 0))
        dsplit = dual_fourfold(setup, dual, max_steps, max_orbit)
        entries.append(CheckEntry("h_m_dim", dsplit.reduction_residual,
                                  (dsplit.h_m.dim,), dsplit.h_m.dim == 0))
        covered = dsplit.h_pu.dim + dsplit.h_up.dim + dsplit.h_uu.dim
        entries.append(CheckEntry("three_part_sum", dsplit.orthogonality_residual,
                                  (dsplit.h_pu.dim, dsplit.h_up.dim, dsplit.h_uu.dim),
                                  covered == setup.h.dim))
    return entries


# ---------------------------------------------------------------------------
# bundled setups


def _torus_unitary(region: LRegionIndex, axis: int, forward: bool) -> WindowedMap:
    """Cyclic translation by one cell along ``axis`` of the region's parent torus.

    The flat index (k1 * n + k2) * r + rho is viewed as (outer, k, inner)
    with k the axis coordinate, so the image is built in place: every cell
    moves by one axis stride and the cells whose translate wraps, k = n - 1
    forward and k = 0 backward, move back by n strides.  Those are the
    unfaithful columns; the adjoint window is the one of the opposite
    direction.
    """
    n, r = region.parent.n, region.r
    stride = n * r if axis == 0 else r
    step, wrap = (1, -1) if forward else (-1, 0)
    image = np.arange(region.parent.dim).reshape(-1, n, stride)
    image += step * stride
    image[:, wrap] -= step * n * stride
    faithful, adj_faithful = np.ones((2, *image.shape), dtype=bool)
    faithful[:, wrap] = False
    adj_faithful[:, -1 - wrap] = False  # the wrapping cells of the opposite direction
    return WindowedMap.from_image(image.reshape(-1), faithful.reshape(-1),
                                  adj_faithful.reshape(-1))


def l_region_setup(m: int, T: int, r: int = 1) -> ExtensionSetup:
    """Two-sided window with the quadrant removed; compressions are the
    modified bishift pair, ambient unitaries translate toward the far
    corner of the L."""
    region = LRegionIndex(m, T, r)
    return ExtensionSetup(
        u1=_torus_unitary(region, 0, forward=False),
        u2=_torus_unitary(region, 1, forward=False),
        h=Subspace(region.parent.dim, cells=region.l_cells()))


def bishift_setup(m: int, T: int, r: int = 1) -> ExtensionSetup:
    """Quadrant inside the two-sided window; compressions are the bishift pair."""
    region = LRegionIndex(m, T, r)
    return ExtensionSetup(
        u1=_torus_unitary(region, 0, forward=True),
        u2=_torus_unitary(region, 1, forward=True),
        h=Subspace(region.parent.dim, cells=region.quadrant_cells()))


def halfline_circulant_setup(m: int, T: int, p: int, unitary_first: bool = False) -> ExtensionSetup:
    """Half-line shift compression tensored against a cyclic fiber rotation.

    The ambient is a two-sided cycle of 2mT cells (axis index k stands
    for physical cell k - mT) times a p-dimensional fiber; the embedded
    space is the nonnegative half times the full fiber.  With
    ``unitary_first`` the roles of the two families are swapped.
    """
    n = 2 * _read_count(m, "m") * _read_count(T, "T")
    p = _read_count(p, "p")
    # the cycle on n cells, its wrapping cell unfaithful both ways, tensor I_p
    cycle = WindowedMap.from_image(_circulant_image(n), range(n - 1), range(1, n))
    u_shift = tensor_with_identity(cycle, p, "right")
    u_fiber = tensor_with_identity(circulant_family(p).generator, n, "left")  # I_n tensor C_p
    h = Subspace(n * p, cells=np.arange(m * T * p, n * p))  # cells k >= mT, every fiber index
    u1, u2 = (u_fiber, u_shift) if unitary_first else (u_shift, u_fiber)
    return ExtensionSetup(u1, u2, h)


def circulant_pair_setup(n1: int, n2: int) -> ExtensionSetup:
    """Two commuting cyclic rotations with the full space embedded."""
    n1, n2 = _read_count(n1, "n1"), _read_count(n2, "n2")
    u1 = tensor_with_identity(circulant_family(n1).generator, n2, "right")  # C_n1 tensor I_n2
    u2 = tensor_with_identity(circulant_family(n2).generator, n1, "left")  # I_n1 tensor C_n2
    return ExtensionSetup(u1, u2, Subspace.full(n1 * n2))


def setup_direct_sum(*setups: ExtensionSetup) -> ExtensionSetup:
    """Block-diagonal direct sum of setups."""
    if not setups:
        raise InvalidInput("need at least one setup")
    u1 = direct_sum(*(s.u1 for s in setups))
    u2 = direct_sum(*(s.u2 for s in setups))
    offsets = list(accumulate((s.ambient_dim for s in setups), initial=0))
    cells = np.concatenate([offset + s.h.cells for offset, s in zip(offsets, setups)])
    return ExtensionSetup(u1, u2, Subspace(offsets[-1], cells=cells))
