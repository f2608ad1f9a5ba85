"""Exact finite-window laboratory for commuting families of isometries.

The package realizes shift-type operator families on uniform grids as
exact 0/1 matrices carrying "exactness windows" (the domain indices on
which the truncation agrees with the infinite-dimensional operator),
and verifies the structural identities between them: semigroup laws,
unitary/pure splittings, commutation classification, commutant
structure, and dual-pair recovery.  Identity checks quantify only over
the windows and hold with residual exactly zero, not merely small.
"""

from .errors import (DimensionMismatch, InternalInconsistency, InvalidInput, InvalidShift,
                     IsoflowError, PreconditionFailed, WindowTooSmall)
from .numlin import Subspace, complement, intersect, subtract
from .spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D, TorusGrid2D
from .semigroups import (PairOfSemigroups, SemigroupFamily, WindowedMap, bishift_families,
                         bishift_pair, check_semigroup_law, circulant_family, direct_sum,
                         halfline_shift, halfline_shift_family, modified_bishift_families,
                         modified_bishift_pair, phi_family, phi_multiplier,
                         tensor_with_identity)
from .decompose import (CommutationReport, FourfoldResult, WoldResult, bcl_check,
                        classify_pair, fourfold_decompose, product_unitary_part,
                        verify_joint_equivalence, wold_cooper)
from .commutant import (CommutantBasis, commutant_of_partial_isometries,
                        doubly_commutant_of_mz, fuglede_instance_check)
from .duality import (DualFourfoldResult, DualResult, ExtensionSetup, OrbitSpan,
                      bishift_setup, circulant_pair_setup, double_dual_check,
                      dual_cnu_check, dual_fourfold, dual_pair, halfline_circulant_setup,
                      l_region_setup, minimal_extension, modified_bishift_model_check,
                      setup_direct_sum, simultaneous_dc_ddc_classify)
from .report import CheckEntry, Report, render_report, render_reports
from .catalog import Scenario, list_catalog, run_scenario

__version__ = "0.1.0"
