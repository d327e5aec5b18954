"""diraclab: verification lab and solver for the first segment of the Dirac
complex in k vector variables on R^n.

The package constructs spinor modules and Dirac gamma matrices, the GL(k)
Weyl-module projectors that carve out the value spaces of the complex, the
differential operators D0, D1, D2', D2'' on polynomial fields together with
the formal adjoint D0*, the frequency-domain symbol bundles with their
fourth-order Hodge Laplacians, the tangential operators of the boundary
theory, and a periodic spectral solver for the non-homogeneous system
D0 u = f under the compatibility condition D1 f = 0.
"""

from .clifford import CliffordRep, build_clifford, dirac_symbol, delta_symbol
from .weyl import (
    WeylSpace,
    weyl_space,
    apply_projector,
    exact_checks,
    check_membership,
    weyl_dim,
)
from .fields import PolyField, SPACE_INFO
from . import dirac_ops
from .symbols import (
    SymbolBundle,
    build_bundle,
    verify_exactness,
    kernel_identity_check,
    intertwine_check,
    hodge_eig_bounds,
    green_inverse_residual,
)
from .solver import (
    GridField,
    make_bump,
    bump_dirac_data,
    exterior_mask,
    anchor_exterior,
    hartogs_report,
    resolution_sweep,
    dump_field,
    load_field,
    CompatibilityError,
    ResourceLimitError,
)
from .boundary import (
    HypersurfaceChart,
    script_d0,
    pi1_kernel_check,
    restrict_to_chart,
    restrict_and_test,
)

__version__ = "0.1.0"
