"""Numerical laboratory for horizontal holonomy of K-contact
sub-Riemannian manifolds: charts, connections, parallel transport,
holonomy-algebra estimation, transverse geometry, and spinor kernels."""

__version__ = "0.1.0"

from .manifolds import (
    ContactChart,
    FactorSpec,
    chart_from_config,
    example_charts,
    heisenberg,
    product_construction,
    random_domain_points,
)
from .connection import (
    FramePointData,
    curvature_on_bivector,
    form_on_bivector,
    frame_data,
)
# the parallel-transport entry point itself stays on the submodule
# (kcontact.transport.transport) so the module name is not shadowed
from .transport import (
    ControlPath,
    ParametricCurve,
    SampledCurve,
    SamplerConfig,
    TransportResult,
    balanced_loop,
    horizontalize,
    sample_paths,
    transport_equivalence_check,
    transport_theta,
)
from .holonomy import (
    MatrixLieAlgebra,
    as_samples_adapted,
    as_samples_schouten,
    center_decomposition,
    compare_subalgebras,
    detect_complex_structure,
    lie_closure,
    t_complement,
)
from .transverse import (
    FactorSplit,
    dtheta_regression,
    einstein_check,
    factor_split,
    sasaki_psi_check,
    split_distribution,
)
from .spinor import (
    SpinRep,
    build_spin_rep,
    parallel_spinor_dim,
    ratio_condition,
    spin_lift,
)
