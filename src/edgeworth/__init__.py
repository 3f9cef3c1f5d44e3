"""Edgeworth-type corrections to the CLT in total variation distance.

Exact rational coefficient algebra, corrector polynomials and corrected
Gaussian measures, splitting representations of laws with an absolutely
continuous component, explicit Malliavin objects for the normalized sum,
and FFT / Monte Carlo verification tooling.
"""

from .exactmath import (
    MultiIndex,
    a_coeffs,
    multisets,
    orderings,
    p_value,
    prefix_splits,
    q_value,
    theta,
)
from .moments import (
    Distribution,
    MomentTable,
    NonInvertibleCovariance,
    OrderExceeded,
    delta,
    fixture_table,
    gaussian_moment,
    make_distribution,
    shipped_labels,
    standardize,
)
from .opalg import DiffOperator, MultiPoly, a_op, c_coeff, psi_k_op, psi_op, t_op
from .correctors import (
    EdgeworthModel,
    QuadratureNotConverged,
    d_m_functional,
    edgeworth_density,
    edgeworth_grid,
    h_poly,
    hermite_1d,
    hermite_multi,
    k_poly,
)
from .numerics import (
    AliasingDetected,
    GridDensity,
    GridMismatch,
    TVInterval,
    gauss_hermite,
    law_of_sn,
    tv_distance,
)
from .splitting import (
    NoLowerBoundFound,
    RejectionStall,
    SplitRep,
    find_lower_bound,
    psi_loc,
    split,
)
from .malliavin import (
    DegenerateSigma,
    IbpReport,
    backward_taylor_check,
    ibp_battery,
    ibp_weight,
    sigma_tail,
)
from .harness import ConfigError, RateConfig, RateReport, emit_report, parse_config, run_rate

__version__ = "0.1.0"
