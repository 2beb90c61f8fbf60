"""Gradient flows on the space of regular density matrices (SLD Fisher metric)
realizing the projective-scaling flow for linear programming on the simplex."""

from ._kernels import BACKEND
from .errors import ContractError, NumericError, QisflowError, RegularityError
from .gradient import (
    cost_vector,
    grad_K,
    grad_general,
    m_operator_K,
    potential_K,
)
from .integrate import (
    FlowTrajectory,
    IntegrationParams,
    integrate_matrix,
    integrate_simplex,
    nearest_vertex,
    simplex_stationarity_norm,
    stationarity_norm,
)
from .lift import (
    ambient_metric,
    horizontal_lift,
    lift_point,
    min_qubits,
    pi_differential,
    project_pi,
    r_metric,
    tuple_state,
    vertical_project,
)
from .qis_core import (
    check_density,
    check_tangent,
    d_metric,
    density_state,
    qf_metric,
    sld,
    spectral_decompose,
    tangent_state,
)
from .simplex import (
    check_isometry,
    check_simplex_point,
    check_simplex_tangent,
    embed_mu,
    grad_kappa,
    karmarkar_field,
    potential_kappa,
    pushforward_mu,
    simplex_metric,
)
from .verify import run_suite

__version__ = "0.1.0"
