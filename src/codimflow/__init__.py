"""codimflow: mean curvature flow of immersed submanifolds of arbitrary
codimension in flat Euclidean space.

Structured single-chart discretizations (circle, tori, staggered sphere,
truncated interval), full second-fundamental-form machinery with numerical
residuals of the structure equations, explicit and semi-implicit flow
integration with evolution-equation verification, Gaussian-density
monotonicity and Type I/II singularity rescaling, and the Lagrangian-graph
potential flow.
"""

from .errors import (CodimflowError, ConfigError, DegenerateImmersion,
                     NonFiniteError, SolverError, UsageError)
from .grid import AxisKind, Chart, ChartSpec, Domain, GridField, make_chart
from .geometry import (CurvatureReport, GeometryBundle, Immersion,
                       ResidualNorms, build_bundle, graph_immersion,
                       graph_singular_values, normal_part, structure_residuals)
from .flow import (EvolutionReport, FlowConfig, FlowState, FlowTrace,
                   Integrator, SingularTimeEstimate, Termination,
                   estimate_singular_time, evolution_residuals, run,
                   step_explicit, step_semi_implicit)
from .singularity import (BlowupClass, BlowupReport, DensityParams,
                          HamiltonSequence, MonotonicityCheck, SolitonKind,
                          SolitonReport, classify_blowup, hamilton_rescale,
                          huisken_functional, monotonicity_check,
                          soliton_residual, type1_rescale)
from .catalog import catalog_names, make_example
from .lagrangian import (LagrangianReport, Potential, PotentialFlowConfig,
                         PotentialTrace, angle_evolution_residual,
                         lag_immersion, lagrangian_angle,
                         lagrangian_residual, ma_run, mean_curvature_form,
                         pinching_gap)
from .config import Scenario, parse_config
from .snapshots import (read_checkpoint, read_snapshot, resume_run,
                        write_checkpoint, write_diagnostics, write_snapshot)

__version__ = "0.1.0"
