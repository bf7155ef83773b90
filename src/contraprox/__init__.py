"""Contracting proximal methods with runtime convergence certificates.

An accelerated inexact proximal-point framework: each outer step minimizes a
contracted copy of the objective plus a Bregman-divergence regularizer, inner
subproblems are solved by first- or second-order regularized model steps to a
certified subgradient accuracy, and a validator re-checks every claimed
inequality along the recorded trace.  Baseline solvers and a benchmark
harness reproduce the standard quadratic and log-sum-exp comparisons.
"""

from .bregman import PowerProx, ProxFunction
from .contracting import (ConstantDelta, GeometricSchedule, OuterState,
                          PowerDelta, RunCaps, SublinearSchedule,
                          TheoremConvexDelta, TheoremStronglyConvexDelta,
                          complexity_convex, complexity_strongly_convex,
                          contracting_step, contraction_point, contraction_rate,
                          inexact_certificate_bound, inner_iteration_bound,
                          order_dependence, run_contracting_proximal,
                          schedule_convex, schedule_strongly_convex)
from .metric import Metric, pairing
from .objectives import (CompositeObjective, LogSumExpOracle, OracleCounters,
                         PowerRegularizer, QuadraticOracle, SolverError,
                         ZeroComponent, alpha_for_condition_ratio,
                         attach_reference, lse_instance,
                         power_regularizer_component, quadratic_instance,
                         reference_optimum, sigmoid_spectrum)
from .tensor_steps import (CompositePart, ContractedSmooth, InnerResult,
                           SmoothData, Subproblem, inner_loop, step_subgradient,
                           tensor_step)
from .trace import RunTrace, read_csv
from .validate import ValidationReport, validate_trace

__all__ = [name for name in dir() if not name.startswith("_")]
