"""Contracting proximal methods with runtime convergence certificates.

An accelerated inexact proximal-point framework: each outer step minimizes a
contracted copy of the objective plus a Bregman-divergence regularizer, inner
subproblems are solved by first- or second-order regularized model steps to a
certified subgradient accuracy, and a validator re-checks every claimed
inequality along the recorded trace.  Baseline solvers and a benchmark
harness reproduce the standard quadratic and log-sum-exp comparisons.
"""

from .bregman import PowerProx, ProxFunction
from .contracting import (GeometricSchedule, SublinearSchedule, contraction_point,
                          contraction_rate, delta_rule, inexact_certificate_bounds,
                          inner_iteration_bound, order_dependence,
                          run_contracting_proximal, schedule_convex, schedule_strongly_convex)
from .metric import Metric
from .objectives import (CompositeObjective, LogSumExpOracle, OracleCounters,
                         PowerRegularizer, QuadraticOracle, SolverError,
                         ZeroComponent, alpha_for_condition_ratio,
                         attach_reference, lse_instance,
                         power_regularizer_component, quadratic_instance,
                         reference_optimum, sigmoid_spectrum)
from .tensor_steps import ContractedSmooth, SmoothData, Subproblem, inner_loop, tensor_step
from .trace import RunTrace, read_csv
from .validate import ValidationReport, validate_trace

__all__ = [name for name in dir() if not name.startswith("_")]
