"""Split Bregman / two-split ADMM solvers for regularized least-squares
image restoration, with spectral convergence-rate analysis and optimal
augmented-Lagrangian parameter selection."""

from .algorithms import (MetricTrace, OuterConfig, ProblemOps, ProblemSpec,
                         SolverState, admm2_simplified_step, admm2_step,
                         canonical_init, quadratic_closed_form_step, run,
                         sb_step, solution_state)
from .grids import ConvolutionKernel, ImageGrid
from .inner import InnerSolveConfig, PcgBreakdownError, SingularHessianError
from .operators import (diff_gram_spectrum, gram_spectrum,
                        split_operator_rank_check)
from .prox import Potential, potential_value_array, prox_array
from .rates import (DeltaSpectrum, RateReport, compare_sb_vs_admm,
                    delta_spectrum, dense_transition_oracle, optimal_penalties,
                    predict, rate_s1, rate_s2, rate_s3)

__version__ = "0.1.0"
