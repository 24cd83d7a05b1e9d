"""Neyman-Pearson classification by convex aggregation of base classifiers.

The package minimizes empirical surrogate type-II risk over mixtures of
base classifiers subject to a strengthened surrogate type-I constraint,
implements the matching chance-constrained optimization variant, and
ships exact/Monte-Carlo verification of the underlying probabilistic
guarantees plus a CLI for reproducible experiment reports.
"""

from .bounds import (LemmaCheckResult, binomial_tail_exact, check_lemma_bin,
                     check_lemma_bin2, check_prop42,
                     check_rademacher_vertex_identity, check_sup_deviation,
                     gamma_curve, sweep_binomial_lemmas)
from .ccp import (AffineForm, CCPInstance, CCPSolution, SmoothForm, ccp_bound,
                  chance_feasibility_estimate, chance_violation_from_matrix,
                  evaluate_constraint_bases, grid_oracle_ccp, linear_objective,
                  solve_ccp)
from .errors import (BaseRangeError, DimensionMismatch, DomainError, EmptyData,
                     EmptySample, HypothesisFailed, Infeasible, NonFiniteValue,
                     NPConvexError, OneClassEmpty, SampleTooSmall, SchemaError,
                     UnknownLabel, UnknownScenario)
from .hypothesis import (BaseDictionary, CombinedClassifier, ConstantClassifier,
                         DecisionStump, FunctionClassifier, SimplexWeights,
                         build_stump_dictionary)
from .np_solver import (BoundReport, NPConfig, NPSolution, alpha_kappa,
                        eps_bar_upper, feasibility_probe, grid_oracle_np, kappa,
                        n0_and_bound, pooled_bound, solve_np, split_pooled)
from .risk import (RiskReport, Sample, WeightedAtoms, empirical_01_type1,
                   empirical_01_type2, empirical_atoms, empirical_phi_type1,
                   empirical_phi_type2, exact_risks_prop31, monte_carlo_risk,
                   risk_report)
from .surrogate import Surrogate, by_name, custom, exponential, hinge, logit

__version__ = "0.1.0"
