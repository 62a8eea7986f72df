"""Iterative AND/OR-tree constructions of threshold and staircase functions.

The package covers the full pipeline: exact activation polynomials of
AND/OR trees, fixed-point analysis of mixture polynomials, the catalog of
threshold/staircase constructions, infinite-width convergence profiling,
finite-width and streaming Monte Carlo simulation, and one-shot threshold
learning from a single example string.
"""

from .errors import (AmptreeError, CapacityError, DegenerateInputError,
                     InconsistentFixedPointError, InputShapeError,
                     InvalidStaircaseError, RangeError, WeightError)
from .trees import (AndOrTree, activation, all_trees,
                    achievable_by_degree, achievable_witnesses, and_,
                    and_chain, build_ak, build_bk, complement_tree,
                    enumerate_achievable, eval_tree, fold, format_tree,
                    has_and_path, has_or_path, leaf, or_, or_chain,
                    parse_tree, self_compose, substitute_leaves,
                    tree_polynomial)
from .polyalg import (ATTRACTIVE, MARGINAL, NON_ATTRACTIVE, FixedPoint,
                      FixedPointReport, Polynomial, bisect_root, compose,
                      divergence_ratio, fixed_points, iterate_point, mix,
                      scan_fixed_points)
from .catalog import (GOLDEN, VALIANT_THRESHOLD, AmplifierResult,
                      StaircaseSpec, TreeDistribution, ak_fixed_point,
                      amplifier, bk_fixed_point, dense_fixed_point,
                      linear_threshold, one_step, quad4, quad5, quad6, quad7,
                      quad_k, soft_threshold, staircase, valiant)
from .dynamics import (LINEAR, QUADRATIC, UNDETERMINED, ConditionReport,
                       ConvergenceProfile, certified_corridor, order_estimate,
                       profile, verify_conditions)
from .leveled import (LevelConfig, SimulationTrace, exact_level_distribution,
                      simulate_leveled, width_scaling_experiment)
from .stream import (StreamConfig, StreamTrace, phase_progress_report,
                     simulate_stream)
from .learning import LearnedTree, evaluate_learned, learn_threshold

__version__ = "0.1.0"
