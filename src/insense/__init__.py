"""Incoherent sensor selection for sparse-signal recovery.

Given d candidate linear sensors (rows of a sensing matrix), pick the m
rows whose columns stay as mutually incoherent as possible, so that
sparse signals survive the trip through the selected rows and back out of
basis pursuit.  The package bundles the projected-gradient selector, the
scaled boxed-simplex projection it relies on, reference baselines, matrix
quality metrics, a basis-pursuit recovery harness, seeded ensemble
generators, the selector registry and benchmark engine
(`insense.experiment`), and a CLI (`insense`) tying them together.
"""

from .baselines import select_exhaustive_mu_avg, select_fp_greedy, select_random
from .datagen import EnsembleSpec, block_layout, generate, load_matrix, manifest, save_matrix
from .exceptions import (
    ExhaustiveLimitError,
    InfeasibleConstraintError,
    InsenseError,
    InvalidSubsetError,
    MatrixParseError,
    SolverFailureError,
)
from .metrics import (
    MetricReport,
    condition_number,
    extract_submatrix,
    frame_potential,
    metric_report,
    mu_avg,
    mu_max,
)
from .optimizer import (
    InsenseConfig,
    SelectionResult,
    coherence_objective,
    gram_gradient,
    gram_matrix,
    run_insense,
    weight_gradient,
)
from .projection import ProjectionResult, project_sbs
from .recovery import BpConfig, RecoveryReport, TrialOutcome, evaluate_recovery, solve_bp
from .seeding import derive_seed, seeded_rng

__version__ = "0.1.0"

__all__ = [
    "BpConfig",
    "EnsembleSpec",
    "ExhaustiveLimitError",
    "InfeasibleConstraintError",
    "InsenseConfig",
    "InsenseError",
    "InvalidSubsetError",
    "MatrixParseError",
    "MetricReport",
    "ProjectionResult",
    "RecoveryReport",
    "SelectionResult",
    "SolverFailureError",
    "TrialOutcome",
    "block_layout",
    "coherence_objective",
    "condition_number",
    "derive_seed",
    "evaluate_recovery",
    "extract_submatrix",
    "frame_potential",
    "generate",
    "gram_gradient",
    "gram_matrix",
    "load_matrix",
    "manifest",
    "metric_report",
    "mu_avg",
    "mu_max",
    "project_sbs",
    "run_insense",
    "save_matrix",
    "seeded_rng",
    "select_exhaustive_mu_avg",
    "select_fp_greedy",
    "select_random",
    "solve_bp",
]
