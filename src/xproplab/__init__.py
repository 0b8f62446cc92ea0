"""Propensity models, unbiased long-tail metrics and bias-controlled experiments
for extreme multi-label classification."""

__version__ = "0.1.0"

from .data import (ImbalanceStats, LabelPriors, ParseError, SparseDataset,
                   estimate_priors, imbalance_stats, parse_xmlc_file,
                   write_xmlc_file)
from .propensity import (PropensityAssignment, PropensityModelSpec, assign,
                         direct_estimate, eval_freq_sigmoid, eval_power, eval_richards)
from .propfit import FitProblem, FitResult, fit_family, fit_mse, lm_fit
from .metrics import (MetricValue, PredictionMatrix, abandonment_at_k,
                      check_unbiased_estimator_exists, coverage_at_k,
                      macro_f_beta, ndcg_at_k, normalized_psp_at_k,
                      precision_at_k, ps_ndcg_at_k, ps_precision_at_k,
                      ps_recall_at_k, recall_at_k, weighted_precision_at_k)
from .datagen import HyperBallConfig, NoiseTrace, generate_hyperball, inject_missing
from .train import (LinearOvaModel, Loss, TrainConfig, load_model, loss_pejl_mask,
                    loss_pejl_plug, loss_unbiased, predict, save_model,
                    train_ova)
from .experiments import (ExperimentConfig, ExperimentReport, emit_plot_data,
                          run_feasibility_demo, run_mismatch_experiment,
                          run_propensity_recovery)
