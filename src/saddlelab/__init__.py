"""saddlelab: Monte Carlo laboratory for stochastic-approximation dynamics
near degenerate saddle points."""

__version__ = "0.1.0"

from .analysis import (ClassifierConfig, MCResult, Outcome, classify,
                       estimate_probability, moment_compare,
                       never_return_alpha, remaining_variance, wilson_interval)
from .continuous import (BrownianPath, TimeGrid, Trajectory,
                         brownian_increments, quadratic_variation,
                         simulate_coupled, simulate_em)
from .discrete import (NoiseSpec, UrnSpec, simulate_sgd, simulate_urn,
                       urn_as_sgd_check, z_diagnostics)
from .experiments import ExperimentConfig, phase_sweep, run_dichotomy
from .model import (DriftSpec, MeanFlowFrame, NoiseSchedule, ProcessSpec,
                    drift_eval, gamma_threshold, mean_flow_h,
                    time_change_exp, time_change_power, z_coordinate)
