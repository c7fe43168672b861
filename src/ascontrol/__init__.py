"""Tabular average-surprise feedback control.

Hierarchical categorical models on a two-timescale tick schedule, the
per-step pathwise objective and its free-energy terms, brute-force
enumeration oracles, relative value iteration with the reweighted optimal
transition density, path-integral value estimators, gradient training,
and an agent-environment simulator with CSV traces.
"""

from ._kernels import backend_name
from .control import (DifferentialValue, TrainReport, apply_params,
                      dfe_value_and_grad, differential_free_energy,
                      extract_params, fd_gradients, greedy_rollout_rate,
                      greedy_stationary_rate, kl_qstar_identity,
                      mc_path_integral_value, optimal_transition,
                      relative_value_iteration, train)
from .errors import (AscontrolError, ConvergenceError, DegenerateSupportError,
                     DegenerateWeightsError, DimensionMismatchError,
                     EnumerationBudgetError, ImpossibleObservationError,
                     NonFiniteObjectiveError, NonUniqueStationaryError)
from .model import (CompleteState, ConditionalTable, GenerativeModel,
                    ModelSpec, RecognitionContext, RecognitionModel,
                    ReferenceModel, Trajectory, load_models, sample_trajectory,
                    sample_transition, save_models, trajectory_logprob,
                    transition_logprob)
from .objectives import (FreeEnergy, StepObjective, likelihood_surprisal,
                         recognition_logprob, reference_surprisal,
                         step_objective, variational_free_energy)
from .oracle import (enumerate_trajectories, exact_average_rate,
                     exact_marginal_likelihood, exact_path_integral_value,
                     exact_posterior, exact_soft_value, exact_step_posterior)
from .sim import (Environment, Trace, evaluate, observed_reference_surprisal,
                  run_episode, thermostat_agent, thermostat_env, with_uniform_pol0)

__version__ = "0.1.0"
