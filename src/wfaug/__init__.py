"""Few-shot website-fingerprinting experiments on Tor direction traces.

Pieces: trace I/O and synthetic data (traces), deterministic seeding
(seeding), harmonious augmentation operators (augment), a discrete TPE
hyperparameter optimizer (tpe), a from-scratch 1D CNN with training loop
(nn), evaluation and experiment running (evaluate), and the manifest-driven
command line (manifest, cli).
"""

import types

from .augment import (AugConfig, MASKING, MIXING, OPERATORS, ROTATION,
                      hda_batch, sample_lambda, sample_mask, sample_rotation)
from .evaluate import (ConfusionSummary, ExperimentConfig, OperatingPoint,
                       RunReport, THRESHOLD_GRID, TuneSpec, aggregate_metrics,
                       closed_accuracy, config_digest,
                       confusion_from_predictions, fit_spaces_to_length,
                       open_world_eval, open_world_metrics, report_json,
                       report_table, run_experiment, sweep_operating_points,
                       tune_augmentation, write_report)
from .manifest import KNOWN_KEYS, Manifest, ManifestError
from .nn import (Adam, CheckpointError, Conv1D, ConvBlock, Dense,
                 GlobalAvgPool, HistoryRow, MaxPool2, Model, ModelConfig,
                 ReLU, TrainConfig, TrainingDiverged, cross_entropy,
                 dataset_accuracy, decide, default_model_config,
                 load_checkpoint, predict, save_checkpoint, softmax, train,
                 write_history)
from .seeding import derive_rng
from .tpe import (ObjectiveError, SearchSpace, StageTrial, TpeTrial,
                  default_budget, default_spaces, optimize_independent,
                  optimize_one, optimize_sequential, tpe_suggest,
                  write_trial_log)
from .traces import (BACKGROUND, Dataset, SplitSpec, TraceFormatError,
                     load_dataset, make_splits, one_hot_labels, save_dataset,
                     synth_dataset)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
