import types

from .layers import Conv1D, Dense, GlobalAvgPool, MaxPool2, ReLU
from .model import (
    CheckpointError,
    ConvBlock,
    Model,
    ModelConfig,
    cross_entropy,
    decide,
    default_model_config,
    load_checkpoint,
    predict,
    save_checkpoint,
    softmax,
)
from .optim import Adam
from .training import (
    HistoryRow,
    TrainConfig,
    TrainingDiverged,
    dataset_accuracy,
    train,
    write_history,
)

# every public name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
