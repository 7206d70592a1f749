"""Desk-scale lab for dynamically reweighted fine-tuning objectives."""

from .allocator import process_libc, set_malloc_thresholds
from .autodiff import ComputationRecord, Tensor, backward, stop_gradient
from .losses import LossSpec
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .tasks import Demonstration, TaskSpec
from .training import RunConfig, TrainingAborted, train_run

# Keep a training step's freed pages mapped for the next step (dftlab.allocator).
set_malloc_thresholds(process_libc())

__all__ = [
    "ComputationRecord",
    "Tensor",
    "backward",
    "stop_gradient",
    "LossSpec",
    "Model",
    "ModelConfig",
    "load_checkpoint",
    "save_checkpoint",
    "Demonstration",
    "TaskSpec",
    "RunConfig",
    "TrainingAborted",
    "train_run",
]
