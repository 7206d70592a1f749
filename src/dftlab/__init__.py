"""Desk-scale lab for dynamically reweighted fine-tuning objectives."""

import os
import sys

# One BLAS thread unless the user chose otherwise: the lab's matrices are
# small, its second core already runs half of each batch's rows, and BLAS
# threads would compete with both. Only before numpy's first import, which
# is when BLAS reads these variables.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

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
