"""pgl: block-decoupled neural-network training with periodic global guidance.

A small numpy autodiff core (``tensor``), a layer library (``layers``),
decoupled backbones with auxiliary heads (``network``), the guided training
loop and its baselines (``training``), an analytic memory estimator
(``memory``), synthetic datasets (``data``), and run plumbing (``config``,
``checkpoint``, ``cli``).
"""

from .tensor import Tensor, backward, create, no_grad
from .network import (AuxHeadSpec, BlockPlan, DecoupledModel, MlpSpec, Partition, ResNetSpec,
                      aux_adapt_policy, block_plans, partition, unit_plan)
from .training import (GUIDED, LOCAL, MetricsRecord, NesterovSGD, Schedule,
                       evaluate, guided_epoch, guided_epoch_count, local_epoch,
                       lr_at, mode_of_epoch, train)
from .config import RunConfig, config_from_dict, parse_config
from .data import Dataset, batches, gen_blobs, gen_spirals, load_idx
from .memory import MemEstimate, estimate, estimate_bp, estimate_local
from .checkpoint import apply_checkpoint, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
