"""Uncertainty-weighted dual-student knowledge distillation, desk scale.

A frozen teacher guides two smaller heterogeneous students through
temperature-scaled soft targets weighted by the teacher's own predictive
confidence, while the students additionally distill from each other with
stopped gradients. Everything runs on a self-contained float64 autodiff
engine; no external ML framework is involved.
"""

from .data import (
    Dataset,
    DatasetSpec,
    augment,
    batches,
    bayes_oracle_accuracy,
    generate,
    load_dataset,
    save_dataset,
)
from .distill import (
    LossBreakdown,
    UncertaintyStats,
    confidence_weight,
    entropy,
    hard_loss,
    kl_div,
    peer_loss,
    teacher_loss,
    total_loss,
    uncertainty_stats,
)
from .errors import (
    ContractError,
    DataError,
    DistributionError,
    FormatError,
    LabelError,
    NumericError,
    ParameterError,
    ShapeError,
    SpecError,
    UkdError,
)
from .gradcore import Tensor, backward, detach, log_softmax, matmul, no_grad, relu, zero_grad
from .harness import (
    MetricsRecord,
    RunResult,
    Seeds,
    TrainConfig,
    ablate,
    confidence_for_mode,
    evaluate,
    load_checkpoint,
    pretrain_teacher,
    save_checkpoint,
    train,
    train_step_dual,
)
from .nets import (
    LayerSpec,
    Network,
    build,
    compression_ratio,
    default_student1_spec,
    default_student2_spec,
    default_teacher_spec,
    forward,
    param_count,
)
from .optim import CosineSchedule, SgdState, lr_at, sgd_step

__version__ = "0.1.0"
