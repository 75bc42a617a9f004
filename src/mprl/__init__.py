"""Virtual labels for unlabeled generated data, with the training and
retrieval-evaluation stack needed to compare them.

The package implements four labeling schemes for samples that have no
ground-truth class (an extra all-in-one class, one-hot pseudo labels,
the uniform LSRO label, and rank-weighted multi-pseudo labels), the
exact forward losses and backward gradients they induce, a small
manually-backpropagated classifier whose penultimate activation serves
as a retrieval embedding, deterministic synthetic datasets, seven
training strategies, and CMC/mAP evaluation.
"""

from .errors import (
    GenerationFailure,
    InvalidClass,
    InvalidConfig,
    InvalidDimension,
    InvalidState,
    MprlError,
    ProtocolViolation,
    SpecError,
)
from .labels import (
    all_in_one_label,
    ground_truth_label,
    lsro_label,
    mprl_alpha,
    mprl_label,
    mprl_rows,
    one_hot_pseudo_label,
    rank_weight_normalizer,
    row_ranks,
    softmax,
    virtual_labels,
)
from .losses import (
    CombinedLoss,
    GradientMode,
    LossOutput,
    combined_loss,
    lsro_loss,
    mprl_generated_loss,
    real_ce_loss,
    weighted_ce,
    weighted_ce_values,
    weighted_ce_values_by_label,
)
from .net import (
    ModelParams,
    OptimizerState,
    ParamGrads,
    backward,
    forward,
    init_optimizer,
    init_params,
    load_params,
    save_params,
    sgd_step,
)
from .retrieval import (
    EmbeddingSet,
    EvalReport,
    evaluate,
    load_embeddings,
    pairwise_sq_euclidean,
    report_to_json,
    save_embeddings,
    save_report,
)
from .synthgen import (
    Dataset,
    make_generated_dataset,
    make_real_dataset,
    save_dataset,
)
from .trainer import (
    Cohort,
    EpochRecord,
    Strategy,
    TrainConfig,
    TrainHistory,
    TrainSettings,
    assign_static_labels,
    extract_embeddings,
    pretrain_baseline,
    train,
)

__version__ = "0.1.0"
