"""slicegraph: banded distance-weighted graphs over axial slice
sequences, Chebyshev spectral filtering, and a compact multi-label
training/evaluation harness with its own exact gradients.
"""

from .errors import (
    BadMagicError,
    BinaryFormatError,
    ConfigError,
    DegenerateSpectrumError,
    NumericError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .graph import (
    GraphConfig,
    GraphSpec,
    WeightFn,
    build_adjacency,
    build_edge_set,
    degree_vector,
    edge_weight,
)
from .spectral import (
    ScaledLaplacian,
    cheb_apply,
    cheb_basis,
    lambda_max,
    laplacian,
    scale_laplacian,
    scaled_laplacian_from_adjacency,
    spectral_filter_oracle,
)
from .model import (
    GraphOperatorCache,
    ModelParams,
    SampleGraph,
    Variant,
    aggregate_sum,
    bce_loss,
    init_params,
    model_forward,
    prepare_graph,
    sigmoid,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .gradients import (
    backward,
    batch_backward,
    bce_grad_logits,
    central_difference_grads,
    finite_diff_grad,
    run_gradcheck,
)
from .train import (
    OptimState,
    TrainConfig,
    TrainResult,
    adamw_step,
    init_optim_state,
    lr_at,
    train,
)
from .data import (
    Sample,
    SynthTaskConfig,
    apply_z_shift,
    background_feature,
    generate_sample,
    generate_task,
    label_subspace,
    read_dataset,
    read_features,
    write_dataset,
    write_features,
)
from .metrics import (
    LabelMetrics,
    MetricsReport,
    PredictionSet,
    auroc,
    binary_counts,
    evaluate,
    f1_recall_precision_accuracy,
    select_thresholds,
)
from .experiments import (
    AblationGrid,
    desk_task_config,
    desk_train_config,
    format_ablation_text,
    predict,
    robustness_sweep,
    run_ablation,
    run_robustness_experiment,
    train_and_evaluate,
)

__version__ = "0.1.0"
