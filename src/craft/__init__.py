"""Source-free semi-supervised domain adaptation for regression.

A pretrained regressor is adapted to a partially labeled, domain-shifted
target set without touching source data: a supervised loss on the labeled
rows is combined with a batch-normalized pseudo-labeling regularizer that
discourages biased predictions and matches the target label marginal.
"""

from .data import (
    Dataset,
    GeneratorSpec,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    inject_marginal_bias,
    load_csv,
    stratified_label_mask,
    write_csv,
)
from .engine import (
    BinGrid,
    CraftConfig,
    LossBreakdown,
    RunReport,
    craft_loss_and_grad,
    fit_craft,
    fit_tl,
    joint_log_scores,
    make_bin_grid,
    naive_baseline,
    select_pseudo_labels,
)
from .metrics import MetricPair, evaluate, percentage_bend_correlation, rmse
from .network import (
    AdamState,
    Checkpoint,
    MlpSpec,
    RegressorParams,
    adam_step,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .priors import (
    HistogramPrior,
    MixturePrior,
    em_fit,
    fit_histogram_prior,
    prior_log_density,
)

__version__ = "0.1.0"
