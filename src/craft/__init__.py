"""Source-free semi-supervised domain adaptation for regression.

A pretrained regressor is adapted to a partially labeled, domain-shifted
target set without touching source data: a supervised loss on the labeled
rows is combined with a batch-normalized pseudo-labeling regularizer that
discourages biased predictions and matches the target label marginal.

The package re-exports nothing: import each name from the module that
defines it, such as ``craft.priors``.
"""

__version__ = "0.1.0"
