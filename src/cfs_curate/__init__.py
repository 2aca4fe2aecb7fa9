"""Desk-scale toolkit for forgetting-score data curation and stem analysis.

The package ranks candidate records by the cosine between their features
under a source-trained proxy and a target-trained proxy, filters the top
fraction, and supplies the supporting machinery: similarity thresholds
with their distance identity, three patch-embedding stems with exact
manual gradients, augmentation-stability reports, an empirical
hypothesis-divergence estimator with an excess-risk bound evaluator, a
deterministic synthetic two-domain corpus, and binary/JSON persistence
behind the ``cfs-curate`` command line tool.
"""

from .cfs import (
    ScoreTable,
    check_distance_identity,
    count_for_ratio,
    filter_top,
    score_corpus,
    theorem_threshold,
)
from .divergence import (
    BoundInputs,
    StumpClass,
    build_stumps,
    erb_bound_rhs,
    hdh_empirical,
)
from .embeddings import EmbeddingSet
from .encoder import (
    ViTConfig,
    encoder_backward,
    encoder_forward,
    encoder_forward_cached,
    init_params,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateFeatureError,
    DimensionError,
    EmptyInputError,
    FormatError,
    RangeError,
)
from .formats import (
    read_embeddings,
    read_image_ppm,
    read_report,
    write_embeddings,
    write_image_ppm,
    write_report,
)
from .invariance import (
    AUGMENTATION_KINDS,
    AugmentationSpec,
    CkaEntry,
    CkaReport,
    augment,
    cka_linear,
    default_specs,
    invariance_report,
)
from .pipeline import (
    compare_on_synth_corpus,
    default_vit_config,
    embed_images,
    score_synth_corpus,
)
from .selection import (
    SelectionConfig,
    SelectionReport,
    compare_strategies,
    kmeans_fit,
    select_cluster,
    select_random,
)
from .stems import VARIANTS, StemConfig, init_stem_params, stem_forward
from .synth import ShiftSpec, SynthCorpus, synth_corpus

__version__ = "0.1.0"

__all__ = [
    "AUGMENTATION_KINDS",
    "AlignmentError",
    "AugmentationSpec",
    "BoundInputs",
    "CkaEntry",
    "CkaReport",
    "ConfigError",
    "DegenerateFeatureError",
    "DimensionError",
    "EmbeddingSet",
    "EmptyInputError",
    "FormatError",
    "RangeError",
    "ScoreTable",
    "SelectionConfig",
    "SelectionReport",
    "ShiftSpec",
    "StemConfig",
    "StumpClass",
    "SynthCorpus",
    "VARIANTS",
    "ViTConfig",
    "augment",
    "build_stumps",
    "check_distance_identity",
    "cka_linear",
    "compare_on_synth_corpus",
    "compare_strategies",
    "count_for_ratio",
    "default_specs",
    "default_vit_config",
    "embed_images",
    "encoder_backward",
    "encoder_forward",
    "encoder_forward_cached",
    "erb_bound_rhs",
    "filter_top",
    "hdh_empirical",
    "init_params",
    "init_stem_params",
    "invariance_report",
    "kmeans_fit",
    "read_embeddings",
    "read_image_ppm",
    "read_report",
    "score_corpus",
    "score_synth_corpus",
    "select_cluster",
    "select_random",
    "stem_forward",
    "synth_corpus",
    "theorem_threshold",
    "write_embeddings",
    "write_image_ppm",
    "write_report",
]
