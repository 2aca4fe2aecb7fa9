"""Corpus embedding and the end-to-end selection pipeline.

Training proxy models is out of scope at desk scale, so the target proxy
is synthesized from the source proxy: the same encoder preceded by
per-image channel-mean alignment to the target corpus palette. A source
record whose palette already matches the target is nearly a fixed point
of the alignment, so its two features agree and it scores near 1; a
record with strong appearance bias is moved far and scores low. That is
exactly the behavior the scoring pipeline needs from an adapted proxy:
agreement on target-like records, disagreement on biased ones.

The synthesized pipelines (:func:`score_synth_corpus` and
:func:`compare_on_synth_corpus`) always use the patchify stem. A conv or
ics stem normalizes each image after edge-padded convolutions, and that
cancels exactly the per-image channel-mean shift the alignment applies:
both proxies would give every record the same feature up to rounding,
and the scores would rank floating-point noise.

:func:`embed_images` is the one corpus encoder: one forward pass per
chunk of rows, encoded as (n, 1, 3, H, W) so that each image is its own
batch on a leading axis and every normalization takes that image's
statistics alone. A record's feature, and therefore its score and rank,
is bitwise what encoding it alone would give and never depends on which
other records happen to be embedded alongside it, or on the chunking.
"""

from __future__ import annotations

import numpy as np

from . import cfs, selection
from .embeddings import EmbeddingSet
from .encoder import ViTConfig, encoder_forward, init_params
from .errors import DimensionError
from .stems import StemConfig
from .synth import SynthCorpus

# embed_images encodes this many input bytes per forward pass (42 images
# at 32x32): enough rows to amortize the per-call cost, few enough that
# the activations of one chunk stay small whatever the corpus size.
CHUNK_BYTES = 2**20


def default_vit_config(stem_variant: str, image_size, embed_dim: int = 32,
                       depth: int = 2, patch_stride: int = 16) -> ViTConfig:
    """Small encoder configuration, with two attention heads, used by the
    command-line pipelines."""
    stem = StemConfig(stem_variant, embed_dim=embed_dim, patch_stride=patch_stride)
    return ViTConfig(depth=depth, heads=2, embed_dim=embed_dim, stem=stem,
                     image_size=tuple(image_size))


def embed_images(images, ids, config: ViTConfig, params) -> EmbeddingSet:
    """Encode (N, H, W, 3) images, rows in input order, over chunks of at
    most ``CHUNK_BYTES`` of input. Each chunk goes through the encoder as
    (n, 1, 3, H, W), one batch of one per image, so each record gets
    bitwise the feature it would get if encoded alone. A conv or ics stem
    whose last ladder map is 1x1 is refused, because every image would get
    the same feature."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[-1] != 3:
        raise DimensionError(f"expected (N, H, W, 3) images, got {images.shape}")
    chunk = max(1, CHUNK_BYTES // max(1, images[:1].nbytes))
    features = np.empty((images.shape[0], config.embed_dim))
    for i in range(0, images.shape[0], chunk):
        features[i:i + chunk] = encoder_forward(
            images[i:i + chunk, None].transpose(0, 1, 4, 2, 3), config, params
        )[:, 0]
    return EmbeddingSet(ids, features)


def palette_mean(images) -> np.ndarray:
    """Per-channel mean over a whole (N, H, W, 3) corpus, summed in C
    order whatever the input's layout."""
    arr = np.ascontiguousarray(images, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[-1] != 3 or arr.shape[0] == 0:
        raise DimensionError(f"expected nonempty (N, H, W, 3) images, got {arr.shape}")
    return arr.mean(axis=(0, 1, 2))


def align_channel_means(images, target_palette) -> np.ndarray:
    """Shift each image so its per-channel means equal the target palette.

    Output is NOT clamped: it feeds the encoder, not a display, and
    clamping would break the fixed-point property for in-palette images.
    Each image's means are summed in C order whatever the input's layout.
    """
    arr = np.ascontiguousarray(images, dtype=np.float64)
    palette = np.asarray(target_palette, dtype=np.float64)
    if palette.shape != (3,):
        raise DimensionError(f"palette must have shape (3,), got {palette.shape}")
    per_image = arr.mean(axis=(1, 2), keepdims=True)
    return arr - per_image + palette


def _embed_under_both(corpus: SynthCorpus, proxy_seed: int):
    """The source proxy (the patchify encoder as initialized) and its
    synthesized target counterpart (the same encoder behind alignment to
    the target palette): the encoder, and the source corpus's features
    under each proxy, the two views that scoring consumes."""
    config = default_vit_config("patchify", corpus.source_images.shape[1:3])
    params = init_params(proxy_seed, config)
    aligned = align_channel_means(corpus.source_images, palette_mean(corpus.target_images))
    by_source = embed_images(corpus.source_images, corpus.source_ids, config, params)
    by_target = embed_images(aligned, corpus.source_ids, config, params)
    return config, params, by_source, by_target


def score_synth_corpus(corpus: SynthCorpus, proxy_seed: int = 0) -> cfs.ScoreTable:
    """Score a synthetic corpus end to end with the patchify stem (see the
    module docstring for why no normalizing stem is offered)."""
    _, _, by_source, by_target = _embed_under_both(corpus, proxy_seed)
    return cfs.score_corpus(by_source, by_target)


def compare_on_synth_corpus(corpus: SynthCorpus, configs,
                            proxy_seed: int = 0) -> list[selection.SelectionReport]:
    """Run the strategy comparison end to end on a synthetic corpus with
    the patchify stem, as :func:`score_synth_corpus` does."""
    config, params, by_source, by_target = _embed_under_both(corpus, proxy_seed)
    target_ref = embed_images(corpus.target_images, corpus.target_ids, config, params)
    return selection.compare_strategies(by_source, by_target, target_ref, configs)
