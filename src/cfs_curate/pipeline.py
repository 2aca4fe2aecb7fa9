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

Corpus embedding always encodes in per_image mode: batched forward passes
over chunks of rows in which every normalization uses per-sample
statistics, so a record's feature, and therefore its score and rank, is
bitwise what encoding it alone would give and never depends on which
other records happen to be embedded alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cfs, selection
from .embeddings import EmbeddingSet
from .encoder import ViTConfig, encode_batch, init_params
from .errors import DimensionError
from .invariance import batch_from_images
from .stems import StemConfig
from .synth import SynthCorpus


def default_vit_config(stem_variant: str, image_size, embed_dim: int = 32,
                       depth: int = 2, heads: int = 2,
                       patch_stride: int = 16) -> ViTConfig:
    """Small encoder configuration used by the command-line pipelines."""
    stem = StemConfig(stem_variant, embed_dim=embed_dim, patch_stride=patch_stride)
    return ViTConfig(depth=depth, heads=heads, embed_dim=embed_dim, stem=stem,
                     image_size=tuple(image_size))


def embed_images(images, ids, config: ViTConfig, params) -> EmbeddingSet:
    """Encode (N, H, W, 3) images, rows in input order, in per_image mode:
    each record gets the feature it would get if encoded alone (see
    :func:`encoder.encode_batch`)."""
    return encode_batch(batch_from_images(images), config, params, ids=ids,
                        mode="per_image")


def palette_mean(images) -> np.ndarray:
    """Per-channel mean over a whole (N, H, W, 3) corpus."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[-1] != 3 or arr.shape[0] == 0:
        raise DimensionError(f"expected nonempty (N, H, W, 3) images, got {arr.shape}")
    return arr.mean(axis=(0, 1, 2))


def align_channel_means(images, target_palette) -> np.ndarray:
    """Shift each image so its per-channel means equal the target palette.

    Output is NOT clamped: it feeds the encoder, not a display, and
    clamping would break the fixed-point property for in-palette images.
    """
    arr = np.asarray(images, dtype=np.float64)
    palette = np.asarray(target_palette, dtype=np.float64)
    if palette.shape != (3,):
        raise DimensionError(f"palette must have shape (3,), got {palette.shape}")
    per_image = arr.mean(axis=(1, 2), keepdims=True)
    return arr - per_image + palette


@dataclass(frozen=True)
class ProxyPair:
    """Source proxy (the encoder as initialized) and its synthesized
    target counterpart (the same encoder behind palette alignment)."""

    config: ViTConfig
    params: dict = field(repr=False)
    target_palette: np.ndarray


def make_proxy_pair(seed: int, config: ViTConfig, target_images) -> ProxyPair:
    return ProxyPair(
        config=config,
        params=init_params(seed, config),
        target_palette=palette_mean(target_images),
    )


def embed_source_under_both(pair: ProxyPair, images, ids) -> tuple[EmbeddingSet, EmbeddingSet]:
    """The two views of the source corpus that scoring consumes."""
    by_source = embed_images(images, ids, pair.config, pair.params)
    aligned = align_channel_means(images, pair.target_palette)
    by_target = embed_images(aligned, ids, pair.config, pair.params)
    return by_source, by_target


def score_synth_corpus(corpus: SynthCorpus, proxy_seed: int = 0) -> cfs.ScoreTable:
    """Score a synthetic corpus end to end with the patchify stem (see the
    module docstring for why no normalizing stem is offered)."""
    config = default_vit_config("patchify", corpus.source_images.shape[1:3])
    pair = make_proxy_pair(proxy_seed, config, corpus.target_images)
    by_source, by_target = embed_source_under_both(
        pair, corpus.source_images, corpus.source_ids
    )
    return cfs.score_corpus(by_source, by_target)


def compare_on_synth_corpus(corpus: SynthCorpus, configs,
                            proxy_seed: int = 0) -> list[selection.SelectionReport]:
    """Run the strategy comparison end to end on a synthetic corpus with
    the patchify stem, as :func:`score_synth_corpus` does."""
    config = default_vit_config("patchify", corpus.source_images.shape[1:3])
    pair = make_proxy_pair(proxy_seed, config, corpus.target_images)
    by_source, by_target = embed_source_under_both(
        pair, corpus.source_images, corpus.source_ids
    )
    target_ref = embed_images(
        corpus.target_images, corpus.target_ids, pair.config, pair.params
    )
    return selection.compare_strategies(by_source, by_target, target_ref, configs)
