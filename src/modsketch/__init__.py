"""Recursive sketching of modular computation DAGs.

The package is organized around six building blocks:

``block_random``
    The block-sparse signed matrix family used everywhere else: the
    column-signature code, seeded sampling, sparse application, and the
    transparent factor.  ``calibrated`` measures its isometry and
    desynchronization noise, fits it, and holds the committed constants.
``network``
    The communication-graph model: modules, objects with weighted input
    edges and normalized attribute vectors, synthetic generation, and a
    text serialization format.
``sketcher``
    The recursive sketch construction over a network, driven by a
    deterministic matrix registry, plus the two flat prototype variants,
    the signature extension, and prefix erasure.
``recovery``
    Everything that interrogates a sketch: attribute recovery (unique and
    path-disambiguated), frequency and summed/mean attribute statistics,
    similarity and signature recovery; each reads the erased prefix and
    the signature mode from the sketch itself.
``dictlearn``
    Recovery of the random matrices and coefficient vectors from sketch
    samples alone, and the level-by-level unrolling that turns overall
    sketches into per-module input/output pairs.
``repository``
    A sketch store held in one contiguous array, with similarity retrieval
    (brute force or hyperplane-bucketed) and seeded k-means clustering.

``cli`` wires the above into the ``modsketch`` command.
"""

from modsketch.block_random import (
    BlockParams,
    BlockRandomMatrix,
    ModsketchError,
    auto_params,
    decode_column_signature,
    encode_column_signature,
    sample_matrix,
)
from modsketch.calibrated import NoiseProfile, measure_noise_profile
from modsketch.dictlearn import (
    DLConfig,
    LearnedDictionary,
    classify_recovered_vectors,
    learn_dictionary,
    match_permutation,
    unroll_network,
)
from modsketch.network import (
    ModularNetwork,
    SyntheticProfile,
    build_network,
    effective_weight,
    generate_synthetic,
    load_network,
    save_network,
)
from modsketch.recovery import (
    PathStep,
    RecoveryReport,
    recover_attributes_by_path,
    recover_attributes_unique,
    recover_frequency,
    recover_mean_attributes,
    recover_signature,
    recover_summed_attributes,
    sketch_similarity,
)
from modsketch.repository import SketchRepository
from modsketch.sketcher import (
    MatrixRegistry,
    Sketch,
    erase_to_prefix,
    overall_sketch,
    prototype_a_overall,
    prototype_b_overall,
)

__all__ = [
    "BlockParams",
    "BlockRandomMatrix",
    "ModsketchError",
    "NoiseProfile",
    "auto_params",
    "decode_column_signature",
    "encode_column_signature",
    "measure_noise_profile",
    "sample_matrix",
    "DLConfig",
    "LearnedDictionary",
    "classify_recovered_vectors",
    "learn_dictionary",
    "match_permutation",
    "unroll_network",
    "ModularNetwork",
    "SyntheticProfile",
    "build_network",
    "effective_weight",
    "generate_synthetic",
    "load_network",
    "save_network",
    "PathStep",
    "RecoveryReport",
    "recover_attributes_by_path",
    "recover_attributes_unique",
    "recover_frequency",
    "recover_mean_attributes",
    "recover_signature",
    "recover_summed_attributes",
    "sketch_similarity",
    "SketchRepository",
    "MatrixRegistry",
    "Sketch",
    "erase_to_prefix",
    "overall_sketch",
    "prototype_a_overall",
    "prototype_b_overall",
]

__version__ = "0.1.0"
