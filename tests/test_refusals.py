"""Typed refusals of bad input, one case per refusal: the library raises its
error class, and the command line maps it to its exit code."""

from __future__ import annotations

import json

import numpy as np
import pytest

from modsketch.block_random import (
    BlockParams,
    DimensionMismatchError,
    ParameterError,
    auto_params,
    decode_column_signature,
    encode_column_signature,
    sample_matrix,
)
from modsketch.calibrated import measure_noise_profile
from modsketch.cli import EXIT_CONFIG, EXIT_VALIDATION, ConfigError, build_parser, main
from modsketch.dictlearn import DLConfig, learn_dictionary, unroll_network
from modsketch.network import (
    DepthConsistencyError,
    ModularNetwork,
    Module,
    NetworkValidationError,
    ObjectNode,
    OutputModuleError,
    SyntheticProfile,
    UnknownFieldError,
    build_network,
    effective_weight,
    generate_synthetic,
    load_network,
)
from modsketch.recovery import (
    PathStep,
    RecoveryError,
    beta_factor,
    recover_attributes_by_path,
    recover_frequency,
    sketch_similarity,
)
from modsketch.repository import SketchRepository
from modsketch.sketcher import MatrixRegistry, Sketch, erase_to_prefix, overall_sketch, save_sketch, tuple_sketch

P8 = BlockParams(b=18, q=0.5, d=8, n_cap=8)
P24 = BlockParams(b=24, q=0.5, d=24, n_cap=12)
NETWORK_TEXT = (
    "[network]\ndimension = 24\n[modules]\noutput out\nmodule leaf\n"
    "[objects]\nobject root out\nobject a leaf 0:0.6\n[edges]\nroot a 1.0\n"
)


def sketch(d: int) -> Sketch:
    return Sketch(values=np.zeros(d), kind="overall", depth=1, erased_prefix=d)


def star(d=24, root_attrs=(), n_cap=None, chained=False, n_multiplier=3):
    """root -> a, and a -> b when chained, every object of module "leaf"."""
    objects = [{"id": "root", "module": "out", "attributes": list(root_attrs)}, {"id": "a", "module": "leaf"}]
    edges = [("root", "a", 1.0)]
    if chained:
        objects.append({"id": "b", "module": "leaf"})
        edges.append(("a", "b", 1.0))
    modules = [{"id": "out", "output": True}, {"id": "leaf"}]
    return build_network({"modules": modules, "objects": objects, "edges": edges}, d=d, n_multiplier=n_multiplier,
                         n_cap=n_cap)


def dangling() -> ModularNetwork:
    """A hand-built network whose root has an edge to an object it does not
    hold; ``build_network`` and ``load_network`` refuse such an edge."""
    root = ObjectNode("root", "out", np.zeros(0), inputs=[("ghost", 0.5)])
    return ModularNetwork({"out": Module("out", is_output=True)}, {"root": root}, "root", d=24, n_cap=12)


def network_file(tmp_path, old: str, new: str):
    path = tmp_path / "net.txt"
    path.write_text(NETWORK_TEXT.replace(old, new))
    return str(path)


@pytest.mark.parametrize(
    "call, error, match",
    [
        # block_random
        (lambda tmp: BlockParams(b=18, q=0.0, d=8, n_cap=8).entry_scale, ParameterError, "q = 0"),
        (lambda tmp: auto_params(0, 6), ParameterError, "requested dimension"),
        (lambda tmp: encode_column_signature(1, 0, 1, P8), ParameterError, "parity bits"),
        (lambda tmp: decode_column_signature(np.ones(5), P8), DimensionMismatchError, "codeword length"),
        (lambda tmp: measure_noise_profile(("sideways",), "both", 30, P24), ParameterError,
         r"expr_family must be \('plain',\) or \('transparent',\), got \('sideways',\)"),
        (lambda tmp: measure_noise_profile(("plain",), "both", 30, P24, pairs_per_trial=0), ParameterError, "pair"),
        # network
        (lambda tmp: star(root_attrs=[1.0]), OutputModuleError, "pseudo-object"),
        (lambda tmp: star(n_cap=2), NetworkValidationError, "below required floor"),
        (lambda tmp: star(chained=True), DepthConsistencyError, "module 'leaf' has objects at depths 2 and 3"),
        (lambda tmp: effective_weight(star(), ["a"]), NetworkValidationError, "start at the output"),
        (lambda tmp: effective_weight(star(), ["root", "b"]), NetworkValidationError, "no edge"),
        (lambda tmp: effective_weight(dangling(), ["root", "ghost", "x"]), NetworkValidationError,
         "unknown object 'ghost' on path"),
        (lambda tmp: SyntheticProfile(1, 2, 1, weight_scheme="zipf"), NetworkValidationError, "weight scheme"),
        (lambda tmp: load_network(network_file(tmp, "[edges]", "[links]")), UnknownFieldError, r"section \[links\]"),
        (lambda tmp: load_network(network_file(tmp, "0:0.6", "0:x")), UnknownFieldError, "bad attribute pair '0:x'"),
        # sketcher
        (lambda tmp: tuple_sketch([sketch(8)], [1.0], 1, MatrixRegistry(P24, 0, "identity")), ParameterError, "dimension"),
        (lambda tmp: overall_sketch(star(d=32), MatrixRegistry(P24, 0, "identity")), ParameterError, "network dimension 32"),
        (lambda tmp: MatrixRegistry(P24, 0).module_matrix("leaf", 4), ParameterError,
         r"^module matrix slot must be an integer in \[0, 3\], got 4$"),
        # dictlearn, recovery, repository
        (lambda tmp: learn_dictionary(np.zeros((2, 8)), DLConfig(params=P24)), DimensionMismatchError, "dimension 8"),
        (lambda tmp: beta_factor(2, 0.0), RecoveryError, "must be positive"),
        (lambda tmp: sketch_similarity(sketch(8), sketch(12)), ParameterError, "8 vs 12"),
        (lambda tmp: SketchRepository(), ParameterError, "a store without a log needs d"),
        (lambda tmp: SketchRepository(8).cluster(k=0), ParameterError, r"^k must be an integer in \[1, 0\], got 0$"),
        (lambda tmp: SketchRepository(8).cluster(k=2.5), ParameterError, r"^k must be an integer in \[1, 0\], got 2\.5$"),
        (lambda tmp: SketchRepository(8).cluster(k=2.0), ParameterError, r"^k must be an integer in \[1, 0\], got 2\.0$"),
        (lambda tmp: SketchRepository(8).cluster(k="2"), ParameterError, r"^k must be an integer in \[1, 0\], got '2'$"),
        (lambda tmp: SketchRepository(8).query_similar(sketch(8), k=2.5), ParameterError, "k must be an integer"),
        (lambda tmp: SketchRepository(8).query_similar(sketch(8), k=2.0), ParameterError, "k must be an integer"),
        (lambda tmp: SketchRepository(8).query_similar(sketch(8), k="2"), ParameterError, "k must be an integer"),
        # integer arguments and numbers a caller can get wrong
        (lambda tmp: MatrixRegistry(P24, 0).module_matrix("leaf", 1.0), ParameterError,
         r"^module matrix slot must be an integer in \[0, 3\], got 1\.0$"),
        (lambda tmp: MatrixRegistry(P24, 0).module_matrix("leaf", True), ParameterError,
         r"^module matrix slot must be an integer in \[0, 3\], got True$"),
        (lambda tmp: MatrixRegistry(P24, 0).tuple_matrix(1.0, 1), ParameterError,
         r"^tuple position must be an integer >= 1, got 1\.0$"),
        (lambda tmp: MatrixRegistry(P24, 0).tuple_matrix(1, True), ParameterError,
         r"^tuple depth must be an integer >= 1, got True$"),
        (lambda tmp: recover_attributes_by_path(sketch(24), [PathStep(1.0, "leaf")], MatrixRegistry(P24, 0), 1.0),
         ParameterError, r"^tuple position must be an integer >= 1, got 1\.0$"),
        (lambda tmp: MatrixRegistry(P24, 7.0), ParameterError, "master seed must be an integer, got 7.0"),
        (lambda tmp: MatrixRegistry(P24, True), ParameterError, "master seed must be an integer, got True"),
        (lambda tmp: MatrixRegistry(P24, "7"), ParameterError, "master seed must be an integer, got '7'"),
        (lambda tmp: measure_noise_profile(("plain",), "both", 30, P24, master_seed=7.0), ParameterError,
         "master seed must be an integer, got 7.0"),
        (lambda tmp: generate_synthetic(SyntheticProfile(1, 2, 1), 7.0, 24), ParameterError,
         "seed must be an integer, got 7.0"),
        (lambda tmp: tuple_sketch([sketch(24)], [float("nan")], 1, MatrixRegistry(P24, 0, "identity")), ParameterError,
         "weights must be nonnegative with sum <= 1, got sum nan"),
        (lambda tmp: tuple_sketch([sketch(24), Sketch(np.zeros(24), "overall", 1, 24, True)], [0.5, 0.5], 1,
                                  MatrixRegistry(P24, 0, "identity")), ParameterError, "mix signature mode and plain"),
        (lambda tmp: beta_factor(2.0, 1.0), ParameterError, r"^depth must be an integer >= 2, got 2\.0$"),
        (lambda tmp: beta_factor(True, 1.0), ParameterError, r"^depth must be an integer >= 2, got True$"),
        (lambda tmp: beta_factor(2, float("inf")), RecoveryError, "positive and finite, got inf"),
        (lambda tmp: beta_factor(2, float("nan")), RecoveryError, "positive and finite, got nan"),
        (lambda tmp: measure_noise_profile(("plain",), "isometri", 30, P24), ParameterError,
         "mode must be 'isometry' or 'both', got 'isometri'"),
        (lambda tmp: measure_noise_profile((), "both", 30, P24), ParameterError, r"expr_family .* got \(\)"),
        (lambda tmp: measure_noise_profile("plain", "both", 30, P24), ParameterError, "expr_family .* got 'plain'"),
        (lambda tmp: measure_noise_profile(("plain",), "both", 30.5, P24), ParameterError, "trials .* got 30.5"),
        (lambda tmp: measure_noise_profile(("plain",), "both", 30, P24, pairs_per_trial=1.5), ParameterError,
         r"^pairs_per_trial must be an integer >= 1, got 1\.5$"),
        (lambda tmp: auto_params(546.0, 8), ParameterError, "requested dimension must be an integer >= 1, got 546.0"),
        (lambda tmp: auto_params(True, 8), ParameterError, "requested dimension must be an integer >= 1, got True"),
        (lambda tmp: auto_params(546, 8.0), ParameterError, "n_cap must be an integer >= 2, got 8.0"),
        (lambda tmp: BlockParams(b=39.0, q=0.5, d=546, n_cap=8), ParameterError, "b must be an integer, got 39.0"),
        (lambda tmp: BlockParams(b=39, q=0.5, d=546.0, n_cap=8), ParameterError, r"^d must be an integer >= 1, got 546\.0$"),
        (lambda tmp: BlockParams(b=39, q=0.5, d=546, n_cap=8.0), ParameterError,
         r"^n_cap must be an integer >= 2, got 8\.0$"),
        (lambda tmp: erase_to_prefix(sketch(24), 2.5), ParameterError, r"^prefix must be an integer in \[1, 24\], got 2\.5$"),
        (lambda tmp: erase_to_prefix(sketch(24), True), ParameterError, r"^prefix must be an integer in \[1, 24\], got True$"),
        (lambda tmp: SketchRepository(-1), ParameterError, "store dimension must be an integer >= 1, got -1"),
        (lambda tmp: SketchRepository(2.5), ParameterError, "store dimension must be an integer >= 1, got 2.5"),
        # integer arguments the one rule reads since, and numbers and batches
        (lambda tmp: generate_synthetic(SyntheticProfile(1.5, 2, 1), 0, 24), ParameterError,
         r"^n_modules must be an integer >= 1, got 1\.5$"),
        (lambda tmp: SyntheticProfile(2, 2.5, 1), ParameterError, r"^depth must be an integer >= 2, got 2\.5$"),
        (lambda tmp: SyntheticProfile(1, 2, 1, attr_span=8.5), ParameterError,
         r"^attr_span must be an integer >= 1, got 8\.5$"),
        (lambda tmp: star(d=True), ParameterError, r"^d must be an integer >= 1, got True$"),
        (lambda tmp: star(n_cap="9"), ParameterError, r"^n_cap must be an integer, got '9'$"),
        (lambda tmp: star(n_cap=8.0), ParameterError, r"^n_cap must be an integer, got 8\.0$"),
        (lambda tmp: star(n_multiplier=1.5), ParameterError, r"^n_multiplier must be an integer >= 1, got 1\.5$"),
        (lambda tmp: encode_column_signature(1.5, 1, 1, P8), ParameterError,
         r"^column index must be an integer in \[1, 8\], got 1\.5$"),
        (lambda tmp: sample_matrix(P24, "k").column(1.5), ParameterError,
         r"^column must be an integer in \[1, 24\], got 1\.5$"),
        (lambda tmp: sample_matrix(P24, "k").column(0), ParameterError, r"^column must be an integer in \[1, 24\], got 0$"),
        (lambda tmp: sample_matrix(P24, "k").prefix_col_sq_norms(2.5), ParameterError,
         r"^prefix must be an integer in \[0, 24\], got 2\.5$"),
        (lambda tmp: BlockParams(b=39, q="0.5", d=546, n_cap=8), ParameterError,
         r"^q must be a number in \[0, 1\], got '0\.5'$"),
        (lambda tmp: BlockParams(b=39, q=True, d=546, n_cap=8), ParameterError,
         r"^q must be a number in \[0, 1\], got True$"),
        (lambda tmp: auto_params(546, 8, q="0.5"), ParameterError, r"^q must be a number in \[0, 1\], got '0\.5'$"),
        (lambda tmp: DLConfig(P24, eps_recover="0.1"), ParameterError,
         r"^eps_recover must be a number in \(0, 1\], got '0\.1'$"),
        (lambda tmp: recover_frequency(sketch(24), "leaf", 2, 1.0, MatrixRegistry(P24, 0), beta=float("nan")),
         RecoveryError, r"^beta must be positive and finite, got nan$"),
        (lambda tmp: learn_dictionary(np.full((2, 24), np.nan), DLConfig(params=P24)), ParameterError,
         r"^samples must be finite, sample 0 is not$"),
        (lambda tmp: unroll_network(np.full((2, 24), np.nan), P24, 1.0, 3), ParameterError,
         r"^samples must be finite, sample 0 is not$"),
        (lambda tmp: learn_dictionary(np.zeros(24), DLConfig(params=P24)), ParameterError,
         r"^samples must be a 2-D array of real numbers, got a 1-D float64 array$"),
    ],
    ids=[
        "entry-scale-at-q0", "auto-params-d0", "parity-bit", "codeword-length", "factor-kind", "pairs-per-trial",
        "output-attributes", "n-cap-floor", "module-at-two-depths", "path-not-from-output", "path-without-edge",
        "path-through-a-dangling-edge",
        "weight-scheme", "network-section", "network-attribute-pair",
        "tuple-sketch-d", "overall-sketch-d", "slot-4",
        "learn-dictionary-width", "beta-weight", "similarity-d", "store-without-d", "cluster-k0",
        "cluster-k-fraction", "cluster-k-float", "cluster-k-str", "query-k-fraction", "query-k-float", "query-k-str",
        "slot-float", "slot-bool", "tuple-position-float", "tuple-depth-bool", "path-position-float",
        "master-seed-float", "master-seed-bool", "master-seed-str", "noise-seed-float", "synthetic-seed-float",
        "tuple-weight-nan", "tuple-modes-mixed", "beta-depth-float", "beta-depth-bool", "beta-weight-inf",
        "beta-weight-nan", "noise-mode-misspelled", "noise-family-empty", "noise-family-str", "noise-trials-float",
        "noise-pairs-float", "auto-params-d-float", "auto-params-d-bool", "auto-params-n-cap-float",
        "block-params-b-float", "block-params-d-float", "block-params-n-cap-float", "erase-prefix-float",
        "erase-prefix-bool", "store-d-negative", "store-d-float",
        "synthetic-n-modules-float", "synthetic-depth-float", "synthetic-attr-span-float", "network-d-bool",
        "network-n-cap-str", "network-n-cap-float", "network-n-multiplier-float", "encode-column-float",
        "column-float", "column-0", "prefix-norms-float", "block-params-q-str", "block-params-q-bool",
        "auto-params-q-str", "eps-recover-str", "frequency-beta-nan", "learn-dictionary-nan", "unroll-nan",
        "learn-dictionary-1d",
    ],
)
def test_library_refusal(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


LD_PARAMS = {"b": 45, "q": 0.5, "d": 1440, "n_cap": 6}


def config_not_json(tmp_path):
    (tmp_path / "cfg.json").write_text("{seed: 1")
    return ["gen-network", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "net.txt")]


def learn_from_files(tmp_path, dims):
    samples = tmp_path / "samples"
    samples.mkdir()
    for d in dims:
        save_sketch(sketch(d), str(samples / f"s{d}.sketch"))
    cfg = tmp_path / "ld.json"
    cfg.write_text(json.dumps({"learn_mode": "files", "samples_dir": str(samples), "params": LD_PARAMS}))
    return ["learn-dict", "--config", str(cfg), "--out", str(tmp_path / "dict")]


NOT_UTF8 = bytes.fromhex("fffe0062696e")


def config_not_utf8(tmp_path):
    (tmp_path / "cfg.json").write_bytes(NOT_UTF8)
    return ["calibrate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "cal.csv")]


def network_not_utf8(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"d_request": 546, "n_cap": 8}))
    (tmp_path / "net.txt").write_bytes(NOT_UTF8)
    return ["sketch", "--config", str(tmp_path / "cfg.json"), "--network", str(tmp_path / "net.txt"),
            "--out", str(tmp_path / "out.sketch")]


@pytest.mark.parametrize(
    "argv_of, error, message",
    [
        (config_not_json, ConfigError, "config is not valid JSON"),
        (lambda tmp: learn_from_files(tmp, []), ConfigError, "no .sketch files under"),
        (lambda tmp: learn_from_files(tmp, [8]), ConfigError, "dimension 8 != params d 1440"),
        (config_not_utf8, ConfigError, "is not UTF-8 text: invalid start byte at byte 0"),
        (network_not_utf8, NetworkValidationError, "is not UTF-8 text: invalid start byte at byte 0"),
    ],
    ids=["config-not-json", "files-without-sketches", "files-of-another-d", "config-not-utf8", "network-not-utf8"],
)
def test_cli_refusal(tmp_path, capsys, argv_of, error, message):
    argv = argv_of(tmp_path)
    args = build_parser().parse_args(argv)
    with pytest.raises(error, match=message):
        args.handler(args)
    code, prefix = (EXIT_CONFIG, "config error: ") if error is ConfigError else (EXIT_VALIDATION, "validation error: ")
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err and err.count("\n") == 1, err
    assert not any(tmp_path.glob("out.*")) and not any(tmp_path.glob("cal.*"))


def test_cli_refuses_a_network_id_the_text_form_cannot_carry(tmp_path, capsys):
    # "module leaf x" declares the module id "leaf x", which no object line can name
    (tmp_path / "cfg.json").write_text(json.dumps({"d_request": 24, "n_cap": 8, "allow_high_noise": True}))
    net = network_file(tmp_path, "module leaf", "module leaf x")
    argv = ["sketch", "--config", str(tmp_path / "cfg.json"), "--network", net, "--out", str(tmp_path / "out.sketch")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "validation error: module id 'leaf x' is empty, holds whitespace or starts with '#'\n", err
    assert not any(tmp_path.glob("out.*"))
