"""The bytes of every command, pinned.

Each CLI command runs once, at the small sizes of ``test_cli_contract.py``
(network d=90, learn-dict b=36, q=0.5, d=288), each step writing into its
own directory.  Every output file and the step's stdout (with the temporary
directory masked) is hashed with BLAKE2b and compared with the digests in
``GOLDEN``.  A change that is meant to keep every command's output bit for
bit leaves this test passing; one that changes bytes on purpose records the
digests again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import shutil
import sys
import tempfile

import pytest

from modsketch.cli import main

NET = {"seed": 1, "dimension": 90, "profile": {"n_modules": 2, "depth": 3, "fan_in": 2, "attr_sparsity": 2}}
LD_NET = {"dimension": 288, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}}
LD_PARAMS = {"b": 36, "q": 0.5, "d": 288, "n_cap": 12}
QUERIES = {
    "attributes_unique": {"module": "m1", "h": 3, "w": 0.25},
    "attributes_by_path": {"path": [{"position": 1, "module": "m0"}, {"position": 1, "module": "m1"}], "w": 0.25},
    "frequency": {"module": "m0", "w": 0.5},
    "summed_attributes": {"module": "m1", "h": 3, "w": 0.25},
    "mean_attributes": {"module": "m0", "w": 0.5},
    "signature": {"module": "m0", "w": 0.5},
}

GOLDEN: dict[str, dict[str, str]] = {
    "calibrate": {
        "delta_table.csv": "41cd95e2dcbc6c7d5b30fb223ad0849f",
        "stdout": "f5a0d008969f8266b3d237168704672a",
    },
    "gen-network": {
        "net.txt": "be62ee7ad67825bbeb637f85c1fdbeec",
        "stdout": "59595728767c63f9915954a855f02650",
    },
    "gen-network-ld0": {
        "net.txt": "9de2e13088f3b1ee6d5cf03c28bfaebf",
        "stdout": "b9c07f00174e0e640718db4c2f19b348",
    },
    "gen-network-ld1": {
        "net.txt": "002521872a653e61fbc8fc475c67c130",
        "stdout": "9af4f322c8b2280064d43adb3b8ea926",
    },
    "gen-network-ld2": {
        "net.txt": "f490dcf6ae7290d72984b7b948155f92",
        "stdout": "eab56ac7fec397a123f361052a192520",
    },
    "learn-dict-files": {
        "coefficients.csv": "91651ea0d1fd1d679a7858ede688d21a",
        "report.csv": "9bbe4053655c36a3b240d4d73df532a3",
        "signatures.txt": "cae66941d9efbd404e4d88758ea67670",
        "stdout": "5f88cbfa0c21267e40925184fe11eee6",
    },
    "learn-dict-plant": {
        "atoms/atom_0_12.txt": "c77a65a1ea02644c346f323f6122c83d",
        "atoms/atom_0_131.txt": "4680b87ccc01d40cd1360d5c1dc74e1e",
        "atoms/atom_0_190.txt": "c1679b4cb954f24087db9ed0c5b11a27",
        "atoms/atom_1_103.txt": "83ada08ecc9ae9feb01171d585475091",
        "atoms/atom_1_120.txt": "625ce7b9e12048c6c71e9f6e537e4406",
        "atoms/atom_1_135.txt": "f3df683135292a573131cfe8381ebe78",
        "atoms/atom_1_17.txt": "1d63bce9947bf4a7e9b8f1e6fd57b8c1",
        "atoms/atom_1_182.txt": "be3d773ddf0a9e25d789777e5cad94e8",
        "atoms/atom_1_23.txt": "ed767bd9ca5ac7c85f60e827dea4e2dd",
        "atoms/atom_1_258.txt": "dc361313c574f2ae4c2e6e7f1b0c4150",
        "coefficients.csv": "ba9fd3611ad8798de80f1a3170a4f95f",
        "permutation.csv": "d1b64264718556435f68e926990b6469",
        "report.csv": "e0e72eb95eccdbd8861828b09355fad0",
        "signatures.txt": "b7218e24a139849157b33fb0359ba0fb",
        "stdout": "9a25df60f453fcc7246e85e79e53acf0",
    },
    "recover-attributes_by_path": {
        "rec.csv": "ce33d35e3e921ce5269c6f6145d8ff3b",
        "stdout": "256b062f69d9f47fae957c0db6c0f436",
    },
    "recover-attributes_unique": {
        "rec.csv": "08bf2eefe02f34bd92abc141c48a4324",
        "stdout": "54f25fb9ac7f4ca2ef5b104746ef699a",
    },
    "recover-frequency": {
        "rec.csv": "ad518ffac2cf633af52fae8a1c7abe12",
        "stdout": "a1c96ed56437ce8beca87f655fd17c9c",
    },
    "recover-mean_attributes": {
        "rec.csv": "9b800b87d1a57cf564f1015f6e4f4eba",
        "stdout": "3c2b8d59fe10e095337560466939b629",
    },
    "recover-signature": {
        "rec.csv": "68c33b2258ae87dbf7660ac6556ea2e0",
        "stdout": "e6c90d090c93a65d1e30d9d19d709d5c",
    },
    "recover-summed_attributes": {
        "rec.csv": "c0a4be66aad56d45bb2e3c89f6c4c5ac",
        "stdout": "352d1792ae964502c24c575e40b270ad",
    },
    "repo-cluster": {
        "stdout": "4d30e76cdd96d6f3ac7babd988c721c4",
    },
    "repo-insert": {
        "stdout": "8fe23b774847a95d1069a88418543cea",
        "store.log": "c2a72e1a5650a348756d40c0be9fa3d4",
    },
    "repo-insert-default-id": {
        "stdout": "9da612f5b987052ca4d5ca707b9954eb",
        "store.log": "d4627c3a6c405d59fbdbd661e89c22e5",
    },
    "repo-insert-signed": {
        "stdout": "c069cfc434d386c461b98893ea0907c9",
        "store.log": "d1806fb11d5a1d8655206a91821241ae",
    },
    "repo-query": {
        "stdout": "73ca28524c97cb0f34fea94b98e6ed41",
    },
    "run-attr-error-vs-d": {
        "results.csv": "9d5d886c1fe69e73c971097b11f8d405",
        "stdout": "a888529a86e997692126e7e06dccec9e",
    },
    "run-similarity-pairs": {
        "results.csv": "ca42c99e2d2eda53f91f1d7626888b73",
        "stdout": "66271a2dbea036b2cb9d7a65a2578663",
    },
    "similarity": {
        "sim.csv": "66d2d3bb233ca7ea486cf3b6a7cd09fe",
        "stdout": "44695c09925141898a03b366f426791e",
    },
    "sketch-csv": {
        "net.sketch": "ff0816c4cf1b0743e78289e2329983f8",
        "net.sketch.csv": "5058e8dd66afa74c2134aeb55f1cdcf0",
        "stdout": "b248d106a1dbccae127255761aaaac46",
    },
    "sketch-erased": {
        "erased.sketch": "be5ab7491e5df72d7275878f76df8435",
        "stdout": "dfb455d3f9761fb2b9e83a9528c0ea53",
    },
    "sketch-ld0": {
        "s.sketch": "adc84293ae13b2008bc7466732f70038",
        "stdout": "cdf3aafc2001f9d5f52650ade3dfe067",
    },
    "sketch-ld1": {
        "s.sketch": "2c77aa95c67ff4bea452eaa8ae8c3bd9",
        "stdout": "1b193b246d67033383aec7ba951ee7d5",
    },
    "sketch-ld2": {
        "s.sketch": "e6cac82b805f2ebfb34c22a9c2f7d4f8",
        "stdout": "196a3c1a64712aee24ce63d1c0e0a8dd",
    },
    "sketch-signature": {
        "sig.sketch": "93edbda4f7f51585347573bea2d50a41",
        "stdout": "188bf72644348cf332c3e449d88a5ab5",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def run_all(root: pathlib.Path) -> dict[str, dict[str, str]]:
    """Run every step under ``root``; step name -> {output file or "stdout": digest}."""
    digests: dict[str, dict[str, str]] = {}

    def config(name, payload):
        path = root / "configs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload))
        return str(path)

    def step(name, argv):
        out_dir = root / name
        out_dir.mkdir()
        argv = [a.replace("{out}", str(out_dir)) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            got = main(argv)
        assert got == 0, (name, got, stderr.getvalue())
        files = {str(p.relative_to(out_dir)): _digest(p.read_bytes())
                 for p in sorted(out_dir.rglob("*")) if p.is_file()}
        digests[name] = {**files, "stdout": _digest(stdout.getvalue().replace(str(root), "<tmp>").encode())}
        return out_dir

    net = step("gen-network", ["gen-network", "--config", config("gen", NET), "--out", "{out}/net.txt"]) / "net.txt"
    plain = step("sketch-csv", ["sketch", "--config", config("sk", {"seed": 1, "allow_high_noise": True, "csv": True}),
                                "--network", str(net), "--out", "{out}/net.sketch"]) / "net.sketch"
    sig_cfg = config("sk_sig", {"seed": 1, "allow_high_noise": True, "signature": True, "erase_to": 60})
    signed = step("sketch-signature", ["sketch", "--config", sig_cfg, "--network", str(net),
                                       "--out", "{out}/sig.sketch"]) / "sig.sketch"
    erased_cfg = config("sk_erased", {"seed": 1, "allow_high_noise": True, "erase_to": 60})
    erased = step("sketch-erased", ["sketch", "--config", erased_cfg, "--network", str(net),
                                    "--out", "{out}/erased.sketch"]) / "erased.sketch"
    params = {"d_request": 90, "n_cap": 18}
    for kind, query in QUERIES.items():
        cfg = config(f"rec_{kind}", {"seed": 1, "allow_high_noise": True, "params": params,
                                     "query": {"kind": kind, **query}})
        sketch = signed if kind == "signature" else plain
        step(f"recover-{kind}", ["recover", "--config", cfg, "--sketch", str(sketch), "--out", "{out}/rec.csv"])
    step("similarity", ["similarity", "--sketch-a", str(erased), "--sketch-b", str(signed), "--out", "{out}/sim.csv"])
    run_cfgs = {
        "attr-error-vs-d": {"run_id": "r", "seed": 1, "dims": [64], "seeds": 2, "n_cap": 8, "attributes": [0.6, 0.8]},
        "similarity-pairs": {"seed": 1, "d": 64, "seeds": 2, "n_cap": 8},
    }
    for experiment, cfg in run_cfgs.items():
        step(f"run-{experiment}", ["run", "--config", config(experiment, {"experiment": experiment, **cfg}),
                                   "--out", "{out}/results.csv"])
    cal = {"run_id": "c", "seed": 1, "n_cap": 8, "dims": [64, 128], "trials": 30, "quantile": 0.9}
    step("calibrate", ["calibrate", "--config", config("cal", cal), "--out", "{out}"])
    plant = {"learn_mode": "plant", "seed": 2, "params": LD_PARAMS, "n_matrices": 2, "n_samples": 12}
    step("learn-dict-plant", ["learn-dict", "--config", config("plant", plant), "--out", "{out}"])
    samples = root / "samples"
    samples.mkdir()
    ld_sk = config("ld_sk", {"seed": 1, "allow_high_noise": True, "params": {"d_request": 288, "n_cap": 6}})
    for i in range(3):
        ld_net = step(f"gen-network-ld{i}", ["gen-network", "--config", config(f"ld{i}", {"seed": 10 + i, **LD_NET}),
                                            "--out", "{out}/net.txt"]) / "net.txt"
        made = step(f"sketch-ld{i}", ["sketch", "--config", ld_sk, "--network", str(ld_net), "--out", "{out}/s.sketch"])
        shutil.copyfile(made / "s.sketch", samples / f"{i}.sketch")
    files = {"learn_mode": "files", "params": LD_PARAMS, "samples_dir": str(samples)}
    step("learn-dict-files", ["learn-dict", "--config", config("files", files), "--out", "{out}"])
    store = root / "repo-insert" / "store.log"
    step("repo-insert", ["repo", "insert", "--store", "{out}/store.log", "--sketch", str(plain),
                         "--id", "plain", "--tag", "kind=plain"])
    for name, sketch in (("signed", signed), (None, plain)):
        id_args = ["--id", name] if name else []
        step(f"repo-insert-{name or 'default-id'}", ["repo", "insert", "--store", str(store), "--sketch", str(sketch)]
             + id_args)
        digests[f"repo-insert-{name or 'default-id'}"]["store.log"] = _digest(store.read_bytes())
    step("repo-query", ["repo", "query", "--store", str(store), "--sketch", str(signed), "--k", "2"])
    step("repo-cluster", ["repo", "cluster", "--store", str(store), "--k", "2"])
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


def test_every_step_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_step_bytes(digests, name):
    assert digests[name] == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(pathlib.Path(tmp))
    json.dump(got, sys.stdout, indent=1, sort_keys=True)
    print()
