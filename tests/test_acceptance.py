"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one measured-vs-limit line (visible in verbose/failed
output) and asserts the criterion exactly as stated.  Shared heavy
experiments (attribute recovery, frequency counting) run once in
module-scoped fixtures and feed the criteria that reference them.

Criterion 8 (graceful erasure) asserts bounded error inflation on the
half prefix for both halves of the criterion: attribute errors and count
errors.  Exact rounding of every count is asserted only on full sketches
(criterion 5); the erased estimate is promised exact only while its noise
stays below 1/2, which the half prefix does not guarantee.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from modsketch.block_random import (
    BlockParams,
    auto_params,
    decode_column_signature,
    encode_column_signature,
    sample_matrix,
)
from modsketch.calibrated import measure_noise_profile
from modsketch.dictlearn import DLConfig, learn_dictionary, match_permutation, unroll_network
from modsketch.network import build_network
from modsketch.recovery import (
    PathStep,
    predicted_error,
    recover_attributes_by_path,
    recover_attributes_unique,
    recover_frequency,
    sketch_similarity,
)
from modsketch.sketcher import (
    MatrixRegistry,
    erase_to_prefix,
    overall_sketch,
    prototype_a_overall,
    prototype_b_overall,
)

ATTRS = [0.6, 0.0, 0.8]


def report(criterion: str, detail: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")


def leaf_net(d, weight=1.0, attrs=ATTRS, module="leaf", n_cap=None):
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": module}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": module, "attributes": list(attrs)},
            ],
            "edges": [("root", "a", weight)],
        },
        d=d,
        n_cap=n_cap,
    )


# ---------------------------------------------------------------------------
# Criterion 1: Enc/Dec exhaustive roundtrip, d in {8, 64, 1024}, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_1_enc_dec_roundtrip():
    t0 = time.time()
    for d in (8, 64, 1024):
        b = 3 * (math.ceil(math.log2(d)) + 3)
        params = BlockParams(b=b, q=0.5, d=d, n_cap=d)
        for j in range(1, d + 1):
            for b_m in (-1, 1):
                for b_s in (-1, 1):
                    code = encode_column_signature(j, b_m, b_s, params)
                    assert decode_column_signature(code, params) == (j, b_m)
                    assert decode_column_signature(-code, params) == (j, b_m)
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    report("criterion 1", f"exhaustive roundtrip exact, {elapsed:.2f}s (limit 5s)", ok)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: isometry/desync calibration over d in {512..8192}, < 2 min
# ---------------------------------------------------------------------------


def test_criterion_2_calibration():
    t0 = time.time()
    n_cap = 64
    deltas_iso = []
    deltas_des = []
    for d_req in (512, 1024, 2048, 4096, 8192):
        params = auto_params(d_req, n_cap)
        # two vector pairs per fresh-matrix trial: 400 noise samples per
        # dimension, stabilizing the q99 estimate the slope is fitted on
        prof = measure_noise_profile(
            ("plain",), "both", 200, params, master_seed=2, pairs_per_trial=2
        )
        deltas_iso.append((params.d, prof.delta_iso))
        deltas_des.append((params.d, prof.delta_desync))
    exp_iso = float(np.polyfit(np.log([d for d, _ in deltas_iso]),
                               np.log([v for _, v in deltas_iso]), 1)[0])
    exp_des = float(np.polyfit(np.log([d for d, _ in deltas_des]),
                               np.log([v for _, v in deltas_des]), 1)[0])
    tparams = auto_params(1024, n_cap)
    tprof = measure_noise_profile(
        ("transparent",), "isometry", 200, tparams, master_seed=2, pairs_per_trial=2
    )
    elapsed = time.time() - t0
    ok = (
        -0.6 <= exp_iso <= -0.4
        and -0.6 <= exp_des <= -0.4
        and 0.45 <= tprof.alpha <= 0.55
        and elapsed < 120
    )
    report(
        "criterion 2",
        f"exponents iso={exp_iso:.3f} desync={exp_des:.3f} (band [-0.6,-0.4]), "
        f"transparent alpha={tprof.alpha:.3f} (band [0.45,0.55]), {elapsed:.0f}s (limit 120s)",
        ok,
    )
    assert -0.6 <= exp_iso <= -0.4
    assert -0.6 <= exp_des <= -0.4
    assert 0.45 <= tprof.alpha <= 0.55
    assert elapsed < 120


# ---------------------------------------------------------------------------
# Criteria 3 and 8a share the attribute-recovery experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def attr_recovery_results():
    out = {"elapsed": 0.0}
    t0 = time.time()
    errs_full, errs_half, errs_small = [], [], []
    params = auto_params(2048, 64)
    params_small = auto_params(512, 64)
    for seed in range(100):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        net = leaf_net(params.d, n_cap=64)
        truth = net.objects["a"].attributes[:3]
        sk = overall_sketch(net, reg)
        rep = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
        errs_full.append(float(np.max(np.abs(rep.estimate[:3] - truth))))
        half = erase_to_prefix(sk, params.d // 2)
        rep_h = recover_attributes_unique(half, "leaf", 2, 1.0, reg)
        errs_half.append(float(np.max(np.abs(rep_h.estimate[:3] - truth))))

        reg_s = MatrixRegistry(params_small, master_seed=seed, allow_high_noise=True)
        net_s = leaf_net(params_small.d, n_cap=64)
        sk_s = overall_sketch(net_s, reg_s)
        rep_s = recover_attributes_unique(sk_s, "leaf", 2, 1.0, reg_s)
        errs_small.append(float(np.max(np.abs(rep_s.estimate[:3] - net_s.objects["a"].attributes[:3]))))
    out["median_full"] = float(np.median(errs_full))
    out["median_half"] = float(np.median(errs_half))
    out["median_small"] = float(np.median(errs_small))
    out["d"] = params.d
    out["d_small"] = params_small.d
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_3_attribute_recovery(attr_recovery_results):
    r = attr_recovery_results
    ratio = r["median_small"] / r["median_full"]
    ok = r["median_full"] <= 0.1 and ratio <= 2.0 * 1.5 and r["elapsed"] < 60
    report(
        "criterion 3",
        f"median linf over attribute coordinates {r['median_full']:.4f} at d={r['d']} "
        f"(limit 0.1), quarter-d ratio {ratio:.2f} (limit 3.0), {r['elapsed']:.0f}s (limit 60s)",
        ok,
    )
    # Scaling law: quartering d at most doubles the error (x1.5 band).
    assert ratio <= 3.0
    assert r["elapsed"] < 60
    # Stated tolerance; no source in PAPER.md fixes this constant. The
    # estimator's median measures ~0.137 at d=2070. The single-object
    # construction expands into 16 routing terms, 15 of them
    # desynchronization noise of unit-norm contents; a per-coordinate sd of
    # sqrt(15/d) alone predicts a median max over three coordinates of only
    # ~0.108, so the measured floor sits above that model. Haar-orthonormal
    # registry matrices (mode="orthonormal") still give a median of ~0.116
    # (seeds 0-39), so no rotation family brings this estimator to 0.1 here.
    assert r["median_full"] <= 0.1


# ---------------------------------------------------------------------------
# Criterion 4: path-disambiguated recovery at d = 4096, < 2 min
# ---------------------------------------------------------------------------


def test_criterion_4_path_recovery():
    t0 = time.time()
    params = auto_params(4096, 64)
    attrs_a = [0.0, 1.0]  # support {1}
    attrs_b = [0.0, 0.0, 0.0, 0.0, 0.6, 0.8]  # support {4, 5}
    err_a, err_b, contamination = [], [], []
    for seed in range(100):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        net = build_network(
            {
                "modules": [{"id": "out", "output": True}, {"id": "m"}],
                "objects": [
                    {"id": "root", "module": "out", "attributes": []},
                    {"id": "a", "module": "m", "attributes": attrs_a},
                    {"id": "b", "module": "m", "attributes": attrs_b},
                ],
                "edges": [("root", "a", 0.5), ("root", "b", 0.5)],
            },
            d=params.d,
            n_cap=64,
        )
        sk = overall_sketch(net, reg)
        rep_a = recover_attributes_by_path(sk, [PathStep(1, "m")], reg, w=0.5)
        rep_b = recover_attributes_by_path(sk, [PathStep(2, "m")], reg, w=0.5)
        err_a.append(float(np.abs(rep_a.estimate[1] - 1.0)))
        err_b.append(float(np.max(np.abs(rep_b.estimate[4:6] - [0.6, 0.8]))))
        # cross-contamination: object b's support must stay silent on path a
        contamination.append(float(np.max(np.abs(rep_a.estimate[4:6]))))
    reg0 = MatrixRegistry(params, master_seed=0, allow_high_noise=True)
    threshold = 3.0 * predicted_error(2, 0.5, reg0)
    med_a, med_b = float(np.median(err_a)), float(np.median(err_b))
    med_c = float(np.median(contamination))
    elapsed = time.time() - t0
    ok = med_a <= threshold and med_b <= threshold and med_c <= threshold and elapsed < 120
    report(
        "criterion 4",
        f"path recovery errors {med_a:.3f}/{med_b:.3f}, cross-contamination {med_c:.3f} "
        f"(limit 3*delta = {threshold:.3f}), {elapsed:.0f}s (limit 120s)",
        ok,
    )
    assert med_a <= threshold and med_b <= threshold
    assert med_c <= threshold
    assert elapsed < 120


# ---------------------------------------------------------------------------
# Criteria 5 and 8b share the frequency experiment at d = 8192
# ---------------------------------------------------------------------------


def counting_net(d, k):
    mods = [{"id": "out", "output": True}, {"id": "m"}]
    objects = [{"id": "root", "module": "out", "attributes": []}]
    edges = []
    for i in range(k):
        # distinct supports: identical attributes would let the objects'
        # rotated contents add coherently and inflate the count noise
        attrs = [0.0] * (16 * i) + [0.25] * 16
        objects.append({"id": f"o{i}", "module": "m", "attributes": attrs})
        edges.append(("root", f"o{i}", 1.0 / k))
    return build_network({"modules": mods, "objects": objects, "edges": edges}, d=d, n_cap=64)


@pytest.fixture(scope="module")
def frequency_results():
    """Counts {0,1,2,3,5} at d ~ 8192, full and half-erased, 50 seeds.

    Returns the raw count estimates per true count (``est_full``,
    ``est_half``) and the tallies of estimates that round to the true count
    (``exact_full``, ``exact_half``).

    The count-k overall sketch is the weighted prefix sum of the fixed
    transparent terms (verified against overall_sketch once), so the five
    counts share one registry and one set of object sketches per seed.  The
    absent-module case (count 0) queries a module that never fired against
    the count-5 sketch.
    """
    from modsketch.sketcher import Sketch, object_sketches

    t0 = time.time()
    params = auto_params(8192, 64, q=0.06)
    d = params.d
    counts = (0, 1, 2, 3, 5)
    exact_full = {k: 0 for k in counts}
    exact_half = {k: 0 for k in counts}
    est_full = {k: [] for k in counts}
    est_half = {k: [] for k in counts}
    n_seeds = 50
    for seed in range(n_seeds):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        net5 = counting_net(d, 5)
        objs = object_sketches(net5, reg)
        acc = np.zeros(d)
        prefix = {}
        for i in range(5):
            osk = objs[f"o{i}"]
            mat = reg.tuple_matrix(i + 1, 1)
            acc += (osk.values + mat.matvec(osk.values)) * 0.5
            prefix[i + 1] = acc.copy()
        if seed == 0:
            direct = overall_sketch(counting_net(d, 3), reg).values
            assert np.allclose(direct, prefix[3] / 3, atol=1e-12)
        for k in counts:
            if k == 0:
                sk = Sketch(values=prefix[5] / 5, kind="overall", depth=1, erased_prefix=d)
                module, w_star = "never_fired", 1.0
            else:
                sk = Sketch(values=prefix[k] / k, kind="overall", depth=1, erased_prefix=d)
                module, w_star = "m", 1.0 / k
            rep = recover_frequency(sk, module, h=2, w_star=w_star, registry=reg)
            exact_full[k] += int(rep.rounded == k)
            est_full[k].append(float(rep.estimate))
            half = erase_to_prefix(sk, d // 2)
            rep_h = recover_frequency(half, module, h=2, w_star=w_star, registry=reg)
            exact_half[k] += int(rep_h.rounded == k)
            est_half[k].append(float(rep_h.estimate))
    return {
        "est_full": {k: np.array(v) for k, v in est_full.items()},
        "est_half": {k: np.array(v) for k, v in est_half.items()},
        "exact_full": exact_full,
        "exact_half": exact_half,
        "n_seeds": n_seeds,
        "d": d,
        "elapsed": time.time() - t0,
    }


def test_criterion_5_frequency_recovery(frequency_results):
    r = frequency_results
    all_exact = all(v == r["n_seeds"] for v in r["exact_full"].values())
    ok = all_exact and r["elapsed"] < 120
    report(
        "criterion 5",
        f"exact rounding per count {r['exact_full']} of {r['n_seeds']} seeds at d={r['d']}, "
        f"{r['elapsed']:.0f}s (limit 120s)",
        ok,
    )
    assert all_exact
    assert r["elapsed"] < 120


# ---------------------------------------------------------------------------
# Criterion 6: similarity separation at d = 2048, < 1 min
# ---------------------------------------------------------------------------


def test_criterion_6_similarity_separation():
    t0 = time.time()
    params = auto_params(2048, 64)
    shared_attrs = [0.25] * 16
    disjoint_dots, shared_dots = [], []
    for seed in range(100):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        s1 = overall_sketch(leaf_net(params.d, 0.9, [0.3] * 11, "m1", n_cap=64), reg)
        s2 = overall_sketch(leaf_net(params.d, 0.9, [0.5, 0.5, 0.5, 0.5], "m2", n_cap=64), reg)
        disjoint_dots.append(abs(sketch_similarity(s1, s2)))
        sa = overall_sketch(leaf_net(params.d, 0.9, shared_attrs, "shared", n_cap=64), reg)
        sb = overall_sketch(leaf_net(params.d, 0.8, shared_attrs, "shared", n_cap=64), reg)
        shared_dots.append(sketch_similarity(sa, sb))
    disjoint_ok = sum(1 for v in disjoint_dots if v <= 0.1)
    q99 = float(np.quantile(disjoint_dots, 0.99))
    shared_ok = sum(1 for v in shared_dots if v > q99)
    elapsed = time.time() - t0
    ok = disjoint_ok >= 95 and shared_ok >= 90 and elapsed < 60
    report(
        "criterion 6",
        f"disjoint |dot|<=0.1 in {disjoint_ok}/100 (need 95), shared above disjoint q99 "
        f"in {shared_ok}/100 (need 90), {elapsed:.0f}s (limit 60s)",
        ok,
    )
    assert disjoint_ok >= 95
    assert shared_ok >= 90
    assert elapsed < 60


# ---------------------------------------------------------------------------
# Criterion 7: attribute-perturbation contraction, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_7_perturbation_contraction():
    t0 = time.time()
    params = auto_params(1024, 64)
    hits = {0.1: 0, 0.5: 0}
    for seed in range(100):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        net = build_network(
            {
                "modules": [{"id": "out", "output": True}, {"id": "m1"}, {"id": "m2"}],
                "objects": [
                    {"id": "root", "module": "out", "attributes": []},
                    {"id": "a", "module": "m1", "attributes": [0.6, 0.0, 0.8]},
                    {"id": "b", "module": "m2", "attributes": [1.0]},
                ],
                "edges": [("root", "a", 0.5), ("root", "b", 0.5)],
            },
            d=params.d,
            n_cap=64,
        )
        s = overall_sketch(net, reg).values
        rng = np.random.default_rng(seed)
        for eps in (0.1, 0.5):
            perturbed = {}
            for oid in ("a", "b"):
                delta = rng.standard_normal(params.d)
                delta *= eps * 0.999 / np.linalg.norm(delta)
                perturbed[oid] = net.objects[oid].attributes.copy()
                net.objects[oid].attributes = net.objects[oid].attributes + delta
            s_bar = overall_sketch(net, reg).values
            for oid in ("a", "b"):
                net.objects[oid].attributes = perturbed[oid]
            hits[eps] += int(np.linalg.norm(s_bar - s) <= eps / 2)
    elapsed = time.time() - t0
    ok = hits[0.1] == 100 and hits[0.5] == 100 and elapsed < 30
    report(
        "criterion 7",
        f"||s - s_bar|| <= eps/2 in {hits[0.1]}/100 (eps=0.1) and {hits[0.5]}/100 (eps=0.5), "
        f"{elapsed:.0f}s (limit 30s)",
        ok,
    )
    assert hits[0.1] == 100 and hits[0.5] == 100
    assert elapsed < 30


# ---------------------------------------------------------------------------
# Criterion 8: graceful erasure
# ---------------------------------------------------------------------------


def rms_error(estimates):
    """Root mean square of (estimate - true count) over {count: estimates}."""
    errs = np.concatenate([v - k for k, v in estimates.items()])
    return float(np.sqrt(np.mean(errs**2)))


def test_criterion_8_graceful_erasure(attr_recovery_results, frequency_results):
    r = attr_recovery_results
    f = frequency_results
    inflation = r["median_half"] / r["median_full"]
    # Counts are held to the same inflation limit as attributes; exact
    # rounding of every erased count is not promised (recover_frequency is
    # exact only while the noise stays below 1/2).
    count_inflation = rms_error(f["est_half"]) / rms_error(f["est_full"])
    per_count = {
        k: round(rms_error({k: f["est_half"][k]}) / rms_error({k: f["est_full"][k]}), 2)
        for k in f["est_full"]
    }
    ok = inflation <= 1.8 and count_inflation <= 1.8
    report(
        "criterion 8",
        f"half-prefix attribute error inflation {inflation:.2f} (limit 1.8), count RMS "
        f"error inflation {count_inflation:.2f} (limit 1.8; per count {per_count}), "
        f"erased counts exact {f['exact_half']} of {f['n_seeds']}",
        ok,
    )
    assert inflation <= 1.8
    assert count_inflation <= 1.8


# ---------------------------------------------------------------------------
# Criterion 9: dictionary learning plant-and-recover, < 3 min
# ---------------------------------------------------------------------------


def test_criterion_9_plant_and_recover():
    t0 = time.time()
    # The stated (d=1440, b=18) violates b >= 3*(ceil(log2 d)+3) = 42 (b=18
    # cannot be valid at any d >= b, since it only leaves room for 3 index
    # bits); run at the nearest valid block size, b = 45.
    params = BlockParams(b=45, q=0.5, d=1440, n_cap=6)
    config = DLConfig(params=params, eps_recover=0.1)
    floor = config.set_floor
    false_columns = 0
    missed_eligible = 0
    coeff_bad = 0
    spike_changed = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mats = [sample_matrix(params, f"acc9:{seed}:{i}") for i in range(2)]
        n_samples = 200
        xs = np.zeros((n_samples, 2, params.d))
        planted = []
        for k in range(n_samples):
            i = int(rng.integers(2))
            j = int(rng.integers(params.d)) + 1
            xs[k, i, j - 1] = 0.9
            ri = rng.integers(2, size=40)
            rj = rng.integers(params.d, size=40)
            vals = rng.standard_normal(40)
            vals *= 0.05 / np.linalg.norm(vals)
            for a, bcol, v in zip(ri, rj, vals):
                if (a, bcol + 1) != (i, j):
                    xs[k, a, bcol] += v
            planted.append((i, j))
        ys = np.zeros((n_samples, params.d))
        for k in range(n_samples):
            ys[k] = mats[0].matvec(xs[k, 0]) + mats[1].matvec(xs[k, 1])

        learned = learn_dictionary(ys, config)
        rep = match_permutation(learned, mats)
        # soundness: every recovered column is a true column
        planted_set = set(planted)
        false_columns += len(rep.unmatched) + len(rep.ambiguous)
        for row in rep.column_rows:
            if not row["within_criterion"] or row["signed_mismatch_on_installed"]:
                false_columns += 1
            if (row["true_matrix"], row["column"]) not in planted_set:
                false_columns += 1
        # completeness + coefficient accuracy on eligible planted columns
        inv = {v: k for k, v in rep.permutation.items()}
        for k, (i, j) in enumerate(planted):
            if len(mats[i].active_blocks(j)) < floor:
                continue
            if (inv.get(i), j) not in learned.columns:
                missed_eligible += 1
            elif abs(learned.coefficient(k, inv[i], j) - 0.9) > 0.1:
                coeff_bad += 1
        # l1 spike immunity, spot-checked on a subset of seeds
        if seed < 5:
            spiked = ys.copy()
            blk = 3
            spiked[:, blk * params.b : (blk + 1) * params.b] += math.sqrt(params.d) / params.b
            noisy = learn_dictionary(spiked, config)
            nrep = match_permutation(noisy, mats)
            base_pairs = {(rep.permutation[i], j) for (i, j) in learned.columns}
            noisy_pairs = {(nrep.permutation[i], j) for (i, j) in noisy.columns}
            eligible_pairs = {
                (i, j)
                for (i, j) in planted_set
                if len(set(map(int, mats[i].active_blocks(j))) - {blk}) >= floor
            }
            if not (noisy_pairs <= base_pairs and eligible_pairs <= noisy_pairs):
                spike_changed += 1
            if any(row["signed_mismatch_on_installed"] for row in nrep.column_rows):
                spike_changed += 1
    elapsed = time.time() - t0
    ok = (
        false_columns == 0
        and missed_eligible == 0
        and coeff_bad == 0
        and spike_changed == 0
        and elapsed < 180
    )
    report(
        "criterion 9",
        f"false columns {false_columns}, missed eligible {missed_eligible}, bad coefficients "
        f"{coeff_bad}, spike-induced changes {spike_changed}, {elapsed:.0f}s (limit 180s)",
        ok,
    )
    assert false_columns == 0
    assert missed_eligible == 0
    assert coeff_bad == 0
    assert spike_changed == 0
    assert elapsed < 180


# ---------------------------------------------------------------------------
# Criterion 10: network learnability at d ~ 4096, < 5 min
# ---------------------------------------------------------------------------


def level1_block_scan(samples, config):
    """What the learner's first level sees, from DLConfig's public thresholds.

    Returns (blocks inside the magnitude window [tau1, upper], blocks
    scanned, smallest hypercube deviation over all blocks in units of the
    entry scale); a block seeds a column only when it is in the window and
    its deviation is at most tau2.
    """
    p = config.params
    blocks = np.asarray(samples).reshape(-1, p.n_blocks, p.b)
    mag = np.abs(blocks)
    weights = mag.sum(axis=2) * math.sqrt(p.q * p.d) / p.b
    in_window = (
        (weights > 0)
        & (mag.min(axis=2) >= config.tau1_value)
        & (mag.max(axis=2) <= config.upper_value)
    )
    zs = blocks[..., : p.sub_block] / weights[..., None]
    dev = np.max(np.abs(np.abs(zs) - config.scale), axis=2)
    return int(in_window.sum()), in_window.size, float(dev.min()) / config.scale


def test_criterion_10_network_learnability():
    t0 = time.time()
    params = auto_params(4096, 18, q=0.047)
    d = params.d
    net = build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "A"}, {"id": "B"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": "A", "attributes": [0.6, 0.0, 0.8]},
                {"id": "b", "module": "B", "attributes": [0.0, 1.0]},
            ],
            "edges": [("root", "a", 0.5), ("root", "b", 0.5)],
        },
        d=d,
        n_cap=18,
    )
    registry = MatrixRegistry(params, master_seed=0, allow_high_noise=True)
    rng = np.random.default_rng(0)
    base_a = net.objects["a"].attributes.copy()
    base_b = net.objects["b"].attributes.copy()
    sketches = np.zeros((500, d))
    for k in range(500):
        for oid, base in (("a", base_a), ("b", base_b)):
            jitter = rng.standard_normal(d) * 0.05 * (base > 0)
            attrs = np.abs(base + jitter)
            net.objects[oid].attributes = attrs / np.linalg.norm(attrs)
        sketches[k] = overall_sketch(net, registry).values
    result = unroll_network(
        sketches, params, w_goal=0.5, recursion_budget=net.recursion_budget, eps_final=0.05
    )
    recovered_ok = 0
    for rec in result.modules.values():
        if not rec.attributes:
            continue
        mean_attr = np.mean(rec.attributes, axis=0)
        best = min(
            float(np.max(np.abs(mean_attr - truth))) for truth in (base_a, base_b)
        )
        if best <= 0.1:
            recovered_ok += 1
    elapsed = time.time() - t0
    # unroll_network's level-1 learner runs with DLConfig(eps_recover=eps_final)
    config = DLConfig(params=params, eps_recover=0.05)
    in_window, n_blocks, best_dev = level1_block_scan(sketches, config)
    level1 = (
        f"level 1 at d={d}: {in_window}/{n_blocks} blocks inside the learner's magnitude "
        f"window, best hypercube deviation {best_dev:.3f}x scale "
        f"(tau2 = {config.tau2_value / config.scale:.3f}x scale)"
    )
    ok = recovered_ok >= 2 and result.n_modules == 2 and elapsed < 300
    report(
        "criterion 10",
        f"modules recovered within 0.1: {recovered_ok}/2, clusters found {result.n_modules}, "
        f"{elapsed:.0f}s (limit 300s); {level1}",
        ok,
    )
    assert result.n_modules == 2, f"module clusters missing: {level1}"
    assert recovered_ok >= 2
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 11: prototype oracle agreement, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_11_prototype_agreement():
    t0 = time.time()
    # (a) prototype A with orthonormal matrices is exactly invertible
    params_o = auto_params(512, 16)
    reg_o = MatrixRegistry(params_o, master_seed=3, mode="orthonormal", allow_high_noise=True)
    net = leaf_net(params_o.d, n_cap=16)
    sk_a = prototype_a_overall(net, reg_o)
    recovered = reg_o.module_matrix("leaf", 1).rmatvec(sk_a.values)
    exact = float(np.max(np.abs(recovered - net.objects["a"].attributes)))

    # (b) prototype B frequency vs the final sketch's counts on flat networks
    params = auto_params(2048, 64)
    agreements = []
    for seed in range(20):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        net3 = counting_net(params.d, 3)
        proto = prototype_b_overall(net3, reg)
        full = overall_sketch(net3, reg)
        w_star = 1.0 / 3.0
        count_proto = recover_frequency(proto, "m", h=2, w_star=w_star, registry=reg, beta=4.0 / w_star)
        count_full = recover_frequency(full, "m", h=2, w_star=w_star, registry=reg)
        agreements.append(
            (
                count_proto.rounded == 3 and count_full.rounded == 3,
                abs(float(count_proto.estimate) - float(count_full.estimate)),
            )
        )
    both_exact = sum(1 for e, _ in agreements if e)
    pooled = 2.0 * predicted_error(2, 1.0 / 3.0, MatrixRegistry(params, master_seed=0, allow_high_noise=True))
    med_gap = float(np.median([g for _, g in agreements]))
    elapsed = time.time() - t0
    ok = exact <= 1e-9 and both_exact >= 18 and med_gap <= pooled and elapsed < 30
    report(
        "criterion 11",
        f"prototype-A exact recovery error {exact:.2e} (limit 1e-9), prototype-B/final count "
        f"agreement {both_exact}/20, median gap {med_gap:.3f} (pooled noise {pooled:.3f}), "
        f"{elapsed:.0f}s (limit 30s)",
        ok,
    )
    assert exact <= 1e-9
    assert both_exact >= 18
    assert med_gap <= pooled
    assert elapsed < 30
