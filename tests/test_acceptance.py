"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured margins (run with ``pytest -s`` to see them).
"""

import math
import time

import numpy as np
import pytest

from pragcomm import entropy_coder as ec
from pragcomm import pipeline as pl
from pragcomm import simworld as sw
from pragcomm.bayes_risk import (
    SQRT_2_OVER_PI,
    CellPosterior,
    RiskParams,
    bayes_risk_ce,
    bayes_risk_centerpoint,
    bayes_risk_l1_gaussian,
    bayes_risk_l1_laplace,
    laplace_risk_from_entropy,
    mc_ce,
    mc_l1_gaussian,
    mc_l1_laplace,
)
from pragcomm.infotheory import (
    conditional_entropy,
    conditional_mi,
    entropy,
    interaction_information,
    mutual_information,
    plugin_from_samples,
    random_joint,
)
from pragcomm.mi_estimator import (
    PairBatch,
    init_discriminator,
    loss_and_grads,
    make_batch,
    mi_score,
    train,
)
from pragcomm.rd_oracle import (
    check_conditions,
    enumerate_frontier,
    make_separable_source,
    theoretical_bound,
)

from conftest import ACCEPT_SEEDS, LOSSLESS_WORLD, TRADEOFF_WORLD


def test_criterion_1_theorem_soundness():
    """Every enumerated encoder's rate clears the bound on 50 seeded sources."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    min_margin = math.inf
    n_points = 0
    for _ in range(50):
        sizes = rng.integers(2, 5, size=3)
        t = random_joint(
            [("Y", int(sizes[0])), ("X_s", int(sizes[1])), ("X_r", int(sizes[2]))],
            rng,
        )
        z = int(min(sizes[1], 4))
        for p in enumerate_frontier(t, z):
            bound = theoretical_bound(t, max(p.distortion_nats, 0.0))
            min_margin = min(min_margin, p.rate_bits - bound)
            n_points += 1
    elapsed = time.monotonic() - start
    assert min_margin >= -1e-9
    assert elapsed <= 60.0
    print(
        f"PASS criterion 1: soundness on {n_points} encoders, "
        f"min margin {min_margin:.2e} bits, {elapsed:.1f}s"
    )


def test_criterion_2_theorem_tightness_and_conditions():
    """The component-extractor encoder on X_s=(Y,N) attains the bound."""
    source, enc = make_separable_source(
        np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.4, 0.6])
    )
    h_zy, i_zxr, gap = check_conditions(source, enc)
    assert gap <= 1e-9
    assert h_zy <= 1e-9
    assert i_zxr <= 1e-9
    # exhaustive search also finds a bound-touching encoder with the
    # pragmatic-relevant and redundancy-less conditions holding
    points = enumerate_frontier(source, 2)
    winners = [
        p
        for p in points
        if p.rate_bits - theoretical_bound(source, max(p.distortion_nats, 0.0)) <= 1e-9
    ]
    assert any(p.cond_h_z_given_y <= 1e-9 and p.mi_z_xr <= 1e-9 for p in winners)
    print(
        f"PASS criterion 2: tightness gap {gap:.2e}, H(Z|Y) {h_zy:.2e}, "
        f"I(Z;X_r) {i_zxr:.2e} bits"
    )


def test_criterion_3_decomposition_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        t = random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
        lhs = conditional_mi(t, "Y", "X_s", ["X_r"])
        rhs = (
            entropy(t, "X_s")
            - conditional_entropy(t, "X_s", ["Y"])
            - interaction_information(t, "Y", "X_s", "X_r")
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    print(f"PASS criterion 3: decomposition identity on 200 tables, worst {worst:.2e}")


def test_criterion_4_bayes_risk_formulas():
    n = 10_000_000
    # cross entropy vs conditional entropy
    rng = np.random.default_rng(1004)
    t = random_joint([("Y", 3), ("X", 3)], rng)
    closed_ce = bayes_risk_ce(t, "Y", ["X"])
    mc = mc_ce(t, "Y", ["X"], n, np.random.default_rng(41))
    rel_ce = abs(mc - closed_ce) / closed_ce
    assert rel_ce <= 0.01
    # Gaussian L1
    mc_g = mc_l1_gaussian(1.0, n, np.random.default_rng(42))
    rel_g = abs(mc_g - bayes_risk_l1_gaussian(1.0)) / bayes_risk_l1_gaussian(1.0)
    assert rel_g <= 0.01
    # Laplace L1, both routes
    mc_l = mc_l1_laplace(3.0, n, np.random.default_rng(43))
    rel_l = abs(mc_l - bayes_risk_l1_laplace(3.0)) / 3.0
    assert rel_l <= 0.01
    h = math.log(2 * 3.0) + 1.0
    assert laplace_risk_from_entropy(h) == pytest.approx(3.0, abs=1e-12)
    # composite detection risk assembles exactly term by term
    cells = []
    for _ in range(6):
        p = rng.dirichlet(np.ones(4))
        cells.append(
            CellPosterior(
                class_pmf=p,
                reg_sigma={
                    "loc": rng.uniform(0, 2),
                    "size": rng.uniform(0, 2),
                    "ori": rng.uniform(0, 2),
                },
            )
        )
    params = RiskParams(lambdas=(0.7, 1.3, 2.1), n_obj_mean=1.7)
    expected = sum(c.class_entropy_nats() for c in cells)
    for lam, key in zip(params.lambdas, ("loc", "size", "ori")):
        expected += (
            1.7 * SQRT_2_OVER_PI * lam * np.mean([c.reg_sigma[key] for c in cells])
        )
    got = bayes_risk_centerpoint(cells, params)
    assert got == pytest.approx(expected, abs=1e-12)
    print(
        f"PASS criterion 4: Monte-Carlo risks at 1e7 draws, rel errors "
        f"ce {rel_ce:.4f}, gaussian {rel_g:.4f}, laplace {rel_l:.4f}; "
        f"composite exact to {abs(got - expected):.1e}"
    )


def test_criterion_5_coding_ablation_direction():
    n_syms = 64
    rng = np.random.default_rng(1005)
    occ = np.zeros(n_syms)
    conf = np.zeros(n_syms)
    transmitted = np.zeros(n_syms)
    confident = rng.choice(4, size=3000, p=[0.4, 0.3, 0.2, 0.1])
    np.add.at(occ, confident, 1.0)
    np.add.at(conf, confident, 1.0)
    np.add.at(transmitted, confident, 1.0)
    background = rng.integers(4, n_syms, size=7000)
    np.add.at(occ, background, 1.0)
    np.add.at(conf, background, 1e-4)

    e_task = ec.expected_length(ec.build_code(conf), transmitted)
    e_occ = ec.expected_length(ec.build_code(occ), transmitted)
    e_fix = ec.expected_length(ec.fixed_code(n_syms), transmitted)
    assert e_task < e_occ < e_fix
    p = conf[conf > 0] / conf.sum()
    h_conf = float(-(p * np.log2(p)).sum())
    assert h_conf - 1e-9 <= e_task < h_conf + 1.0
    print(
        f"PASS criterion 5: transmitted bits task {e_task:.3f} < occurrence "
        f"{e_occ:.3f} < fixed {e_fix:.3f}; entropy band [{h_conf:.3f}, {h_conf + 1:.3f})"
    )


def test_criterion_6_mi_estimation():
    def one_hot(symbols, k=4):
        out = np.zeros((len(symbols), k))
        out[np.arange(len(symbols)), symbols] = 1.0
        return out

    # perfectly correlated 4-symbol pairs; plug-in truth is ln 4
    rng = np.random.default_rng(1006)
    syms = rng.integers(4, size=4096)
    batch = make_batch(one_hot(syms), one_hot(syms), rng)
    d = init_discriminator(8, hidden=64, seed=1006)
    d, _ = train(d, batch, steps=400, lr=0.5)
    plug = mutual_information(
        plugin_from_samples([(s, s) for s in syms], [("S", 4), ("R", 4)]),
        "S",
        "R",
        "nats",
    )
    got = mi_score(d, batch)
    rel = abs(got - plug) / plug
    assert rel <= 0.25

    # independent pairs score near zero
    rng2 = np.random.default_rng(2006)
    ind = make_batch(
        one_hot(rng2.integers(4, size=4096)), one_hot(rng2.integers(4, size=4096)), rng2
    )
    d2 = init_discriminator(8, hidden=64, seed=2006)
    d2, _ = train(d2, ind, steps=250, lr=0.3)
    ind_score = abs(mi_score(d2, ind))
    assert ind_score <= 0.05

    # analytic gradients match central differences on a small net
    rng3 = np.random.default_rng(3006)
    d3 = init_discriminator(4, hidden=3, n_hidden=1, seed=3006)
    gbatch = PairBatch(rng3.normal(size=(10, 4)), rng3.normal(size=(8, 4)))
    _, grads = loss_and_grads(d3, gbatch)
    eps = 1e-6
    worst_rel = 0.0
    for li, (wmat, bvec) in enumerate(d3.weights):
        for arr, g in ((wmat, grads[li][0]), (bvec, grads[li][1])):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp, _ = loss_and_grads(d3, gbatch)
                arr[ix] = orig - eps
                lm, _ = loss_and_grads(d3, gbatch)
                arr[ix] = orig
                num[ix] = (lp - lm) / (2 * eps)
                it.iternext()
            denom = max(np.linalg.norm(g), np.linalg.norm(num), 1e-12)
            worst_rel = max(worst_rel, np.linalg.norm(g - num) / denom)
    assert worst_rel < 1e-5
    print(
        f"PASS criterion 6: correlated score {got:.3f} vs ln4 {plug:.3f} "
        f"({100 * rel:.1f}% off), independent {ind_score:.4f} nats, "
        f"gradient check {worst_rel:.1e}"
    )


def test_criterion_7_lossless_regime(lossless_stack):
    start = time.monotonic()
    prior = sw.class_prior(LOSSLESS_WORLD)
    h_y_bits = float(-(prior * np.log2(prior)).sum())
    budget = 2.0 * h_y_bits
    passed = 0
    vol_bpps, mask_bpps, ratios = [], [], []
    for seed in ACCEPT_SEEDS:
        world = pl.make_world(pl.replace(LOSSLESS_WORLD, seed=seed))
        res = pl.run_round(
            pl.Scene(world, lossless_stack), 0.5, 1.0, "task_entropy", "mi", pairs=[(0, 1)]
        )
        feats = [sw.extract_features(world.obs[a], world.cfg) for a in range(2)]
        fused = sw.fuse(feats[1], feats[0])
        pred = sw.posterior_from_features(
            fused, world.cfg, world.cfg.agent_noise(1)
        ).argmax(axis=2)
        _, unc = sw.score_iou(pred, world.gt, world.cfg.n_classes)
        cells = world.cfg.h * world.cfg.w
        vol_bpp = res.volume_bits / cells  # coded volume (abstract + payload)
        vol_bpps.append(vol_bpp)
        mask_bpps.append(res.bpp)  # with raw mask bitmaps included
        ratios.append(res.mean_iou / unc)
        if vol_bpp <= budget and res.mean_iou >= 0.95 * unc:
            passed += 1
    elapsed = time.monotonic() - start
    assert passed >= 15
    assert elapsed <= 300.0
    print(
        f"PASS criterion 7: {passed}/20 seeds within bpp budget 2H(Y)={budget:.3f} "
        f"(coded volume {min(vol_bpps):.2f}-{max(vol_bpps):.2f} bpp, "
        f"with masks {min(mask_bpps):.2f}-{max(mask_bpps):.2f} bpp), "
        f"worst IoU ratio {min(ratios):.4f}, {elapsed:.0f}s"
    )


def _best_within(rows, budget):
    eligible = [r for r in rows if r["mean_total_bits"] <= budget]
    if not eligible:
        return None
    return max(eligible, key=lambda r: (r["mean_iou"], -r["mean_total_bits"]))


def test_criterion_8_tradeoff_dominance(tradeoff_sweeps):
    rd_rows = pl.summarize(tradeoff_sweeps["mi"])
    base_rows = pl.summarize(tradeoff_sweeps["baseline"])
    conf_rows = pl.summarize(tradeoff_sweeps["confidence_only"])

    base_max = max(r["mean_total_bits"] for r in base_rows)
    budgets = [0.55 * base_max, 0.75 * base_max, base_max]
    dominated = 0
    for budget in budgets:
        rd_best = _best_within(rd_rows, budget)
        base_best = _best_within(base_rows, budget)
        assert rd_best is not None
        if base_best is None:
            dominated += 1
            continue
        if rd_best["mean_iou"] > base_best["mean_iou"] + 1e-9 or (
            rd_best["mean_iou"] >= base_best["mean_iou"] - 1e-9
            and rd_best["mean_total_bits"] < base_best["mean_total_bits"] - 1e-9
        ):
            dominated += 1
    assert dominated >= 3

    # selection ablation: equal task quality at strictly fewer bits
    target = max(r["mean_iou"] for r in conf_rows) - 0.002
    mi_bits = min(
        r["mean_total_bits"] for r in rd_rows if r["mean_iou"] >= target
    )
    conf_bits = min(
        r["mean_total_bits"] for r in conf_rows if r["mean_iou"] >= target
    )
    assert mi_bits < conf_bits
    print(
        f"PASS criterion 8: dominance at {dominated}/3 budgets "
        f"({', '.join(str(int(b)) for b in budgets)} bits); matched-IoU bits "
        f"mi {mi_bits:.0f} < confidence_only {conf_bits:.0f}"
    )


def test_criterion_9_abstract_accounting(tradeoff_sweeps):
    fractions = []
    for r in tradeoff_sweeps["mi"]:
        if r.payload_bits > 0 or r.abstract_bits > 0:  # nonempty selection
            assert r.abstract_bits > 0
            fractions.append(r.abstract_bits / r.total_bits)
    assert fractions
    lo, hi = min(fractions), max(fractions)
    print(
        f"PASS criterion 9: abstract share positive on all {len(fractions)} "
        f"nonempty points, range {100 * lo:.1f}%-{100 * hi:.1f}% of total "
        f"(reference deployment figure: 9-11%, not asserted)"
    )


def test_criterion_10_determinism(tmp_path):
    import hashlib

    from pragcomm.cli import main

    cfg_text = """
[world]
h = 16
w = 16
classes = 4
agents = 2
noise = 0.05,0.2
density = 0.5
rect_min = 3
rect_max = 5
seed = 3
fov_0 = rect 0 0 16 13
fov_1 = rect 0 3 16 16

[codebook]
n_base = 4
n_res = 32
iters = 10
seed = 11

[discriminator]
steps = 60
lr = 0.3
hidden = 16
seed = 12

[train]
worlds = 2
seed = 500
tau_c_choices = 0.3,0.6

[sweep]
tau_c = 0.3,0.9
tau_mi = 0.0,inf
seeds = 1,2

[verify]
sources = 5
tables = 30
mc_draws = 100000
z_max = 3
seed = 7
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)

    def digest(root):
        out = {}
        for p in sorted(root.iterdir()):
            if p.is_file():
                out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    pairs = []
    for command in (["sweep"], ["verify-theory"]):
        d1, d2 = tmp_path / f"{command[0]}_1", tmp_path / f"{command[0]}_2"
        for d in (d1, d2):
            code = main(command + ["--config", str(cfg), "--out", str(d)])
            assert code == 0
        assert digest(d1) == digest(d2)
        pairs.append(command[0])
    print(
        f"PASS criterion 10: byte-identical reruns for {', '.join(pairs)} "
        f"(CSVs, bitstreams, reports, manifests)"
    )
