"""End-to-end collaboration rounds and threshold sweeps.

One directed message follows the stack: extract features, quantize them,
gate cells on sender confidence, pre-hand the coarse abstract, score
redundancy against the receiver's own view, entropy-code what survives,
then smooth, fuse and decode on the receiver side.  A sweep runs rounds
over threshold grids and seeds and reports rate-accuracy points.

Coders: ``task_entropy`` (confidence-frequency Huffman), ``occurrence``
(count-weighted Huffman), ``fixed`` (fixed-length).  Selectors: ``mi``
(discriminator redundancy mask, abstract transmitted), ``confidence_only``
(receiver requests cells it is unsure about; no abstract), ``none`` (no
redundancy filtering; no abstract).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import entropy_coder as ec
from . import mi_estimator as mie
from . import simworld as sw
from . import vq

CODERS = ("task_entropy", "occurrence", "fixed")
SELECTORS = ("mi", "confidence_only", "none")


@dataclass(frozen=True)
class World:
    cfg: sw.WorldConfig
    gt: np.ndarray
    obs: np.ndarray


def make_world(cfg: sw.WorldConfig) -> World:
    gt, obs = sw.generate(cfg)
    return World(cfg, gt, obs)


@dataclass(frozen=True)
class TrainConfig:
    n_base: int = 4
    n_res: int = 64
    kmeans_iters: int = 25
    codebook_seed: int = 101
    disc_steps: int = 600
    disc_lr: float = 0.3
    disc_hidden: int = 64
    disc_seed: int = 202
    n_train_worlds: int = 4
    train_seed: int = 9000
    tau_c_choices: tuple = (0.2, 0.5, 0.8)


@dataclass
class TrainedStack:
    codebook: vq.LayeredCodebook
    discriminator: mie.Discriminator
    tau_draws: list  # confidence thresholds drawn per training scene
    disc_losses: list  # discriminator loss before each training step


@dataclass(frozen=True)
class SweepConfig:
    tau_c_grid: tuple
    tau_mi_grid: tuple
    n_base: int
    n_res: int
    seeds: tuple
    coder: str = "task_entropy"
    selector: str = "mi"

    def __post_init__(self):
        if not self.tau_c_grid or not self.tau_mi_grid or not self.seeds:
            raise ValueError("threshold grids and seeds must be nonempty")
        for v in tuple(self.tau_c_grid) + tuple(self.tau_mi_grid):
            if math.isnan(v):
                raise ValueError("thresholds must not be NaN")
        if self.coder not in CODERS:
            raise ValueError(f"coder must be one of {CODERS}, got {self.coder!r}")
        if self.selector not in SELECTORS:
            raise ValueError(
                f"selector must be one of {SELECTORS}, got {self.selector!r}"
            )


@dataclass(frozen=True)
class RoundResult:
    seed: int
    tau_c: float
    tau_mi: float
    coder: str
    selector: str
    total_bits: int
    payload_bits: int
    abstract_bits: int
    mask_bits: int
    bpp: float
    mean_iou: float
    per_class_iou: tuple
    distortion_nats: float

    @property
    def volume_bits(self) -> int:
        """Coded volume without the raw mask bitmaps."""
        return self.payload_bits + self.abstract_bits


def train_all(world_template: sw.WorldConfig, tc: TrainConfig) -> TrainedStack:
    """Prepare the stack in order: codebooks, then confidence frequencies,
    then the redundancy discriminator.

    Stage one is free here: the task decoder is the closed-form posterior.
    Confidence thresholds are drawn uniformly from ``tau_c_choices`` per
    training scene so the discriminator sees the abstracts it will meet at
    deployment; the draws are recorded on the returned stack.
    """
    rng = np.random.default_rng(tc.train_seed)
    worlds = [
        make_world(replace(world_template, seed=tc.train_seed + 1 + i))
        for i in range(tc.n_train_worlds)
    ]
    feats = {}
    for wi, world in enumerate(worlds):
        for agent in range(world.cfg.n_agents):
            feats[(wi, agent)] = sw.extract_features(world.obs[agent], world.cfg)

    all_cells = np.concatenate(
        [f.reshape(-1, f.shape[-1]) for f in feats.values()], axis=0
    )
    cb = vq.train_codebooks(
        all_cells, tc.n_base, tc.n_res, iters=tc.kmeans_iters, seed=tc.codebook_seed
    )

    # the codebook embeddings are fixed from here on, so each view is
    # quantized and scored once for both the frequencies and the batch
    quant, conf = {}, {}
    for (wi, agent), f in feats.items():
        cfg = worlds[wi].cfg
        quant[(wi, agent)], _ = vq.quantize(f, cb)
        conf[(wi, agent)] = sw.confidence(f, cfg, cfg.agent_noise(agent))
        vq.accumulate_conf_freq(cb, quant[(wi, agent)], conf[(wi, agent)])

    joint_s, joint_r = [], []
    tau_draws = []
    for wi, world in enumerate(worlds):
        for s in range(world.cfg.n_agents):
            for r in range(world.cfg.n_agents):
                if s == r:
                    continue
                tau = float(rng.choice(tc.tau_c_choices))
                tau_draws.append(tau)
                f_s, f_r = feats[(wi, s)], feats[(wi, r)]
                m_c = conf[(wi, s)] > tau
                abstract = vq.reconstruct_base(quant[(wi, s)], cb)
                abstract[~m_c] = 0.0
                sel = m_c.ravel()
                c = f_s.shape[-1]
                joint_s.append(abstract.reshape(-1, c)[sel])
                joint_r.append(f_r.reshape(-1, c)[sel])
    s_arr = np.concatenate(joint_s, axis=0)
    r_arr = np.concatenate(joint_r, axis=0)
    batch = mie.make_batch(s_arr, r_arr, rng)
    disc = mie.init_discriminator(
        2 * world_template.feature_channels, hidden=tc.disc_hidden, seed=tc.disc_seed
    )
    disc, losses = mie.train(disc, batch, steps=tc.disc_steps, lr=tc.disc_lr)
    return TrainedStack(
        codebook=cb, discriminator=disc, tau_draws=tau_draws, disc_losses=losses
    )


def build_codes(
    cb: vq.LayeredCodebook, coder: str
) -> tuple[ec.PrefixCode, ec.PrefixCode]:
    """Code tables for both layers under the chosen weighting."""
    if coder == "task_entropy":
        return ec.build_code(cb.base.conf_freq), ec.build_code(cb.res.conf_freq)
    if coder == "occurrence":
        return ec.build_code(cb.base.occ_freq), ec.build_code(cb.res.occ_freq)
    if coder == "fixed":
        return ec.fixed_code(cb.base.n), ec.fixed_code(cb.res.n)
    raise ValueError(f"unknown coder {coder!r}")


def _mean_entropy_nats(post: np.ndarray) -> float:
    safe = np.clip(post, 1e-15, 1.0)
    return float(-(post * np.log(safe)).sum(axis=2).mean())


def _trust(cfg, s: int, r: int) -> float:
    """Evidence weight for sender s's features when agent r decodes them.

    The receiver decodes everything through its own flip channel; scaling the
    received one-hot by the ratio of per-observation log-likelihood-ratios
    reproduces the sender's true evidence strength exactly (the symmetric
    channel makes all pairwise log-odds scale together).
    """

    def llr(eps: float) -> float:
        eps = max(eps, 1e-6)
        return math.log((1.0 - eps) / (eps / (cfg.n_classes - 1)))

    return min(4.0, max(0.25, llr(cfg.agent_noise(s)) / llr(cfg.agent_noise(r))))


def _directed_message(world, stack, codes, tau_c, tau_mi, selector, s, r):
    """Encode one sender-to-receiver message; returns (message, received grid)."""
    cfg = world.cfg
    f_s = sw.extract_features(world.obs[s], cfg)
    f_r = sw.extract_features(world.obs[r], cfg)
    idx, _ = vq.quantize(f_s, stack.codebook)
    # candidate cells: confident AND actually observed by the sender (a cell
    # with no evidence scores 1 - prior background, which is not a reason to
    # transmit it)
    m_c = (sw.confidence(f_s, cfg, cfg.agent_noise(s)) > tau_c) & (
        world.obs[s] != sw.UNOBSERVED
    )

    if selector == "mi":
        abstract = vq.reconstruct_base(idx, stack.codebook)
        abstract[~m_c] = 0.0
        rmap = mie.redundancy_map(stack.discriminator, abstract, f_r)
        m_mi = mie.select_mask(rmap, tau_mi)
        send_abstract = True
    elif selector == "confidence_only":
        m_mi = sw.confidence(f_r, cfg, cfg.agent_noise(r)) < tau_mi
        send_abstract = False
    elif selector == "none":
        m_mi = np.ones((cfg.h, cfg.w), dtype=bool)
        send_abstract = False
    else:
        raise ValueError(f"unknown selector {selector!r}")

    msg = ec.encode(idx, (m_c, m_mi), codes, abstract=send_abstract)
    decoded = ec.decode(msg, codes)
    received = vq.reconstruct_full(decoded, stack.codebook)
    if send_abstract:
        base_only = (decoded.base_idx >= 0) & (decoded.res_idx < 0)
        received[base_only] = vq.reconstruct_base(decoded, stack.codebook)[base_only]
    # propagate into holes the selection punched, but never past the
    # candidate mask: silence outside it means the sender saw nothing worth
    # sending, which the receiver should not overwrite with pseudo-evidence
    sm = sw.smooth(received)
    received[msg.conf_mask] = sm[msg.conf_mask]
    received *= _trust(cfg, s, r)
    return msg, received, f_r, f_s


def run_round(
    world: World,
    stack: TrainedStack,
    tau_c: float,
    tau_mi: float,
    coder: str = "task_entropy",
    selector: str = "mi",
    pairs: list | None = None,
) -> RoundResult:
    """One full collaboration round over the given directed pairs.

    Defaults to every ordered agent pair.  Each receiver fuses its incoming
    smoothed messages in sender order (max-fusion makes the order moot) and
    predicts from the fused posterior; bits are summed over messages and the
    task scores averaged over receivers.
    """
    cfg = world.cfg
    if pairs is None:
        pairs = [
            (s, r)
            for r in range(cfg.n_agents)
            for s in range(cfg.n_agents)
            if s != r
        ]
    codes = build_codes(stack.codebook, coder)

    by_receiver: dict[int, list] = {}
    total = payload = abstract_bits = mask_bits = 0
    for s, r in pairs:
        msg, received, f_r, f_s = _directed_message(
            world, stack, codes, tau_c, tau_mi, selector, s, r
        )
        total += msg.total_bits
        payload += msg.payload_bits
        abstract_bits += msg.abstract_bits
        mask_bits += msg.mask_bits
        by_receiver.setdefault(r, []).append((s, received, f_r, f_s))

    ious, per_class, distortions = [], [], []
    for r, incoming in sorted(by_receiver.items()):
        incoming.sort(key=lambda item: item[0])
        f_r = incoming[0][2]
        fused = f_r
        fused_raw = f_r
        for s, received, _, f_s in incoming:
            fused = sw.fuse(fused, received)
            fused_raw = sw.fuse(fused_raw, f_s * _trust(cfg, s, r))
        post = sw.posterior_from_features(fused, cfg, cfg.agent_noise(r))
        pred = post.argmax(axis=2)
        pc, mean = sw.score_iou(pred, world.gt, cfg.n_classes)
        ious.append(mean)
        per_class.append(pc)
        post_raw = sw.posterior_from_features(fused_raw, cfg, cfg.agent_noise(r))
        distortions.append(_mean_entropy_nats(post) - _mean_entropy_nats(post_raw))

    with np.errstate(invalid="ignore"):
        pc_mean = np.nanmean(np.stack(per_class), axis=0)
    return RoundResult(
        seed=cfg.seed,
        tau_c=tau_c,
        tau_mi=tau_mi,
        coder=coder,
        selector=selector,
        total_bits=total,
        payload_bits=payload,
        abstract_bits=abstract_bits,
        mask_bits=mask_bits,
        bpp=total / (cfg.h * cfg.w),
        mean_iou=float(np.mean(ious)),
        per_class_iou=tuple(float(x) for x in pc_mean),
        distortion_nats=float(np.mean(distortions)),
    )


def uncompressed_iou(world: World) -> float:
    """Collaboration ceiling: receivers fuse the senders' raw feature grids."""
    cfg = world.cfg
    feats = [sw.extract_features(world.obs[a], cfg) for a in range(cfg.n_agents)]
    ious = []
    for r in range(cfg.n_agents):
        fused = feats[r]
        for s in range(cfg.n_agents):
            if s != r:
                fused = sw.fuse(fused, feats[s] * _trust(cfg, s, r))
        pred = sw.posterior_from_features(fused, cfg, cfg.agent_noise(r)).argmax(axis=2)
        _, mean = sw.score_iou(pred, world.gt, cfg.n_classes)
        ious.append(mean)
    return float(np.mean(ious))


def solo_iou(world: World) -> float:
    """No-collaboration floor: each agent predicts from its own view alone."""
    cfg = world.cfg
    ious = []
    for a in range(cfg.n_agents):
        feat = sw.extract_features(world.obs[a], cfg)
        pred = sw.posterior_from_features(feat, cfg, cfg.agent_noise(a)).argmax(axis=2)
        _, mean = sw.score_iou(pred, world.gt, cfg.n_classes)
        ious.append(mean)
    return float(np.mean(ious))


def _sweep_job(args):
    world_cfg, stack, tau_c, tau_mi, coder, selector = args
    world = make_world(world_cfg)
    return run_round(world, stack, tau_c, tau_mi, coder, selector)


def run_sweep(
    world_template: sw.WorldConfig,
    stack: TrainedStack,
    cfg: SweepConfig,
    jobs: int = 1,
) -> list[RoundResult]:
    """Grid product of thresholds and seeds, reduced in deterministic order."""
    tasks = [
        (
            replace(world_template, seed=int(seed)),
            stack,
            float(tau_c),
            float(tau_mi),
            cfg.coder,
            cfg.selector,
        )
        for tau_c in cfg.tau_c_grid
        for tau_mi in cfg.tau_mi_grid
        for seed in cfg.seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_job, tasks))
    else:
        results = [_sweep_job(t) for t in tasks]
    return results


def summarize(results: list[RoundResult]):
    """Per threshold point: mean and stddev across seeds, plus Pareto flags.

    Pareto-minimal means no other point has both fewer mean bits and higher
    mean IoU (with at least one strict).
    """
    groups: dict[tuple, list[RoundResult]] = {}
    for r in results:
        groups.setdefault((r.tau_c, r.tau_mi, r.coder, r.selector), []).append(r)
    rows = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3])):
        rs = groups[key]
        bits = np.array([r.total_bits for r in rs], dtype=float)
        iou = np.array([r.mean_iou for r in rs])
        dist = np.array([r.distortion_nats for r in rs])
        abstract = np.array([r.abstract_bits for r in rs], dtype=float)
        rows.append(
            {
                "tau_c": key[0],
                "tau_mi": key[1],
                "coder": key[2],
                "selector": key[3],
                "n_seeds": len(rs),
                "mean_total_bits": float(bits.mean()),
                "std_total_bits": float(bits.std()),
                "mean_iou": float(iou.mean()),
                "std_iou": float(iou.std()),
                "mean_distortion_nats": float(dist.mean()),
                "mean_abstract_bits": float(abstract.mean()),
            }
        )
    flags = _pareto_rows(rows)
    for row, flag in zip(rows, flags):
        row["pareto"] = int(flag)
    return rows


def _pareto_rows(rows) -> list[bool]:
    flags = []
    for i, a in enumerate(rows):
        dominated = False
        for j, b in enumerate(rows):
            if i == j:
                continue
            if (
                b["mean_total_bits"] <= a["mean_total_bits"] + 1e-9
                and b["mean_iou"] >= a["mean_iou"] - 1e-12
                and (
                    b["mean_total_bits"] < a["mean_total_bits"] - 1e-9
                    or b["mean_iou"] > a["mean_iou"] + 1e-12
                )
            ):
                dominated = True
                break
        flags.append(not dominated)
    return flags


# --- CSV emission ------------------------------------------------------------


def _num(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def results_csv(results: list[RoundResult], n_classes: int) -> str:
    header = (
        "seed,tau_c,tau_mi,coder,selector,total_bits,payload_bits,abstract_bits,"
        "mask_bits,bpp,mean_iou,"
        + ",".join(f"iou_class_{k}" for k in range(n_classes))
        + ",distortion_nats"
    )
    lines = [header]
    for r in results:
        cells = [
            str(r.seed),
            _num(r.tau_c),
            _num(r.tau_mi),
            r.coder,
            r.selector,
            str(r.total_bits),
            str(r.payload_bits),
            str(r.abstract_bits),
            str(r.mask_bits),
            _num(r.bpp),
            _num(r.mean_iou),
        ]
        cells.extend(_num(v) for v in r.per_class_iou)
        cells.append(_num(r.distortion_nats))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def summary_csv(rows) -> str:
    header = (
        "tau_c,tau_mi,coder,selector,n_seeds,mean_total_bits,std_total_bits,"
        "mean_iou,std_iou,mean_distortion_nats,mean_abstract_bits,pareto"
    )
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _num(row["tau_c"]),
                    _num(row["tau_mi"]),
                    row["coder"],
                    row["selector"],
                    str(row["n_seeds"]),
                    _num(row["mean_total_bits"]),
                    _num(row["std_total_bits"]),
                    _num(row["mean_iou"]),
                    _num(row["std_iou"]),
                    _num(row["mean_distortion_nats"]),
                    _num(row["mean_abstract_bits"]),
                    str(row["pareto"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"
