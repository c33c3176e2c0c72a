"""End-to-end collaboration rounds and threshold sweeps.

One directed message follows the stack: extract features, quantize them,
gate cells on sender confidence, pre-hand the coarse abstract, score
redundancy against the receiver's own view, entropy-code what survives,
then smooth, fuse and decode on the receiver side; its grid is the
transmitted cells, which a lossless decode reproduces.  A sweep runs rounds
over threshold grids and seeds and reports rate-accuracy points.

Coders: ``task_entropy`` (confidence-frequency Huffman), ``occurrence``
(count-weighted Huffman), ``fixed`` (fixed-length).  Selectors: ``mi``
(discriminator redundancy mask, abstract transmitted), ``confidence_only``
(receiver requests cells it is unsure about; no abstract), ``none`` (no
redundancy filtering; no abstract).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import entropy_coder as ec
from . import mi_estimator as mie
from . import rd_oracle as rd
from . import simworld as sw
from . import textio, vq
from .infotheory import _entropies_nats

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


def views(world: World) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's view of the world: its features, shape
    (agents, h, w, 2K), and its task confidence, shape (agents, h, w)."""
    cfg = world.cfg
    feats = np.array([sw.extract_features(obs, cfg) for obs in world.obs])
    conf = np.array([sw.confidence(f, cfg, cfg.agent_noise(a)) for a, f in enumerate(feats)])
    return feats, conf


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
    tau_c_grid: tuple = (0.3, 0.9)
    tau_mi_grid: tuple = (0.0, 1.0, math.inf)
    seeds: tuple = (1, 2, 3)
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
    """Prepare the stack in order: codebooks with their confidence tallies,
    then the redundancy discriminator.

    Stage one is free here: the task decoder is the closed-form posterior.
    The training views share the template's grid, so their features form
    one (worlds, agents, h, w, channels) array.  Confidence thresholds are
    drawn uniformly from ``tau_c_choices`` per training scene so the
    discriminator sees the abstracts it will meet at deployment; the draws
    are recorded on the returned stack.
    """
    rng = np.random.default_rng(tc.train_seed)
    cfg = world_template  # the training worlds differ from it only in seed
    worlds = [
        make_world(replace(cfg, seed=tc.train_seed + 1 + i)) for i in range(tc.n_train_worlds)
    ]
    feats, conf = map(np.array, zip(*map(views, worlds)))
    cb, base_idx, _ = vq.train_codebooks(
        feats.reshape(-1, feats.shape[-1]), conf.ravel(), tc.n_base, tc.n_res,
        iters=tc.kmeans_iters, seed=tc.codebook_seed,
    )
    base_idx = base_idx.reshape(conf.shape)

    joint_s, joint_r, tau_draws = [], [], []
    for wi in range(len(worlds)):
        for s, r in itertools.permutations(range(cfg.n_agents), 2):
            tau_draws.append(float(rng.choice(tc.tau_c_choices)))
            # conf, not the deployment gate: the gate drops criterion 7 to 13/20 seeds
            sel = conf[wi, s] > tau_draws[-1]
            joint_s.append(cb.base.embeddings[base_idx[wi, s][sel]])
            joint_r.append(feats[wi, r][sel])
    s_arr = np.concatenate(joint_s, axis=0)
    r_arr = np.concatenate(joint_r, axis=0)
    if len(s_arr) == 0:
        raise ValueError(
            "no training cell's confidence exceeds its [train] tau_c_choices "
            "draw; lower those thresholds or raise [world] density"
        )
    batch = mie.make_batch(s_arr, r_arr, rng)
    disc = mie.init_discriminator(2 * feats.shape[-1], hidden=tc.disc_hidden, seed=tc.disc_seed)
    disc, losses = mie.train(disc, batch, steps=tc.disc_steps, lr=tc.disc_lr)
    return TrainedStack(
        codebook=cb, discriminator=disc, tau_draws=tau_draws, disc_losses=losses
    )


def build_codes(
    cb: vq.LayeredCodebook, coder: str
) -> tuple[ec.PrefixCode, ec.PrefixCode]:
    """Code tables for both layers under the chosen weighting."""
    if coder == "task_entropy":
        if not (cb.base.conf_freq.any() and cb.res.conf_freq.any()):
            raise ValueError(
                "the task_entropy coder weights codewords by training confidence, which is "
                "0 on every cell; raise [world] density or choose another [sweep] coder"
            )
        return ec.build_code(cb.base.conf_freq), ec.build_code(cb.res.conf_freq)
    if coder == "occurrence":
        return ec.build_code(cb.base.occ_freq), ec.build_code(cb.res.occ_freq)
    if coder == "fixed":
        return ec.fixed_code(cb.base.n), ec.fixed_code(cb.res.n)
    raise ValueError(f"unknown coder {coder!r}")


def _mean_entropy_nats(post: np.ndarray) -> float:
    """Mean per-cell entropy of an (h, w, classes) posterior."""
    return float(_entropies_nats(post.reshape(-1, post.shape[-1])).mean())


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


class Scene:
    """One world prepared for one stack: what no threshold changes, plus the
    threshold-dependent stages met so far.

    Per agent it holds the view (features and confidence, the receiver's
    request), the quantized grid and the sender's gate.  The other stages are
    computed on first use and kept, so rounds sharing a scene build the code
    tables once per coder, score redundancy once per ``tau_c`` and threshold
    it per ``tau_mi``.
    """

    def __init__(self, world: World, stack: TrainedStack):
        self.world, self.stack, self._stages = world, stack, {}
        self.feats, self.conf = views(world)
        self.idx = [vq.quantize(f, stack.codebook) for f in self.feats]
        # the gate is the confidence on observed cells only: a cell with no
        # evidence scores 1 - prior background, which is not a reason to
        # transmit it; cells with gate > tau_c are a sender's candidates
        self.gate = np.where(world.obs != sw.UNOBSERVED, self.conf, -np.inf)

    def codes(self, coder: str) -> tuple[ec.PrefixCode, ec.PrefixCode]:
        """The stack's code tables under ``coder``, with their cached lookups."""
        key = ("codes", coder)
        if key not in self._stages:
            self._stages[key] = build_codes(self.stack.codebook, coder)
        return self._stages[key]

    def redundancy(self, s: int, r: int, tau_c: float) -> np.ndarray:
        """Discriminator score of sender s's abstract against receiver r's view."""
        key = ("redundancy", tau_c, s, r)
        if key not in self._stages:
            base = self.stack.codebook.base.embeddings[self.idx[s].base_idx]
            abstract = np.where((self.gate[s] > tau_c)[..., None], base, 0.0)
            disc = self.stack.discriminator
            self._stages[key] = mie.redundancy_map(disc, abstract, self.feats[r])
        return self._stages[key]

    def raw_reference(self, r: int, senders: tuple) -> float:
        """Mean posterior entropy of receiver r fusing the senders' raw
        features: the zero-distortion reference of a round."""
        key = ("raw", r, senders)
        if key not in self._stages:
            post = _raw_receive(self.world, self.feats, r, senders)[0]
            self._stages[key] = _mean_entropy_nats(post)
        return self._stages[key]


def directed_message(
    scene: Scene, codes, tau_c: float, tau_mi: float, selector: str, s: int, r: int
) -> tuple[ec.EncodedMessage, np.ndarray]:
    """Encode sender s's message to receiver r at one grid point.

    Returns the message and the grid r reconstructs from it: the transmitted
    cells, which a lossless decode of the message reproduces (so none runs),
    smoothed inside the candidate mask and weighted by the sender's trust.
    """
    cfg = scene.world.cfg
    if selector == "mi":
        m_mi = mie.select_mask(scene.redundancy(s, r, tau_c), tau_mi)
    elif selector == "confidence_only":
        m_mi = scene.conf[r] < tau_mi
    elif selector == "none":
        m_mi = np.ones((cfg.h, cfg.w), dtype=bool)
    else:
        raise ValueError(f"unknown selector {selector!r}")
    send_abstract = selector == "mi"

    masks = (scene.gate[s] > tau_c, m_mi)
    msg = ec.encode(scene.idx[s], masks, codes, abstract=send_abstract)
    sent = ec.transmitted_grid(scene.idx[s], masks, abstract=send_abstract)
    received = vq.reconstruct(sent, scene.stack.codebook)
    # propagate into holes the selection punched, but never past the
    # candidate mask: silence outside it means the sender saw nothing worth
    # sending, which the receiver should not overwrite with pseudo-evidence
    sm = sw.smooth(received)
    received[msg.conf_mask] = sm[msg.conf_mask]
    received *= _trust(cfg, s, r)
    return msg, received


def _receive(world: World, r: int, own: np.ndarray, incoming: list):
    """Receiver r max-fuses the incoming grids into its own features and
    decodes; returns (posterior, per-class IoU, mean IoU)."""
    cfg = world.cfg
    fused = own
    for grid in incoming:
        fused = sw.fuse(fused, grid)
    post = sw.posterior_from_features(fused, cfg, cfg.agent_noise(r))
    per_class, mean = sw.score_iou(post.argmax(axis=2), world.gt, cfg.n_classes)
    return post, per_class, mean


def _raw_receive(world: World, feats: np.ndarray, r: int, senders) -> tuple:
    """``_receive`` of the senders' raw features, each weighted by its trust."""
    raw = [feats[s] * _trust(world.cfg, s, r) for s in senders]
    return _receive(world, r, feats[r], raw)


def run_round(
    world: World | Scene,
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
    task scores averaged over receivers.  ``world`` may be a scene prepared
    for ``stack``, whose stages are then shared with other rounds.
    """
    scene = world if isinstance(world, Scene) else Scene(world, stack)
    if scene.stack is not stack:
        raise ValueError("the scene was prepared for another stack")
    world = scene.world
    cfg = world.cfg
    if pairs is None:
        agents = range(cfg.n_agents)
        pairs = [(s, r) for r in agents for s in agents if s != r]
    codes = scene.codes(coder)

    by_receiver: dict[int, list] = {}
    msgs = []
    for s, r in pairs:
        msg, received = directed_message(scene, codes, tau_c, tau_mi, selector, s, r)
        msgs.append(msg)
        by_receiver.setdefault(r, []).append((s, received))

    ious, per_class, distortions = [], [], []
    for r, incoming in sorted(by_receiver.items()):
        incoming.sort(key=lambda item: item[0])
        post, pc, mean = _receive(world, r, scene.feats[r], [g for _, g in incoming])
        ious.append(mean)
        per_class.append(pc)
        senders = tuple(s for s, _ in incoming)
        distortions.append(_mean_entropy_nats(post) - scene.raw_reference(r, senders))

    # np.nanmean without its warning: a class no receiver scored stays NaN
    per_class = np.stack(per_class)
    with np.errstate(invalid="ignore"):
        pc_mean = np.nansum(per_class, axis=0) / (~np.isnan(per_class)).sum(axis=0)
    total = sum(m.total_bits for m in msgs)
    return RoundResult(
        seed=cfg.seed,
        tau_c=tau_c,
        tau_mi=tau_mi,
        coder=coder,
        selector=selector,
        total_bits=total,
        payload_bits=sum(m.payload_bits for m in msgs),
        abstract_bits=sum(m.abstract_bits for m in msgs),
        mask_bits=sum(m.mask_bits for m in msgs),
        bpp=total / (cfg.h * cfg.w),
        mean_iou=float(np.mean(ious)),
        per_class_iou=tuple(float(x) for x in pc_mean),
        distortion_nats=float(np.mean(distortions)),
    )


def uncompressed_iou(world: World) -> float:
    """Collaboration ceiling: receivers fuse the senders' raw feature grids."""
    feats, _ = views(world)
    agents = range(len(feats))
    ious = [_raw_receive(world, feats, r, [s for s in agents if s != r])[2] for r in agents]
    return float(np.mean(ious))


def solo_iou(world: World) -> float:
    """No-collaboration floor: each agent predicts from its own view alone."""
    feats, _ = views(world)
    return float(np.mean([_raw_receive(world, feats, r, ())[2] for r in range(len(feats))]))


def run_sweep(
    world_template: sw.WorldConfig,
    stack: TrainedStack,
    cfg: SweepConfig,
    jobs: int = 1,
) -> list[RoundResult]:
    """Grid product of thresholds and seeds in (tau_c, tau_mi, seed) order.

    Each seed's world is prepared once as a scene its rounds share.  The
    ``jobs`` keyword exists only for the benchmark's ``sweep_pass``, which
    passes ``jobs=1``; any other value is rejected.
    """
    if jobs != 1:
        raise ValueError(f"run_sweep runs serially; jobs must be 1, got {jobs!r}")
    seeds = [int(seed) for seed in cfg.seeds]
    scenes: dict[int, Scene] = {}
    results = []
    for tau_c in cfg.tau_c_grid:
        for tau_mi in cfg.tau_mi_grid:
            for seed in seeds:
                if seed not in scenes:
                    world = make_world(replace(world_template, seed=seed))
                    scenes[seed] = Scene(world, stack)
                results.append(
                    run_round(
                        scenes[seed], stack, float(tau_c), float(tau_mi),
                        cfg.coder, cfg.selector,
                    )
                )
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
    for key in sorted(groups):
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
    points = [(row["mean_total_bits"], -row["mean_iou"]) for row in rows]
    for row, flag in zip(rows, rd.pareto_flags(points, eps=0.0)):
        row["pareto"] = int(flag)
    return rows


# --- CSV emission ------------------------------------------------------------


def _results_header(n_classes: int) -> list[str]:
    return [
        "seed", "tau_c", "tau_mi", "coder", "selector", "total_bits",
        "payload_bits", "abstract_bits", "mask_bits", "bpp", "mean_iou",
        *(f"iou_class_{k}" for k in range(n_classes)), "distortion_nats",
    ]


def results_csv(results: list[RoundResult], n_classes: int) -> str:
    rows = (
        [
            r.seed, r.tau_c, r.tau_mi, r.coder, r.selector, r.total_bits,
            r.payload_bits, r.abstract_bits, r.mask_bits, r.bpp, r.mean_iou,
            *r.per_class_iou, r.distortion_nats,
        ]
        for r in results
    )
    return textio.csv_text(_results_header(n_classes), rows)


def parse_results_csv(text: str) -> list[RoundResult]:
    """The rounds of a ``results_csv`` text."""
    header, *lines = text.splitlines() or [""]
    n_classes = header.count(",iou_class_")
    if header.split(",") != _results_header(n_classes):
        raise ValueError(f"not a results.csv header: {header!r}")
    results = []
    for line in lines:
        c = line.split(",")
        if len(c) != 12 + n_classes:
            raise ValueError(f"results row has {len(c)} cells, want {12 + n_classes}")
        counts, reals = [int(x) for x in c[5:9]], [float(x) for x in c[9:]]
        results.append(RoundResult(
            int(c[0]), float(c[1]), float(c[2]), c[3], c[4], *counts, *reals[:2],
            tuple(reals[2:-1]), reals[-1],
        ))
    return results


_SUMMARY_COLUMNS = (
    "tau_c", "tau_mi", "coder", "selector", "n_seeds", "mean_total_bits",
    "std_total_bits", "mean_iou", "std_iou", "mean_distortion_nats",
    "mean_abstract_bits", "pareto",
)


def summary_csv(rows) -> str:
    cells = ([row[c] for c in _SUMMARY_COLUMNS] for row in rows)
    return textio.csv_text(_SUMMARY_COLUMNS, cells)
