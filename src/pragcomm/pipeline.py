"""End-to-end collaboration rounds and threshold sweeps.

One directed message follows the stack: extract features, quantize them,
gate cells on sender confidence, pre-hand the coarse abstract, score
redundancy against the receiver's own view, entropy-code what survives,
then smooth on the receiver side.  The receiver's grid holds all 2K
feature channels of the transmitted cells, which a lossless decode
reproduces, and only the box around the candidate cells that arrived empty
is smoothed: on the 32 x 32 bench grids a received grid without holes took
87 us against 146 us smoothed whole, while cutting the grid to the K
channels the posterior reads saved nothing measurable (2 shared cores).
One fuse-and-score stage on the ``Scene`` max-fuses a receiver's incoming
grids into its own view, decodes and scores it: for messages
(``Scene.receive``) and for the senders' raw features
(``Scene.raw_receive``, memoized too), which give a round's zero-distortion
reference and the solo and uncompressed ceilings.  A sweep runs rounds over
threshold grids and seeds and reports rate-accuracy points.

Coders: ``task_entropy`` (confidence-frequency Huffman), ``occurrence``
(count-weighted Huffman), ``fixed`` (fixed-length).  Selectors: ``mi``
(discriminator redundancy mask, abstract transmitted), ``confidence_only``
(receiver requests cells it is unsure about; no abstract), ``none`` (no
redundancy filtering; no abstract).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import entropy_coder as ec
from . import mi_estimator as mie
from . import rd_oracle as rd
from . import simworld as sw
from . import planes, textio, vq
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
        # a repeat would run its rounds twice and count them twice in the summary
        lists = {"tau_c": self.tau_c_grid, "tau_mi": self.tau_mi_grid, "seeds": self.seeds}
        for name, values in lists.items():
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {tuple(values)}")
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
    """Prepare the stack in stages: training views, codebooks with their
    confidence tallies, the pair batch, then the redundancy discriminator.

    Stage one is free here: the task decoder is the closed-form posterior.
    The training views share the template's grid, so their features form
    one (worlds, agents, h, w, channels) array.  Confidence thresholds are
    drawn uniformly from ``tau_c_choices`` per training scene so the
    discriminator sees the abstracts it will meet at deployment; the draws
    are recorded on the returned stack.  The discriminator trains in
    float32 and is returned in float64.
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
    n_scenes = len(worlds) * math.perm(cfg.n_agents, 2)
    tau_draws = [float(rng.choice(tc.tau_c_choices)) for _ in range(n_scenes)]
    batch = pair_batch(cb, base_idx.reshape(conf.shape), feats, conf, tau_draws, rng)
    disc = mie.init_discriminator(2 * feats.shape[-1], hidden=tc.disc_hidden, seed=tc.disc_seed)
    # a float32 step takes half a float64 one's time; the upcast back is exact
    disc, losses = mie.train(disc.astype(np.float32), batch, steps=tc.disc_steps, lr=tc.disc_lr)
    return TrainedStack(
        codebook=cb, discriminator=disc.astype(np.float64), tau_draws=tau_draws,
        disc_losses=losses,
    )


def pair_batch(cb: vq.LayeredCodebook, base_idx, feats, conf, taus, rng) -> mie.PairBatch:
    """The discriminator's training batch, one row per sample: on
    ``configs/small.cfg`` 5490 samples per side, merged into 2160 rows per
    step.  ``base_idx`` and ``conf`` are (worlds, agents, h, w), ``feats``
    adds the channels, and ``taus`` holds one threshold per scene: per
    world, each ``itertools.permutations`` (sender, receiver) pair.  A cell
    whose sender confidence exceeds its scene's threshold pairs the sender's
    base codeword with the receiver's features, in world, then pair, then
    row-major cell order."""
    senders, receivers = np.array(list(itertools.permutations(range(conf.shape[1]), 2))).T
    # conf, not the deployment gate: the gate drops criterion 7 to 13/20 seeds
    sel = conf[:, senders] > np.reshape(taus, (len(conf), len(senders), 1, 1))
    if not sel.any():
        raise ValueError(
            "no training cell's confidence exceeds its [train] tau_c_choices "
            "draw; lower those thresholds or raise [world] density"
        )
    abstract = cb.base.embeddings[base_idx[:, senders][sel]]
    return mie.make_batch(abstract, feats[:, receivers][sel], rng)


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
    it per ``tau_mi``.  Messages are encoded per round, but a receiver
    decodes once per distinct set of incoming masks, whatever coder,
    selector or thresholds produced them, and once per set of raw senders.
    """

    def __init__(self, world: World, stack: TrainedStack):
        self.world, self.stack, self._stages = world, stack, {}
        self.feats, self.conf = views(world)
        # one search over every agent's cells: a cell's indices do not
        # depend on which other cells are quantized with it
        agents = vq.quantize(self.feats.reshape(-1, *self.feats.shape[2:]), stack.codebook)
        shape = self.conf.shape
        self.idx = [
            vq.IndexGrid(b, r)
            for b, r in zip(agents.base_idx.reshape(shape), agents.res_idx.reshape(shape))
        ]
        # the gate is the confidence on observed cells only: a cell with no
        # evidence scores 1 - prior background, which is not a reason to
        # transmit it; cells with gate > tau_c are a sender's candidates
        self.gate = np.where(world.obs != sw.UNOBSERVED, self.conf, -np.inf)

    def _stage(self, key: tuple, compute, *args):
        """The stage ``key``: ``compute(*args)`` on first use, then kept."""
        if key not in self._stages:
            self._stages[key] = compute(*args)
        return self._stages[key]

    def codes(self, coder: str) -> tuple[ec.PrefixCode, ec.PrefixCode]:
        """The stack's code tables under ``coder``, with their cached lookups."""
        return self._stage(("codes", coder), build_codes, self.stack.codebook, coder)

    def redundancy(self, s: int, r: int, tau_c: float) -> np.ndarray:
        """Discriminator score of sender s's abstract against receiver r's view."""

        def score():
            base = self.stack.codebook.base.embeddings[self.idx[s].base_idx]
            abstract = np.where((self.gate[s] > tau_c)[..., None], base, 0.0)
            return mie.redundancy_map(self.stack.discriminator, abstract, self.feats[r])

        return self._stage(("redundancy", tau_c, s, r), score)

    def raw_receive(self, r: int, senders: tuple) -> tuple:
        """``receive`` of the senders' raw features, each weighted by its
        trust: a round's zero-distortion reference, and with no senders the
        receiver's own view alone."""
        cfg = self.world.cfg
        raw = (self.feats[s] * _trust(cfg, s, r) for s in senders)
        return self._stage(("raw", r, senders), self._fuse_and_score, r, raw)

    def receive(self, r: int, incoming: list) -> tuple:
        """Receiver r's per-class IoU, mean IoU and mean posterior entropy
        from its incoming ``(sender, message)`` pairs in sender order.

        With the scene's index grids and codebook, a received grid depends
        on its sender, its receiver, the confidence mask and the cells that
        carry each index layer; those masks' bytes key the result, so
        messages that carry the same cells are decoded once.  Only the
        scores are kept, never a grid.
        """
        key = ("receive", r, tuple(
            (s, *(np.packbits(m).tobytes() for m in (msg.conf_mask, *ec.carried(msg))))
            for s, msg in incoming
        ))
        grids = (received_grid(self, msg, s, r) for s, msg in incoming)  # drawn on a miss only
        return self._stage(key, self._fuse_and_score, r, grids)

    def _fuse_and_score(self, r: int, grids) -> tuple:
        """Receiver r max-fuses the feature grids into its own, decodes and
        scores: (per-class IoU, mean IoU, mean posterior entropy)."""
        cfg = self.world.cfg
        fused = self.feats[r]
        for grid in grids:
            fused = sw.fuse(fused, grid)
        post = sw.posterior_from_features(fused, cfg, cfg.agent_noise(r))
        per_class, mean = sw.score_iou(post.argmax(axis=2), self.world.gt, cfg.n_classes)
        per_class.flags.writeable = False  # every later hit returns it
        return per_class, mean, _mean_entropy_nats(post)


def encode_message(
    scene: Scene, coder: str, tau_c: float, tau_mi: float, selector: str, s: int, r: int
) -> ec.EncodedMessage:
    """Select and encode sender s's message to receiver r at one grid point."""
    cfg = scene.world.cfg
    if selector == "mi":
        m_mi = mie.select_mask(scene.redundancy(s, r, tau_c), tau_mi)
    elif selector == "confidence_only":
        m_mi = scene.conf[r] < tau_mi
    elif selector == "none":
        m_mi = np.ones((cfg.h, cfg.w), dtype=bool)
    else:
        raise ValueError(f"unknown selector {selector!r}")

    masks = (scene.gate[s] > tau_c, m_mi)
    return ec.encode(scene.idx[s], masks, scene.codes(coder), abstract=selector == "mi")


def received_grid(scene: Scene, msg: ec.EncodedMessage, s: int, r: int) -> np.ndarray:
    """The (h, w, 2K) grid receiver r reconstructs from sender s's message:
    the transmitted cells, which a lossless decode of the message reproduces
    (so none runs), smoothed inside the candidate mask and weighted by the
    sender's trust."""
    received = vq.reconstruct(ec.transmitted_grid(scene.idx[s], msg), scene.stack.codebook)
    # propagate into holes the selection punched, but never past the
    # candidate mask: silence outside it means the sender saw nothing worth
    # sending, which the receiver should not overwrite with pseudo-evidence.
    # A hole's fill reads only its 8 neighbours, so only the box around the
    # holes is smoothed: an empty box when every candidate cell arrived
    box = _around(msg.conf_mask & ~planes.any_last(received != 0))
    np.copyto(received[box], sw.smooth(received[box]), where=msg.conf_mask[box][..., None])
    return received * _trust(scene.world.cfg, s, r)


def _around(cells: np.ndarray) -> tuple[slice, slice]:
    """The smallest box, as row and column slices, that holds every True
    cell of ``cells`` and the cells next to them; empty when none is True."""
    if not cells.any():
        return slice(0, 0), slice(0, 0)
    rows, cols = np.flatnonzero(cells.any(axis=1)), np.flatnonzero(cells.any(axis=0))
    return slice(max(rows[0] - 1, 0), rows[-1] + 2), slice(max(cols[0] - 1, 0), cols[-1] + 2)


def run_round(
    scene: Scene,
    tau_c: float,
    tau_mi: float,
    coder: str = "task_entropy",
    selector: str = "mi",
    pairs: list | None = None,
) -> RoundResult:
    """One full collaboration round over the given directed pairs.

    Defaults to every ordered agent pair; a given list must be nonempty,
    name two distinct agents per pair and no pair twice.  Each receiver
    fuses its incoming smoothed messages in sender order (max-fusion makes
    the order moot) and predicts from the fused posterior; bits are summed
    over messages and the task scores averaged over receivers.  Rounds on
    one scene share its stages.
    """
    cfg = scene.world.cfg
    agents = range(cfg.n_agents)
    if pairs is None:
        pairs = [(s, r) for r in agents for s in agents if s != r]
    if not pairs:
        raise ValueError("pairs must name at least one directed pair")
    for s, r in pairs:
        if s == r or s not in agents or r not in agents:
            raise ValueError(
                f"pair {(s, r)} must name two distinct agents in 0..{cfg.n_agents - 1}"
            )
        if pairs.count((s, r)) > 1:
            raise ValueError(f"pair {(s, r)} is repeated; a directed pair sends one message")

    by_receiver: dict[int, list] = {}
    msgs = []
    for s, r in pairs:
        msgs.append(encode_message(scene, coder, tau_c, tau_mi, selector, s, r))
        by_receiver.setdefault(r, []).append((s, msgs[-1]))

    ious, per_class, distortions = [], [], []
    for r, incoming in sorted(by_receiver.items()):
        incoming.sort(key=lambda item: item[0])
        pc, mean, entropy = scene.receive(r, incoming)
        ious.append(mean)
        per_class.append(pc)
        senders = tuple(s for s, _ in incoming)
        distortions.append(entropy - scene.raw_receive(r, senders)[2])

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


def uncompressed_iou(scene: Scene) -> float:
    """Collaboration ceiling: receivers fuse the senders' raw feature grids."""
    agents = range(len(scene.feats))
    ious = [scene.raw_receive(r, tuple(s for s in agents if s != r))[1] for r in agents]
    return float(np.mean(ious))


def solo_iou(scene: Scene) -> float:
    """No-collaboration floor: each agent predicts from its own view alone."""
    return float(np.mean([scene.raw_receive(r, ())[1] for r in range(len(scene.feats))]))


def scenes(world_template: sw.WorldConfig, stack: TrainedStack, seeds) -> dict[int, Scene]:
    """One scene per distinct seed, in first-appearance order: the worlds a
    sweep session prepares once and shares across all its grids."""
    return {
        seed: Scene(make_world(replace(world_template, seed=seed)), stack)
        for seed in dict.fromkeys(map(int, seeds))
    }


def sweep_scenes(scenes: dict[int, Scene], cfg: SweepConfig) -> list[RoundResult]:
    """Grid product of thresholds and seeds in (tau_c, tau_mi, seed) order,
    each round on its seed's scene, so every round shares that scene's stages."""
    return [
        run_round(scenes[seed], float(tau_c), float(tau_mi), cfg.coder, cfg.selector)
        for tau_c in cfg.tau_c_grid
        for tau_mi in cfg.tau_mi_grid
        for seed in map(int, cfg.seeds)
    ]


def run_sweep(
    world_template: sw.WorldConfig,
    stack: TrainedStack,
    cfg: SweepConfig,
    jobs: int = 1,
) -> list[RoundResult]:
    """``sweep_scenes`` on scenes prepared for this one grid.  Its only caller
    outside the tests is the benchmark's ``sweep_pass``, which passes
    ``jobs=1``: the one value accepted, kept for that call alone."""
    if jobs != 1:
        raise ValueError(f"run_sweep runs serially; jobs must be 1, got {jobs!r}")
    return sweep_scenes(scenes(world_template, stack, cfg.seeds), cfg)


def summarize(results: list[RoundResult]):
    """Per threshold point: mean and stddev across seeds, plus Pareto flags.

    Pareto-minimal means no other point has both fewer mean bits and higher
    mean IoU (with at least one strict).
    """
    groups: dict[tuple, list[RoundResult]] = {}
    for r in results:
        groups.setdefault((r.tau_c, r.tau_mi, r.coder, r.selector), []).append(r)
    rows = []
    for key, rs in sorted(groups.items()):
        bits, iou, dist, abstract = np.array(
            [(r.total_bits, r.mean_iou, r.distortion_nats, r.abstract_bits) for r in rs]
        ).T
        rows.append(dict(zip(_SUMMARY_COLUMNS, (
            *key, len(rs), float(bits.mean()), float(bits.std()), float(iou.mean()),
            float(iou.std()), float(dist.mean()), float(abstract.mean()),
        ))))
    points = [(row["mean_total_bits"], -row["mean_iou"]) for row in rows]
    for row, flag in zip(rows, rd.pareto_flags(points, eps=0.0)):
        row["pareto"] = int(flag)
    return rows


# --- CSV emission ------------------------------------------------------------


def _cells(values) -> list:
    """A row's values, each tuple spread over one cell per item."""
    return [x for v in values for x in (v if isinstance(v, tuple) else (v,))]


def _results_header(n_classes: int) -> list[str]:
    """``RoundResult``'s fields in order, ``per_class_iou`` one column per class."""
    classes = tuple(f"iou_class_{k}" for k in range(n_classes))
    return _cells(classes if f.name == "per_class_iou" else f.name for f in fields(RoundResult))


def results_csv(results: list[RoundResult], n_classes: int) -> str:
    return textio.csv_text(_results_header(n_classes), (_cells(astuple(r)) for r in results))


def parse_results_csv(text: str) -> list[RoundResult]:
    """The rounds of a ``results_csv`` text, each cell parsed as its field's type."""
    header, *lines = text.splitlines() or [""]
    columns = _results_header(n_classes := header.count(",iou_class_"))
    if header.split(",") != columns:
        raise ValueError(f"not a results.csv header: {header!r}")
    results = []
    for cells in (line.split(",") for line in lines):
        if len(cells) != len(columns):
            raise ValueError(f"results row has {len(cells)} cells, want {len(columns)}")
        values = iter(cells)
        results.append(RoundResult(*(
            tuple(map(float, itertools.islice(values, n_classes))) if f.name == "per_class_iou"
            else {"int": int, "float": float, "str": str}[f.type](next(values))
            for f in fields(RoundResult)
        )))
    return results


_SUMMARY_COLUMNS = (
    "tau_c", "tau_mi", "coder", "selector", "n_seeds", "mean_total_bits",
    "std_total_bits", "mean_iou", "std_iou", "mean_distortion_nats",
    "mean_abstract_bits", "pareto",
)


def summary_csv(rows) -> str:
    cells = ([row[c] for c in _SUMMARY_COLUMNS] for row in rows)
    return textio.csv_text(_SUMMARY_COLUMNS, cells)
