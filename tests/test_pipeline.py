import dataclasses
import itertools
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pair_oracle
import sweep_oracle as oracle
from pragcomm import entropy_coder as ec
from pragcomm import mi_estimator as mie
from pragcomm import pipeline as pl
from pragcomm import simworld as sw
from pragcomm import vq
from conftest import ACCEPT_SEEDS, LOSSLESS_WORLD, TRADEOFF_WORLD
from goldens import pins, tree_digests


TEMPLATE = sw.WorldConfig(
    h=24,
    w=24,
    n_classes=4,
    n_agents=2,
    fovs=((("rect", 0, 0, 24, 19),), (("rect", 0, 5, 24, 24),)),
    noise=0.05,
    density=0.6,
    rect_min=3,
    rect_max=6,
    seed=0,
)

# three agents on TEMPLATE's grid: each receiver fuses two messages
THREE_AGENTS = pl.replace(
    TEMPLATE,
    n_agents=3,
    fovs=(
        (("rect", 0, 0, 24, 12),),
        (("rect", 0, 6, 24, 18),),
        (("rect", 0, 12, 24, 24),),
    ),
    seed=77,
)

TRAIN = pl.TrainConfig(n_train_worlds=2, disc_steps=250, kmeans_iters=15)


@pytest.fixture(scope="module")
def stack():
    return pl.train_all(TEMPLATE, TRAIN)


@pytest.fixture(scope="module")
def world():
    return pl.make_world(pl.replace(TEMPLATE, seed=42))


@pytest.fixture
def scene(stack, world):
    return pl.Scene(world, stack)


class TestTrainAll:
    def test_frequencies_accumulated(self, stack):
        assert stack.codebook.base.conf_freq.sum() > 0
        assert stack.codebook.base.occ_freq.sum() > 0
        assert stack.codebook.res.occ_freq.sum() > 0

    def test_tau_draws_recorded_from_choices(self, stack):
        assert len(stack.tau_draws) == TRAIN.n_train_worlds * 2
        assert set(stack.tau_draws) <= set(TRAIN.tau_c_choices)

    def test_confidence_mass_concentrates_on_object_embeddings(self, stack):
        cb = stack.codebook
        top = int(np.argmax(cb.base.conf_freq))
        class_channel = int(np.argmax(cb.base.embeddings[top][: TEMPLATE.n_classes]))
        assert class_channel != 0  # background channel carries little confidence

    def test_trains_a_float32_copy_and_returns_it_in_float64(self, monkeypatch):
        calls, real = [], mie.train

        def spy(d, batch, **kwargs):
            calls.append((d.dtype, *real(d, batch, **kwargs)))
            return calls[-1][1:]

        monkeypatch.setattr(mie, "train", spy)
        stack = pl.train_all(TEMPLATE, dataclasses.replace(TRAIN, disc_steps=3))
        [(dtype, trained, losses)] = calls
        assert dtype == np.float32 and stack.discriminator.dtype == np.float64
        for got, want in zip(stack.discriminator.weights, trained.weights, strict=True):
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w.astype(np.float64))
        assert stack.disc_losses is losses

    def test_training_deterministic(self):
        a = pl.train_all(TEMPLATE, TRAIN)
        b = pl.train_all(TEMPLATE, TRAIN)
        np.testing.assert_array_equal(a.codebook.base.embeddings, b.codebook.base.embeddings)
        np.testing.assert_array_equal(a.codebook.res.conf_freq, b.codebook.res.conf_freq)
        for (w1, b1), (w2, b2) in zip(a.discriminator.weights, b.discriminator.weights):
            np.testing.assert_array_equal(w1, w2)


class TestTrainingAssignments:
    """train_all takes each training view's indices from k-means itself: its
    tallies are those of the views' quantize indices, summed view by view."""

    @pytest.mark.parametrize(
        "template",
        [
            TEMPLATE,
            sw.WorldConfig(h=12, w=12, n_classes=3, seed=5),
            sw.WorldConfig(
                h=10, w=14, n_classes=5, n_agents=3,
                fovs=((("rect", 0, 0, 10, 9),), ("full",), (("rect", 2, 4, 10, 14),)),
                noise=(0.05, 0.2, 0.1), density=0.4, rect_min=2, rect_max=4,
            ),
        ],
    )
    def test_view_indices_equal_quantize(self, template, monkeypatch):
        tc = dataclasses.replace(TRAIN, n_base=3, n_res=24, disc_steps=2)
        quantized = 0

        def count(*args):
            nonlocal quantized
            quantized += 1
            return quantize(*args)

        quantize = vq.quantize
        monkeypatch.setattr(vq, "quantize", count)
        cb = pl.train_all(template, tc).codebook
        assert quantized == 0
        # oracle: one np.add.at per view, in view order, over its quantize indices
        want = {
            book: (np.zeros(layer.n), np.zeros(layer.n))
            for book, layer in (("base", cb.base), ("res", cb.res))
        }
        for i in range(tc.n_train_worlds):
            world = pl.make_world(dataclasses.replace(template, seed=tc.train_seed + 1 + i))
            for agent, obs in enumerate(world.obs):
                feats = sw.extract_features(obs, world.cfg)
                conf = sw.confidence(feats, world.cfg, world.cfg.agent_noise(agent))
                idx = quantize(feats, cb)
                for book, indices in (("base", idx.base_idx), ("res", idx.res_idx)):
                    np.add.at(want[book][0], indices.ravel(), conf.ravel())
                    np.add.at(want[book][1], indices.ravel(), 1.0)
        for book, layer in (("base", cb.base), ("res", cb.res)):
            for got, expected in zip((layer.conf_freq, layer.occ_freq), want[book]):
                assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())


TAU_LEVELS = (0.2, 0.5, 0.8)  # thresholds; confidences take these values, 0 and 1
NO_CELL = (
    "no training cell's confidence exceeds its [train] tau_c_choices "
    "draw; lower those thresholds or raise [world] density"
)


def training_views(seed, n_worlds, n_agents, h, w, c=3, n_base=4, silent=0.3):
    """Random stacked views for ``pair_batch``: confidences on a grid that
    holds every threshold exactly, a share of (world, sender) views at
    confidence 0 so their scenes select nothing, and features on a few
    levels so both batch sides repeat rows."""
    rng = np.random.default_rng(seed)
    conf = rng.choice((0.0, *TAU_LEVELS, 1.0), size=(n_worlds, n_agents, h, w))
    conf[rng.random((n_worlds, n_agents)) < silent] = 0.0
    feats = rng.integers(0, 3, size=(n_worlds, n_agents, h, w, c)).astype(float)
    base_idx = rng.integers(0, n_base, size=(n_worlds, n_agents, h, w))
    emb = rng.integers(0, 3, size=(n_base, c)).astype(float)
    book = vq.Codebook(emb, np.zeros(n_base), np.zeros(n_base))
    return vq.LayeredCodebook(book, book), base_idx, feats, conf


def staged_pair_batch(cb, base_idx, feats, conf, tau_c_choices, rng):
    """``train_all``'s draws, one scalar ``rng.choice`` per scene, then the stage."""
    n_scenes = len(conf) * conf.shape[1] * (conf.shape[1] - 1)
    taus = [float(rng.choice(tau_c_choices)) for _ in range(n_scenes)]
    return pl.pair_batch(cb, base_idx, feats, conf, taus, rng), taus


def outcome(build, views, choices, seed):
    """The batch and draws, or the error text, with the final rng state."""
    rng = np.random.default_rng(seed)
    try:
        result = build(*views, choices, rng)
    except ValueError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


def batch_bits(batch: mie.PairBatch) -> list:
    arrays = (batch.joint_pairs, batch.marginal_pairs)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestPairBatch:
    """``pair_batch`` is the loop ``train_all`` ran before its stages
    (``tests/pair_oracle.py``), as one boolean selection."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_worlds=st.integers(1, 3),
        n_agents=st.integers(2, 5),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        choices=st.lists(st.sampled_from(TAU_LEVELS), min_size=1, max_size=3),
        silent=st.sampled_from((0.0, 0.3, 1.0)),
    )
    def test_matches_loop_oracle(self, seed, n_worlds, n_agents, h, w, choices, silent):
        views = training_views(seed, n_worlds, n_agents, h, w, silent=silent)
        (new, new_state), (old, old_state) = (
            outcome(build, views, tuple(choices), seed + 1)
            for build in (staged_pair_batch, pair_oracle.pair_batch)
        )
        assert new_state == old_state
        if isinstance(old, str):
            assert new == old == NO_CELL
        else:
            assert new[1] == old[1]  # the draws
            assert batch_bits(new[0]) == batch_bits(old[0])

    def test_confidence_equal_to_tau_is_dropped(self):
        cb, base_idx, feats, _ = training_views(3, 1, 2, 2, 2)
        conf = np.full(base_idx.shape, 0.5)
        with pytest.raises(ValueError) as exc:
            pl.pair_batch(cb, base_idx, feats, conf, [0.5, 0.5], np.random.default_rng(0))
        assert str(exc.value) == NO_CELL
        conf[0, 0, 1, 1] = 0.8  # the one cell above its threshold
        batch = pl.pair_batch(cb, base_idx, feats, conf, [0.5, 0.5], np.random.default_rng(0))
        want = np.concatenate([cb.base.embeddings[base_idx[0, 0, 1, 1]], feats[0, 1, 1, 1]])
        assert batch.joint_pairs.tolist() == [want.tolist()]

    def test_rows_in_world_pair_cell_order(self, monkeypatch):
        # a cell's features name its (world, agent, column), its base
        # codeword its flat index; every confidence is 1
        n_worlds, n_agents, w = 2, 3, 2
        feats = np.array([[[[(wi, a, j) for j in range(w)]] for a in range(n_agents)]
                          for wi in range(n_worlds)], dtype=float)
        base_idx = np.arange(n_worlds * n_agents * w).reshape(n_worlds, n_agents, 1, w)
        book = vq.Codebook(np.repeat(np.arange(base_idx.size), 3).reshape(-1, 3),
                           np.zeros(base_idx.size), np.zeros(base_idx.size))
        cb, conf = vq.LayeredCodebook(book, book), np.ones(base_idx.shape)
        pairs = list(itertools.permutations(range(n_agents), 2))
        seen = []
        monkeypatch.setattr(mie, "make_batch", lambda s, r, rng: seen.append((s, r)))

        pl.pair_batch(cb, base_idx, feats, conf, [0.0] * 12, np.random.default_rng(0))
        order = [(wi, s, r, j) for wi in range(n_worlds) for s, r in pairs for j in range(w)]
        assert seen[-1][0][:, 0].tolist() == [base_idx[wi, s, 0, j] for wi, s, _, j in order]
        assert seen[-1][1].tolist() == [[wi, r, j] for wi, _, r, j in order]

        # thresholds are read world by world: only scene 10, world 1's
        # fifth pair (2, 0), passes its cells
        taus = [1.0] * 10 + [0.5, 1.0]
        pl.pair_batch(cb, base_idx, feats, conf, taus, np.random.default_rng(0))
        assert pairs[4] == (2, 0)
        assert seen[-1][0][:, 0].tolist() == base_idx[1, 2, 0].tolist()
        assert seen[-1][1].tolist() == [[1, 0, j] for j in range(w)]


class TestBuildCodes:
    def test_fixed_codes_need_no_frequencies(self):
        rng = np.random.default_rng(0)
        cb, _, _ = vq.train_codebooks(
            rng.normal(size=(64, 8)), np.zeros(64), 4, 16, iters=5, seed=1
        )
        base, res = pl.build_codes(cb, "fixed")
        assert set(base.lengths) == {2}
        assert set(res.lengths) == {4}

    def test_unknown_coder(self, stack):
        with pytest.raises(ValueError):
            pl.build_codes(stack.codebook, "arithmetic")


class TestRunRound:
    def test_threshold_above_max_confidence_matches_solo(self, scene):
        res = pl.run_round(scene, tau_c=1.5, tau_mi=float("inf"))
        assert res.payload_bits == 0
        assert res.abstract_bits == 0
        assert res.total_bits == res.mask_bits
        assert res.mean_iou == pytest.approx(pl.solo_iou(scene), abs=1e-12)

    def test_everything_through_matches_full_sharing(self, scene):
        res = pl.run_round(scene, tau_c=0.0, tau_mi=float("inf"))
        assert res.mean_iou == pytest.approx(pl.uncompressed_iou(scene), abs=0.02)

    def test_round_deterministic(self, stack, world):
        a = pl.run_round(pl.Scene(world, stack), 0.5, 1.0)
        b = pl.run_round(pl.Scene(world, stack), 0.5, 1.0)
        assert a == b

    def test_accounting_identity(self, scene):
        for selector in ("mi", "confidence_only", "none"):
            res = pl.run_round(scene, 0.5, 0.8, selector=selector)
            assert res.total_bits == res.payload_bits + res.abstract_bits + res.mask_bits
            assert res.bpp == pytest.approx(res.total_bits / (24 * 24))

    def test_abstract_only_for_mi_selector(self, scene):
        mi = pl.run_round(scene, 0.5, 1.0, selector="mi")
        conf = pl.run_round(scene, 0.5, 1.0, selector="confidence_only")
        none = pl.run_round(scene, 0.5, 1.0, selector="none")
        assert mi.abstract_bits > 0
        assert conf.abstract_bits == 0
        assert none.abstract_bits == 0

    def test_rate_monotone_in_tau_c(self, scene):
        taus = [0.0, 0.3, 0.6, 0.9, 0.99, 1.5]
        bits = [
            pl.run_round(scene, t, 0.5, selector="mi").total_bits for t in taus
        ]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_rate_monotone_in_tau_mi(self, scene):
        taus = [-2.0, -0.5, 0.0, 0.5, 1.5, float("inf")]
        bits = [
            pl.run_round(scene, 0.3, t, selector="mi").total_bits for t in taus
        ]
        assert all(a <= b for a, b in zip(bits, bits[1:]))

    def test_single_direction_pairs(self, scene):
        res = pl.run_round(scene, 0.5, 1.0, pairs=[(0, 1)])
        both = pl.run_round(scene, 0.5, 1.0)
        assert res.mask_bits == both.mask_bits // 2

    def test_selector_none_ignores_tau_mi(self, scene):
        a = pl.run_round(scene, 0.5, -5.0, selector="none")
        b = pl.run_round(scene, 0.5, 5.0, selector="none")
        assert a.total_bits == b.total_bits
        assert a.mean_iou == b.mean_iou

    def test_collaboration_beats_solo(self, scene):
        res = pl.run_round(scene, 0.5, float("inf"), selector="mi")
        assert res.mean_iou > pl.solo_iou(scene)

    def test_three_agent_round(self, stack):
        scene3 = pl.Scene(pl.make_world(THREE_AGENTS), stack)
        res = pl.run_round(scene3, 0.5, 1.0, selector="mi")
        # six directed messages, each carrying its two mask bitmaps
        assert res.mask_bits == 6 * 2 * 24 * 24
        assert res.total_bits == res.payload_bits + res.abstract_bits + res.mask_bits
        assert res.mean_iou > pl.solo_iou(scene3)

    @pytest.mark.parametrize(
        "pairs, named",
        [([], "pairs must name"), ([(0, 2)], r"\(0, 2\)"), ([(1, 1)], r"\(1, 1\)"),
         ([(0, 1), (-1, 0)], r"\(-1, 0\)"),
         ([(0, 1), (1, 0), (0, 1)], r"\(0, 1\) is repeated")],
    )
    def test_invalid_pairs_rejected(self, scene, pairs, named):
        with pytest.raises(ValueError, match=named):
            pl.run_round(scene, 0.5, 1.0, pairs=pairs)

    def test_class_absent_everywhere_stays_nan_without_a_warning(self, stack):
        # no objects: classes 1..3 are in no receiver's prediction or ground truth
        empty = pl.Scene(pl.make_world(pl.replace(
            TEMPLATE, h=12, w=12, density=0.0, seed=5,
            fovs=((("rect", 0, 0, 12, 9),), (("rect", 0, 3, 12, 12),)),
        )), stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pl.run_round(empty, 0.5, 1.0)
        assert res.per_class_iou[0] == 1.0
        assert np.isnan(res.per_class_iou[1:]).all()


def raw_fusion_iou(scene, r, senders):
    """Receiver r's mean IoU from its own features max-fused with the
    senders' raw features, each weighted by its trust, decoded and scored
    by the oracles."""
    cfg = scene.world.cfg
    fused = scene.feats[r]
    for s in senders:
        fused = np.maximum(fused, scene.feats[s] * pl._trust(cfg, s, r))
    post = oracle.posterior_from_features(fused, cfg, cfg.agent_noise(r))
    return oracle.score_iou(post.argmax(axis=2), scene.world.gt, cfg.n_classes)[1]


class TestCeilings:
    @pytest.mark.parametrize("template", [
        pl.replace(TEMPLATE, seed=43, noise=(0.02, 0.3)),
        pl.replace(THREE_AGENTS, noise=(0.0, 0.1, 0.3)),
    ], ids=["two_agents", "three_agents"])
    def test_solo_and_uncompressed_equal_the_raw_fusion_oracle(self, stack, template):
        scene = pl.Scene(pl.make_world(template), stack)
        agents = range(template.n_agents)
        solo = np.mean([raw_fusion_iou(scene, r, ()) for r in agents])
        shared = np.mean([raw_fusion_iou(scene, r, [s for s in agents if s != r])
                          for r in agents])
        assert solo < shared
        # the floor first: the ceiling must not reuse the receivers' solo scores
        assert pl.solo_iou(scene) == solo
        assert pl.uncompressed_iou(scene) == shared


class TestViews:
    def test_one_view_per_agent(self, world):
        feats, conf = pl.views(world)
        cfg = world.cfg
        assert feats.shape == (cfg.n_agents, cfg.h, cfg.w, cfg.feature_channels)
        for a, obs in enumerate(world.obs):
            want = sw.extract_features(obs, cfg)
            assert feats[a].tobytes() == want.tobytes()
            assert conf[a].tobytes() == sw.confidence(want, cfg, cfg.agent_noise(a)).tobytes()

    def test_scene_gates_observed_cells_only(self, stack, world):
        scene = pl.Scene(world, stack)
        observed = world.obs != sw.UNOBSERVED
        assert np.array_equal(scene.gate[observed], scene.conf[observed])
        assert np.all(scene.gate[~observed] == -np.inf)


class TestInertResidual:
    """With ``n_base >= K + 1`` the base codebook reproduces every one-hot
    pattern, so the residual refines only channels the decoder never reads:
    under the ``mi`` selector ``tau_mi`` moves the bits but not the task
    scores.  A change that lets the residual carry task information fails
    here."""

    def test_task_scores_do_not_depend_on_tau_mi(self, tradeoff_sweeps):
        scores, bits = {}, {}
        for r in tradeoff_sweeps["mi"]:
            scores.setdefault((r.seed, r.tau_c), set()).add((r.mean_iou, r.distortion_nats))
            bits.setdefault((r.seed, r.tau_c), set()).add(r.total_bits)
        assert len(scores) == 2 * len(ACCEPT_SEEDS)
        assert all(len(v) == 1 for v in scores.values())
        assert any(len(v) > 1 for v in bits.values())  # tau_mi did change the message

    def test_residual_leaves_the_class_channels_alone(self, tradeoff_stack):
        world = pl.make_world(pl.replace(TRADEOFF_WORLD, seed=ACCEPT_SEEDS[0]))
        scene = pl.Scene(world, tradeoff_stack)
        cb, k = tradeoff_stack.codebook, world.cfg.n_classes
        for idx in scene.idx:
            full = vq.reconstruct(idx, cb)
            base = vq.reconstruct(vq.IndexGrid(idx.base_idx, np.full_like(idx.res_idx, -1)), cb)
            assert full[..., :k].tobytes() == base[..., :k].tobytes()
            assert full.tobytes() != base.tobytes()


class TestTradeoffSweepBytes:
    """The criterion-8 sweeps (20 seeds, 2000-step stack) keep every byte of
    their ``results_csv``: a rewritten kernel that moves one bit of one
    round fails here."""

    @pytest.mark.parametrize("name", sorted(pins("tradeoff")))
    def test_results_csv_digest(self, tradeoff_sweeps, name, tmp_path):
        csv = pl.results_csv(tradeoff_sweeps[name], TRADEOFF_WORLD.n_classes)
        (tmp_path / name).write_text(csv)
        assert tree_digests(tmp_path) == {name: pins("tradeoff")[name]}


class TestTrainedStackBytes:
    """Both session stacks keep every byte of their codebook file, and
    criterion 7's 20 rounds every byte of their ``results_csv``: training
    is where the 8-channel squared distances act."""

    @pytest.mark.parametrize("name", sorted(pins("codebooks")))
    def test_codebook_digest(self, request, tmp_path, name):
        vq.save_codebook(request.getfixturevalue(name).codebook, str(tmp_path / name))
        assert tree_digests(tmp_path) == {name: pins("codebooks")[name]}

    def test_lossless_rounds_digest(self, lossless_stack, tmp_path):
        rounds = [
            pl.run_round(pl.Scene(pl.make_world(pl.replace(LOSSLESS_WORLD, seed=seed)),
                                  lossless_stack), 0.5, 1.0, "task_entropy", "mi", pairs=[(0, 1)])
            for seed in ACCEPT_SEEDS
        ]
        (tmp_path / "results.csv").write_text(pl.results_csv(rounds, LOSSLESS_WORLD.n_classes))
        assert tree_digests(tmp_path) == pins("lossless")


class TestSkippedDecode:
    """``received_grid`` builds the receiver's grid without decoding the
    message; that grid must be the one a decode of the message gives."""

    def test_received_grid_is_the_decoded_grid(self, stack, monkeypatch):
        built = []
        original = ec.transmitted_grid

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ec, "transmitted_grid", recording)
        inf = float("inf")
        worlds = [pl.make_world(pl.replace(TEMPLATE, seed=seed)) for seed in (42, 43)]
        worlds.append(pl.make_world(pl.replace(TEMPLATE, seed=44, fovs=(("full",),) * 2)))
        mask_kinds = set()
        grid = itertools.product(
            [pl.Scene(world, stack) for world in worlds], pl.CODERS, pl.SELECTORS,
            (-inf, 0.5, inf), (-inf, 0.0, 0.5, inf), ((0, 1), (1, 0)),
        )
        for scene, coder, selector, tau_c, tau_mi, (s, r) in grid:
            codes = scene.codes(coder)
            built.clear()
            msg = pl.encode_message(scene, coder, tau_c, tau_mi, selector, s, r)
            pl.received_grid(scene, msg, s, r)
            (got,) = built
            want = ec.decode(msg, codes)
            for a, b in ((got.base_idx, want.base_idx), (got.res_idx, want.res_idx)):
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
            for m in (msg.conf_mask, msg.redund_mask):
                mask_kinds.add((bool(m.any()), bool(m.all())))
        # empty, partial and full masks all met
        assert mask_kinds == {(False, False), (True, False), (True, True)}


@pytest.fixture(scope="module")
def receive_scenes(stack):
    """Scenes with equal and unequal trust, two and three agents."""
    return [
        pl.Scene(pl.make_world(pl.replace(TEMPLATE, seed=42)), stack),
        pl.Scene(pl.make_world(pl.replace(TEMPLATE, seed=43, noise=(0.02, 0.3))), stack),
        pl.Scene(pl.make_world(pl.replace(THREE_AGENTS, noise=(0.0, 0.1, 0.3))), stack),
    ]


def full_width_receive(scene, r, incoming, coder):
    """``Scene.receive`` on every channel of the decoded grids, from the
    oracles of reconstruction, smoothing, the posterior and IoU."""
    cfg = scene.world.cfg
    fused = scene.feats[r]
    for s, msg in incoming:
        grid = oracle.received_grid(ec.decode(msg, scene.codes(coder)), scene.stack.codebook)
        grid = np.where(msg.conf_mask[..., None], oracle.smooth(grid), grid)
        fused = np.maximum(fused, grid * pl._trust(cfg, s, r))
    post = oracle.posterior_from_features(fused, cfg, cfg.agent_noise(r))
    per_class, mean = oracle.score_iou(post.argmax(axis=2), scene.world.gt, cfg.n_classes)
    return per_class, mean, pl._mean_entropy_nats(post)


THRESHOLDS = st.sampled_from([-float("inf"), -1.0, 0.0, 0.3, 0.6, 0.9, float("inf")])


class TestReceiveOnFullGrid:
    """A receiver smooths, weights and fuses all 2K channels of a received
    grid, and smoothing's empty-cell test reads every one of them."""

    def test_cell_zero_only_on_the_evidence_stays_unfilled(self):
        cfg = sw.WorldConfig(h=3, w=4, n_classes=2, fovs=(("full",),) * 2, density=0.0,
                             rect_min=1, rect_max=1)
        # base rows: evidence for class 0; a neighbour histogram alone; nothing
        base = np.array([[1.0, 0.0, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        ones = np.ones(3)
        cb = vq.LayeredCodebook(vq.Codebook(base, ones, ones),
                                vq.Codebook(np.zeros((3, 4)), ones, ones))
        idx = vq.IndexGrid(np.array([[0, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 0]]),
                           np.zeros((3, 4), dtype=np.int64))
        every = np.ones((3, 4), dtype=bool)
        codes = (ec.fixed_code(3), ec.fixed_code(3))
        msg = ec.encode(idx, (every, every), codes, abstract=False)
        scene = types.SimpleNamespace(world=types.SimpleNamespace(cfg=cfg), idx=[idx, idx],
                                      stack=types.SimpleNamespace(codebook=cb))
        got = pl.received_grid(scene, msg, 0, 1)
        # (1, 1) carries a histogram, so it is not empty; (1, 2) is, and gets
        # half the mean of its 8 nonzero neighbours, 7 of which say class 0
        assert got.shape == (3, 4, 4)
        assert got[1, 1].tolist() == base[1].tolist()
        assert got[1, 2, 0] == 0.5 * 7 / 8
        want = oracle.smooth(oracle.received_grid(idx, cb))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scores_match_the_full_width_oracle(self, receive_scenes, data):
        scene = data.draw(st.sampled_from(receive_scenes))
        coder, selector = data.draw(st.sampled_from(pl.CODERS)), data.draw(
            st.sampled_from(pl.SELECTORS))
        tau_c = data.draw(THRESHOLDS | st.floats(0.0, 1.0))
        tau_mi = data.draw(THRESHOLDS | st.floats(-1.0, 2.0))
        agents = range(scene.world.cfg.n_agents)
        r = data.draw(st.sampled_from(agents))
        senders = data.draw(st.lists(st.sampled_from([s for s in agents if s != r]),
                                     min_size=1, unique=True))
        incoming = [(s, pl.encode_message(scene, coder, tau_c, tau_mi, selector, s, r))
                    for s in sorted(senders)]
        per_class, mean, entropy = scene.receive(r, incoming)
        want_per_class, want_mean, want_entropy = full_width_receive(scene, r, incoming, coder)
        assert per_class.tobytes() == want_per_class.tobytes()
        assert (mean, entropy) == (want_mean, want_entropy)


class TestSweep:
    def sweep_cfg(self, **kw):
        defaults = dict(
            tau_c_grid=(0.3, 0.9),
            tau_mi_grid=(0.0, float("inf")),
            seeds=(42, 43, 44),
            coder="task_entropy",
            selector="mi",
        )
        defaults.update(kw)
        return pl.SweepConfig(**defaults)

    def test_point_count(self, stack):
        results = pl.run_sweep(TEMPLATE, stack, self.sweep_cfg())
        assert len(results) == 2 * 2 * 3

    def test_singleton_grid(self, stack):
        cfg = self.sweep_cfg(tau_c_grid=(0.5,), tau_mi_grid=(1.0,), seeds=(42,))
        results = pl.run_sweep(TEMPLATE, stack, cfg)
        assert len(results) == 1

    def test_jobs_other_than_one_rejected(self, stack):
        with pytest.raises(ValueError, match="jobs must be 1"):
            pl.run_sweep(TEMPLATE, stack, self.sweep_cfg(), jobs=2)

    @pytest.mark.parametrize(
        "selector, coder",
        [("mi", "task_entropy"), ("confidence_only", "task_entropy"),
         ("none", "fixed"), ("mi", "fixed")],
    )
    def test_matches_rounds_on_fresh_worlds(self, stack, selector, coder):
        cfg = self.sweep_cfg(
            tau_mi_grid=(-1.0, 0.0, 0.6, float("inf")),
            seeds=(42, 43),
            coder=coder,
            selector=selector,
        )
        swept = pl.run_sweep(TEMPLATE, stack, cfg)
        fresh = [
            pl.run_round(
                pl.Scene(pl.make_world(pl.replace(TEMPLATE, seed=seed)), stack),
                tau_c, tau_mi, coder, selector,
            )
            for tau_c in cfg.tau_c_grid
            for tau_mi in cfg.tau_mi_grid
            for seed in cfg.seeds
        ]
        np.testing.assert_equal(
            [dataclasses.astuple(r) for r in swept],
            [dataclasses.astuple(r) for r in fresh],
        )

    def test_grids_on_shared_scenes_match_their_own_sweeps(self, stack):
        scenes = pl.scenes(TEMPLATE, stack, (43, 42, 44, 43))
        assert list(scenes) == [43, 42, 44]  # distinct, in first-appearance order
        for cfg in (
            self.sweep_cfg(),
            self.sweep_cfg(tau_mi_grid=(0.5,), seeds=(44, 43), selector="confidence_only"),
            self.sweep_cfg(tau_mi_grid=(float("inf"),), coder="fixed", selector="none"),
        ):
            np.testing.assert_equal(
                [dataclasses.astuple(r) for r in pl.sweep_scenes(scenes, cfg)],
                [dataclasses.astuple(r) for r in pl.run_sweep(TEMPLATE, stack, cfg)],
            )

    def test_each_stage_runs_once_per_input(self, stack, monkeypatch):
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((sw, "generate"), (sw, "extract_features"),
                             (vq, "quantize"), (mie, "redundancy_map"),
                             (ec, "build_code")):
            count(module, name)
        cfg = self.sweep_cfg(tau_mi_grid=(0.0, 0.5, float("inf")), seeds=(42, 43))
        assert len(pl.run_sweep(TEMPLATE, stack, cfg)) == 2 * 3 * 2
        # per seed: one world, features per agent, one quantization of every
        # agent's cells, the two code tables; one redundancy map per tau_c
        # and directed pair
        assert calls == {
            "generate": 2, "extract_features": 4, "quantize": 2, "redundancy_map": 8,
            "build_code": 4,
        }

    @pytest.mark.parametrize("selector", pl.SELECTORS)
    def test_three_agent_sweep_matches_fresh_rounds(self, stack, monkeypatch, selector):
        # -inf and -1.0 select the same cells under confidence_only and
        # none, and inf does under every selector, so rounds share decodes
        cfg = self.sweep_cfg(
            tau_mi_grid=(-float("inf"), -1.0, float("inf")), seeds=(77, 78), selector=selector
        )
        fresh = [
            pl.run_round(
                pl.Scene(pl.make_world(pl.replace(THREE_AGENTS, seed=seed)), stack),
                tau_c, tau_mi, cfg.coder, selector,
            )
            for tau_c in cfg.tau_c_grid
            for tau_mi in cfg.tau_mi_grid
            for seed in cfg.seeds
        ]
        smoothed = []
        original = sw.smooth
        monkeypatch.setattr(sw, "smooth", lambda x: smoothed.append(1) or original(x))
        swept = pl.run_sweep(THREE_AGENTS, stack, cfg)
        np.testing.assert_equal(
            [dataclasses.astuple(r) for r in swept],
            [dataclasses.astuple(r) for r in fresh],
        )
        assert len(smoothed) < 6 * len(swept)  # six messages a round

    @pytest.mark.parametrize("selector", pl.SELECTORS)
    def test_receive_runs_once_per_distinct_masks(self, stack, monkeypatch, selector):
        inf = float("inf")
        cfg = self.sweep_cfg(
            tau_c_grid=(0.0, 0.5), tau_mi_grid=(-inf, -1.0, 0.0, 1e9, inf), seeds=(42, 43),
            selector=selector,
        )
        # what reaches each receiver, from the masks alone: the confidence
        # mask, the cells with a base index and those with a residual index
        keys = set()
        for seed in cfg.seeds:
            scene = pl.Scene(pl.make_world(pl.replace(TEMPLATE, seed=seed)), stack)
            for tau_c, tau_mi, (s, r) in itertools.product(
                cfg.tau_c_grid, cfg.tau_mi_grid, ((0, 1), (1, 0))
            ):
                conf = scene.gate[s] > tau_c
                if selector == "mi":
                    both = conf & (scene.redundancy(s, r, tau_c) < tau_mi)
                else:
                    both = conf & (scene.conf[r] < tau_mi if selector == "confidence_only" else True)
                base = conf if selector == "mi" else both
                keys.add((seed, s, r, conf.tobytes(), base.tobytes(), both.tobytes()))
        calls = {}
        for module, name in ((ec, "encode"), (sw, "smooth"), (sw, "posterior_from_features")):

            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        results = pl.run_sweep(TEMPLATE, stack, cfg)
        messages = 2 * len(results)
        assert len(keys) < messages  # 1e9 and inf carry the same cells
        # every message is encoded, since the wire format sees each one;
        # each distinct input is smoothed and decoded once, besides the
        # posteriors of each agent's confidence and raw-fusion reference
        views = refs = 2 * len(cfg.seeds)
        assert calls == {
            "encode": messages, "smooth": len(keys),
            "posterior_from_features": len(keys) + views + refs,
        }

    def test_senders_with_equal_masks_decode_apart(self, stack):
        # every agent sees every cell, so under `none` at tau_c = -inf the
        # messages of agents 0 and 1 to agent 2 carry the same cells
        template = pl.replace(THREE_AGENTS, fovs=(("full",),) * 3)
        scene = pl.Scene(pl.make_world(template), stack)
        inf = float("inf")
        shared, fresh = [], []
        for pairs in ([(0, 2)], [(1, 2)]):
            shared.append(pl.run_round(scene, -inf, inf, selector="none", pairs=pairs))
            fresh.append(pl.run_round(
                pl.Scene(pl.make_world(template), stack), -inf, inf, selector="none", pairs=pairs
            ))
        assert shared[0].mean_iou != shared[1].mean_iou
        np.testing.assert_equal(
            [dataclasses.astuple(r) for r in shared], [dataclasses.astuple(r) for r in fresh]
        )

    def test_receive_keys_on_the_confidence_mask(self, stack, world):
        # two messages carry the same 4x4 block; the second's confidence
        # mask adds the ring around it, where the receiver smooths
        block, ring = np.zeros((2, TEMPLATE.h, TEMPLATE.w), bool)
        block[8:12, 8:12] = ring[7:13, 7:13] = True
        scene = pl.Scene(world, stack)
        inner, outer = (
            [(0, ec.encode(scene.idx[0], (conf, block), scene.codes("task_entropy"),
                           abstract=False))]
            for conf in (block, ring)
        )
        np.testing.assert_equal(ec.carried(inner[0][1]), ec.carried(outer[0][1]))
        first = scene.receive(1, inner)
        want = pl.Scene(world, stack).receive(1, outer)
        assert first[2] != want[2]  # smoothing into the ring moves the entropy
        np.testing.assert_equal(scene.receive(1, outer), want)

    @pytest.mark.parametrize("selector", pl.SELECTORS)
    def test_sweep_never_decodes(self, stack, monkeypatch, selector):
        calls = {"decode": 0, "quantize": 0}
        for module, name in ((ec, "decode"), (vq, "quantize")):

            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = self.sweep_cfg(seeds=(42, 43), selector=selector)
        assert len(pl.run_sweep(TEMPLATE, stack, cfg)) == 2 * 2 * 2
        # the receiver's grid comes from the sender's indices; quantization
        # still runs once per seed, over every agent's cells
        assert calls == {"decode": 0, "quantize": 2}

    def test_summary_grouping_and_pareto(self, stack):
        results = pl.run_sweep(TEMPLATE, stack, self.sweep_cfg())
        rows = pl.summarize(results)
        assert len(rows) == 4
        assert all(r["n_seeds"] == 3 for r in rows)
        front = [r for r in rows if r["pareto"]]
        assert front
        for a in front:
            for b in rows:
                strictly_better = (
                    b["mean_total_bits"] < a["mean_total_bits"] - 1e-9
                    and b["mean_iou"] >= a["mean_iou"]
                ) or (
                    b["mean_iou"] > a["mean_iou"] + 1e-12
                    and b["mean_total_bits"] <= a["mean_total_bits"]
                )
                assert not strictly_better

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            self.sweep_cfg(coder="magic")
        with pytest.raises(ValueError):
            self.sweep_cfg(selector="sometimes")
        with pytest.raises(ValueError):
            self.sweep_cfg(seeds=())


class TestCSV:
    def test_results_csv_shape(self, scene):
        results = [pl.run_round(scene, 0.5, 1.0), pl.run_round(scene, 0.9, 1.0)]
        text = pl.results_csv(results, TEMPLATE.n_classes)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:5] == ["seed", "tau_c", "tau_mi", "coder", "selector"]
        assert "iou_class_0" in header and "iou_class_3" in header
        assert header[-1] == "distortion_nats"
        assert len(lines[1].split(",")) == len(header)

    def test_results_csv_parses_back(self, scene):
        results = [pl.run_round(scene, tau_c, 1.0) for tau_c in (0.5, 0.9)]
        text = pl.results_csv(results, TEMPLATE.n_classes)
        assert pl.parse_results_csv(text) == results
        rows = text.splitlines()
        with pytest.raises(ValueError, match="cells"):
            pl.parse_results_csv("\n".join([rows[0], rows[1] + ",1"]))

    def test_summary_csv_round_trip_values(self, stack):
        results = pl.run_sweep(
            TEMPLATE,
            stack,
            pl.SweepConfig(
                tau_c_grid=(0.5,),
                tau_mi_grid=(1.0,),
                seeds=(42, 43),
            ),
        )
        rows = pl.summarize(results)
        text = pl.summary_csv(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        got_bits = float(lines[1].split(",")[5])
        assert got_bits == pytest.approx(np.mean([r.total_bits for r in results]))
