import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from pragcomm import entropy_coder as ec
from pragcomm import mi_estimator as mie
from pragcomm import pipeline as pl
from pragcomm import simworld as sw
from pragcomm import vq
from conftest import ACCEPT_SEEDS, TRADEOFF_WORLD


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

TRAIN = pl.TrainConfig(n_train_worlds=2, disc_steps=250, kmeans_iters=15)


@pytest.fixture(scope="module")
def stack():
    return pl.train_all(TEMPLATE, TRAIN)


@pytest.fixture(scope="module")
def world():
    return pl.make_world(pl.replace(TEMPLATE, seed=42))


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
    def test_threshold_above_max_confidence_matches_solo(self, stack, world):
        res = pl.run_round(world, stack, tau_c=1.5, tau_mi=float("inf"))
        assert res.payload_bits == 0
        assert res.abstract_bits == 0
        assert res.total_bits == res.mask_bits
        assert res.mean_iou == pytest.approx(pl.solo_iou(world), abs=1e-12)

    def test_everything_through_matches_full_sharing(self, stack, world):
        res = pl.run_round(world, stack, tau_c=0.0, tau_mi=float("inf"))
        assert res.mean_iou == pytest.approx(pl.uncompressed_iou(world), abs=0.02)

    def test_round_deterministic(self, stack, world):
        a = pl.run_round(world, stack, 0.5, 1.0)
        b = pl.run_round(world, stack, 0.5, 1.0)
        assert a == b

    def test_accounting_identity(self, stack, world):
        for selector in ("mi", "confidence_only", "none"):
            res = pl.run_round(world, stack, 0.5, 0.8, selector=selector)
            assert res.total_bits == res.payload_bits + res.abstract_bits + res.mask_bits
            assert res.bpp == pytest.approx(res.total_bits / (24 * 24))

    def test_abstract_only_for_mi_selector(self, stack, world):
        mi = pl.run_round(world, stack, 0.5, 1.0, selector="mi")
        conf = pl.run_round(world, stack, 0.5, 1.0, selector="confidence_only")
        none = pl.run_round(world, stack, 0.5, 1.0, selector="none")
        assert mi.abstract_bits > 0
        assert conf.abstract_bits == 0
        assert none.abstract_bits == 0

    def test_rate_monotone_in_tau_c(self, stack, world):
        taus = [0.0, 0.3, 0.6, 0.9, 0.99, 1.5]
        bits = [
            pl.run_round(world, stack, t, 0.5, selector="mi").total_bits for t in taus
        ]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_rate_monotone_in_tau_mi(self, stack, world):
        taus = [-2.0, -0.5, 0.0, 0.5, 1.5, float("inf")]
        bits = [
            pl.run_round(world, stack, 0.3, t, selector="mi").total_bits for t in taus
        ]
        assert all(a <= b for a, b in zip(bits, bits[1:]))

    def test_single_direction_pairs(self, stack, world):
        res = pl.run_round(world, stack, 0.5, 1.0, pairs=[(0, 1)])
        both = pl.run_round(world, stack, 0.5, 1.0)
        assert res.mask_bits == both.mask_bits // 2

    def test_selector_none_ignores_tau_mi(self, stack, world):
        a = pl.run_round(world, stack, 0.5, -5.0, selector="none")
        b = pl.run_round(world, stack, 0.5, 5.0, selector="none")
        assert a.total_bits == b.total_bits
        assert a.mean_iou == b.mean_iou

    def test_collaboration_beats_solo(self, stack, world):
        res = pl.run_round(world, stack, 0.5, float("inf"), selector="mi")
        assert res.mean_iou > pl.solo_iou(world)

    def test_three_agent_round(self, stack):
        cfg3 = pl.replace(
            TEMPLATE,
            n_agents=3,
            noise=0.05,
            fovs=(
                (("rect", 0, 0, 24, 12),),
                (("rect", 0, 6, 24, 18),),
                (("rect", 0, 12, 24, 24),),
            ),
            seed=77,
        )
        world3 = pl.make_world(cfg3)
        res = pl.run_round(world3, stack, 0.5, 1.0, selector="mi")
        # six directed messages, each carrying its two mask bitmaps
        assert res.mask_bits == 6 * 2 * 24 * 24
        assert res.total_bits == res.payload_bits + res.abstract_bits + res.mask_bits
        assert res.mean_iou > pl.solo_iou(world3)

    def test_class_absent_everywhere_stays_nan_without_a_warning(self, stack):
        # no objects: classes 1..3 are in no receiver's prediction or ground truth
        empty = pl.make_world(pl.replace(
            TEMPLATE, h=12, w=12, density=0.0, seed=5,
            fovs=((("rect", 0, 0, 12, 9),), (("rect", 0, 3, 12, 12),)),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pl.run_round(empty, stack, 0.5, 1.0)
        assert res.per_class_iou[0] == 1.0
        assert np.isnan(res.per_class_iou[1:]).all()


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


class TestSkippedDecode:
    """``directed_message`` builds the receiver's grid without decoding the
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
            msg, _ = pl.directed_message(scene, codes, tau_c, tau_mi, selector, s, r)
            (got,) = built
            want = ec.decode(msg, codes)
            for a, b in ((got.base_idx, want.base_idx), (got.res_idx, want.res_idx)):
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
            for m in (msg.conf_mask, msg.redund_mask):
                mask_kinds.add((bool(m.any()), bool(m.all())))
        # empty, partial and full masks all met
        assert mask_kinds == {(False, False), (True, False), (True, True)}


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
                pl.make_world(pl.replace(TEMPLATE, seed=seed)),
                stack, tau_c, tau_mi, coder, selector,
            )
            for tau_c in cfg.tau_c_grid
            for tau_mi in cfg.tau_mi_grid
            for seed in cfg.seeds
        ]
        np.testing.assert_equal(
            [dataclasses.astuple(r) for r in swept],
            [dataclasses.astuple(r) for r in fresh],
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
        # per seed: one world, features and quantization per agent, the two
        # code tables; one redundancy map per tau_c and directed pair
        assert calls == {
            "generate": 2, "extract_features": 4, "quantize": 4, "redundancy_map": 8,
            "build_code": 4,
        }

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
        # still runs once per seed and agent
        assert calls == {"decode": 0, "quantize": 4}

    def test_scene_belongs_to_its_stack(self, stack, world):
        other = pl.TrainedStack(stack.codebook, stack.discriminator, [], [])
        scene = pl.Scene(world, stack)
        with pytest.raises(ValueError, match="another stack"):
            pl.run_round(scene, other, 0.5, 1.0)

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
    def test_results_csv_shape(self, stack, world):
        results = [
            pl.run_round(world, stack, 0.5, 1.0),
            pl.run_round(world, stack, 0.9, 1.0),
        ]
        text = pl.results_csv(results, TEMPLATE.n_classes)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:5] == ["seed", "tau_c", "tau_mi", "coder", "selector"]
        assert "iou_class_0" in header and "iou_class_3" in header
        assert header[-1] == "distortion_nats"
        assert len(lines[1].split(",")) == len(header)

    def test_results_csv_parses_back(self, stack, world):
        results = [pl.run_round(world, stack, tau_c, 1.0) for tau_c in (0.5, 0.9)]
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
