import json
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm import bayes_risk as br
from pragcomm import cli
from pragcomm import mi_estimator as mie
from pragcomm import pipeline as pl
from pragcomm import rd_oracle as rd
from pragcomm import verify, vq
from pragcomm.cli import ConfigError, RunConfig, main, parse_config
from pragcomm.pipeline import (
    CODERS, SELECTORS, RoundResult, SweepConfig, TrainConfig, results_csv,
)
from pragcomm.simworld import MAX_AGENTS, WorldConfig
from pragcomm.textio import load_arrays

from goldens import pins, tree_digests


FAST_CFG = """
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
coder = task_entropy
selector = mi

[verify]
sources = 6
tables = 40
mc_draws = 200000
z_max = 3
seed = 7
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG)
    return path


def fast_cfg_with(section: str, line: str) -> str:
    """``FAST_CFG`` with the line of ``[section]`` that sets ``line``'s key
    replaced by ``line``; fails if that section does not set the key."""
    rows, current, key = FAST_CFG.splitlines(), None, line.split()[0]
    for i, row in enumerate(rows):
        if row.startswith("["):
            current = row.strip("[]")
        elif current == section and row.split()[:1] == [key]:
            rows[i] = line  # parse_config rejects a repeated key, so this is the one
            return "\n".join(rows)
    raise AssertionError(f"FAST_CFG's [{section}] does not set {key}")


SMALL_CFG = Path(__file__).resolve().parents[1] / "configs" / "small.cfg"


class TestConfigParsing:
    def test_parses_valid_config(self, cfg_file):
        cfg = parse_config(str(cfg_file))
        assert cfg.world.h == 16
        assert cfg.world.noise == (0.05, 0.2)
        assert cfg.sweep.coder == "task_entropy"
        assert cfg.train.tau_c_choices == (0.3, 0.6)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[world]\nhh = 3\n")
        with pytest.raises(ConfigError, match="unknown key 'hh'"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[world]\nh 3\n", "malformed line 2: 'h 3'"),  # no '='
            ("h = 3\n", "malformed line 1: 'h = 3'"),  # before any section
        ],
    )
    def test_malformed_line_rejected(self, text, message, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert str(err.value) == message

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[cosmos]\nh = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(str(path))

    def test_invalid_value_names_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[world]\nnoise = 0.7\n")
        with pytest.raises(ConfigError, match="world"):
            parse_config(str(path))

    def test_cli_exit_code_2_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[world]\nwhatever = 1\n")
        code = main(["gen-world", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "whatever" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["noise = abc", "fov_0 = rect 0 x 16 13", "density = high"]
    )
    def test_unparsable_world_value_is_usage_error(self, line, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(fast_cfg_with("world", line))
        code = main(["gen-world", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[sweep]\nseeds = 1,2\nseeds = 3\n", 3),
            ("[sweep]\nseeds = 1,2\n[world]\nh = 8\n[sweep]\nseeds = 3\n", 6),
        ],
    )
    def test_repeated_key_rejected(self, text, line, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(
            ConfigError, match=rf"repeated key 'seeds' in section 'sweep' \(line {line}\)"
        ):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("world", "h = abc", "[world] h: expected an integer, got 'abc'"),
            ("world", "agents = two", "[world] agents: expected an integer, got 'two'"),
            ("world", "density = high", "[world] density: expected a number, got 'high'"),
            ("world", "noise = 0.05,abc", "[world] noise: expected a number, got 'abc'"),
            ("world", "fov_0 = rect 0 x 16 13", "[world] fov_0: expected an integer, got 'x'"),
            ("world", "fov_1 = sector 8 8 a 0 90",
             "[world] fov_1: expected a number, got 'a'"),
            ("codebook", "n_base = 2.5", "[codebook] n_base: expected an integer, got '2.5'"),
            ("codebook", "seed = x", "[codebook] seed: expected an integer, got 'x'"),
            ("discriminator", "steps = abc",
             "[discriminator] steps: expected an integer, got 'abc'"),
            ("discriminator", "lr = fast", "[discriminator] lr: expected a number, got 'fast'"),
            ("train", "seed = 9e3", "[train] seed: expected an integer, got '9e3'"),
            ("train", "tau_c_choices = 0.2,x",
             "[train] tau_c_choices: expected a number, got 'x'"),
            ("sweep", "seeds = 1,two", "[sweep] seeds: expected an integer, got 'two'"),
            ("sweep", "tau_mi = 0.0,big", "[sweep] tau_mi: expected a number, got 'big'"),
            ("verify", "mc_draws = 1e6", "[verify] mc_draws: expected an integer, got '1e6'"),
            ("verify", "seed = seven", "[verify] seed: expected an integer, got 'seven'"),
        ],
    )
    def test_unparsable_number_names_key(self, section, line, message, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(fast_cfg_with(section, line))
        code = main(["gen-world", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["gen-world", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == 2


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "line, key",
        [
            ("hidden = 0", "[discriminator] hidden"),
            ("steps = -3", "[discriminator] steps"),
            ("lr = 0", "[discriminator] lr"),
            ("lr = nan", "[discriminator] lr"),
            ("lr = inf", "[discriminator] lr"),
            ("iters = -2", "[codebook] iters"),
            ("n_base = 0", "[codebook] n_base"),
            ("n_res = 0", "[codebook] n_res"),
            ("worlds = 0", "[train] worlds"),
            ("tau_c_choices =", "[train] tau_c_choices"),
            ("tau_c_choices = 0.3,nan", "[train] tau_c_choices"),
        ],
    )
    def test_bad_training_value_is_usage_error(self, line, key, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(fast_cfg_with(key.split("]")[0].strip("["), line))
        out = tmp_path / "train"
        code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (out / "codebook.txt").exists()


class TestSweepConfigValidation:
    @pytest.mark.parametrize(
        "line",
        [
            "seeds = 1,1,2",
            "seeds = 2,1,2",
            "tau_c = 0.3,0.3",
            "tau_mi = 0.0,-0.0",
            "tau_mi = inf,1,inf",
        ],
    )
    def test_repeated_entry_is_usage_error(self, line, tmp_path, capsys):
        # a repeat ran its rounds twice and counted them twice in summary.csv
        path = tmp_path / "bad.cfg"
        path.write_text(fast_cfg_with("sweep", line))
        out = tmp_path / "swept"
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        key = line.split()[0]
        assert (code, len(err)) == (2, 1)
        assert err[0].startswith(f"error: invalid [sweep] config: {key} must not repeat a value")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-world", "train", "sweep", "verify-theory"])
    def test_rejected_config_makes_no_out_directory(self, command, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(fast_cfg_with("sweep", "seeds = 1,1"))
        out = tmp_path / "nested" / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not (tmp_path / "nested").exists()


class TestCodebookSizes:
    @pytest.mark.parametrize(
        "lines, message",
        [
            ({"n_base": "n_base = 33"},
             "error: [codebook] n_base: must be at most [codebook] n_res = 32, got 33"),
            ({"n_res": "n_res = 1025"},
             "error: [codebook] n_res: must be at most the 1024 training cells "
             "([train] worlds x [world] agents x h x w), got 1025"),
        ],
    )
    def test_codebook_larger_than_allowed_names_its_key(self, lines, message, tmp_path, capsys):
        text = fast_cfg_with("codebook", *lines.values())
        assert run_gen_world(text, tmp_path, capsys) == (2, [message])

    def test_residual_codebook_past_a_16_bit_code_rejected(self, tmp_path):
        # 4 worlds x 2 agents x 91 x 91 = 66248 training cells would hold
        # 65537 codewords; parsed only, since k-means on it needs tens of GB
        path = tmp_path / "wide.cfg"
        text = "[world]\nh = 91\nw = 91\nagents = 2\n[train]\nworlds = 4\n"
        text += "[codebook]\nn_res = {}\n"
        path.write_text(text.format(65536))
        assert parse_config(str(path)).train.n_res == 65536
        path.write_text(text.format(65537))
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert str(err.value) == (
            "[codebook] n_res: must be at most 65536, the most symbols a 16-bit code "
            "holds, got 65537"
        )

    def test_residual_codebook_above_the_training_cells_fails_train(self, tmp_path, capsys):
        # the config fuzz's case: 1 world x 2 agents x 2 x 3 cells = 12 < 13
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "[world]\nh = 2\nw = 3\nrect_min = 1\nrect_max = 1\n"
            "[codebook]\nn_base = 4\nn_res = 13\n[train]\nworlds = 1\n"
        )
        out = tmp_path / "t"
        code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [codebook] n_res: must be at most the 12 training cells "
            "([train] worlds x [world] agents x h x w), got 13"
        ]
        assert not (out / "codebook.txt").exists()


def run_gen_world(text: str, tmp_path, capsys) -> tuple[int, list[str]]:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code = main(["gen-world", "--config", str(path), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.splitlines()


DEFAULTS = RunConfig(WorldConfig(), TrainConfig(), SweepConfig(), verify.VerifyConfig())
SEEDS = st.integers(0, 10**12)
COUNTS = st.integers(1, 10**9)
FLIP = st.floats(0.0, 0.5, exclude_max=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def float_lists(elements):
    return st.lists(elements, min_size=1, max_size=5).map(tuple)


def distinct_lists(elements):
    """Lists with no two equal entries, as a [sweep] grid or seed list must be."""
    return st.lists(elements, min_size=1, max_size=5, unique=True).map(tuple)


# (section, key) -> (RunConfig attribute, field, valid values).  Valid values
# keep the other defaults valid too.
VALID = {
    ("world", "h"): ("world", "h", st.integers(7, 64)),
    ("world", "w"): ("world", "w", st.integers(7, 64)),
    ("world", "classes"): ("world", "n_classes", st.integers(2, 50)),
    ("world", "agents"): ("world", "n_agents", st.integers(2, MAX_AGENTS)),
    ("world", "noise"): ("world", "noise", FLIP | st.tuples(FLIP, FLIP)),
    ("world", "density"): ("world", "density", st.floats(0.0, 1.0, exclude_max=True)),
    ("world", "rect_min"): ("world", "rect_min", st.integers(1, 7)),
    ("world", "rect_max"): ("world", "rect_max", st.integers(3, 32)),
    ("world", "seed"): ("world", "seed", SEEDS),
    # n_base up to the default n_res; n_res from the default n_base up to the
    # default world's 4 x 2 x 32 x 32 training cells
    ("codebook", "n_base"): ("train", "n_base", st.integers(1, 64)),
    ("codebook", "n_res"): ("train", "n_res", st.integers(4, 8192)),
    ("codebook", "iters"): ("train", "kmeans_iters", COUNTS),
    ("codebook", "seed"): ("train", "codebook_seed", SEEDS),
    ("discriminator", "steps"): ("train", "disc_steps", COUNTS),
    ("discriminator", "lr"): ("train", "disc_lr", st.floats(0.0, exclude_min=True,
                                                            allow_infinity=False)),
    ("discriminator", "hidden"): ("train", "disc_hidden", COUNTS),
    ("discriminator", "seed"): ("train", "disc_seed", SEEDS),
    ("train", "worlds"): ("train", "n_train_worlds", COUNTS),
    ("train", "seed"): ("train", "train_seed", SEEDS),
    ("train", "tau_c_choices"): ("train", "tau_c_choices", float_lists(FINITE)),
    ("sweep", "tau_c"): ("sweep", "tau_c_grid", distinct_lists(st.floats(allow_nan=False))),
    ("sweep", "tau_mi"): ("sweep", "tau_mi_grid", distinct_lists(st.floats(allow_nan=False))),
    ("sweep", "seeds"): ("sweep", "seeds", distinct_lists(SEEDS)),
    ("sweep", "coder"): ("sweep", "coder", st.sampled_from(CODERS)),
    ("sweep", "selector"): ("sweep", "selector", st.sampled_from(SELECTORS)),
    ("verify", "sources"): ("verify", "sources", st.integers(1, cli.MAX_SOURCES)),
    ("verify", "tables"): ("verify", "tables", st.integers(1, cli.MAX_TABLES)),
    ("verify", "mc_draws"): ("verify", "mc_draws", st.integers(1, cli.MAX_MC_DRAWS)),
    ("verify", "z_max"): ("verify", "z_max", COUNTS),
    ("verify", "seed"): ("verify", "seed", SEEDS),
}


def config_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


class TestConfigTable:
    def test_empty_config_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert parse_config(str(path)) == DEFAULTS

    def test_property_covers_every_table_key(self):
        assert set(VALID) == set(cli._TABLE)

    @settings(max_examples=300, deadline=None)
    @given(entry=st.sampled_from(sorted(VALID)), data=st.data())
    def test_one_key_replaces_only_its_field(self, entry, data):
        section, key = entry
        target, field, values = VALID[entry]
        value = data.draw(values)
        changes = {field: value}
        if key == "agents":  # each agent without a fov_N line sees the whole grid
            changes["fovs"] = (("full",),) * value
        want = replace(DEFAULTS, **{target: replace(getattr(DEFAULTS, target), **changes)})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "one.cfg"
            path.write_text(f"[{section}]\n{key} = {config_text(value)}\n")
            assert parse_config(str(path)) == want

    @pytest.mark.parametrize(
        "line, message",
        [
            ("h = abc", "error: [world] h: expected an integer, got 'abc'"),
            ("hidden = 0", "error: [discriminator] hidden: must be at least 1, got 0"),
            ("noise = 0.7", "error: invalid [world] config: noise must be in [0, 0.5)"),
        ],
    )
    def test_error_carries_one_prefix(self, line, message, tmp_path, capsys):
        text = fast_cfg_with(message.split("[")[1].split("]")[0], line)
        assert run_gen_world(text, tmp_path, capsys) == (2, [message])

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("rect 0 0 32 28 99", "rect takes 4 values, got 5"),
            ("rect 0 0", "rect takes 4 values, got 2"),
            ("sector 8 8 3 0 90 7 7", "sector takes 5 values, got 7"),
            ("sector 8 8 3", "sector takes 5 values, got 3"),
            ("full extra", "full takes 0 values, got 1"),
            ("full; rect 0 0 4", "rect takes 4 values, got 3"),
            ("circle 1 2 3", "unknown fov shape 'circle'"),
            ("", "empty fov spec"),
            (" ; ", "empty fov spec"),
        ],
    )
    def test_bad_fov_spec_names_its_key(self, spec, reason, tmp_path, capsys):
        text = f"[world]\nfov_0 = full\nfov_1 = {spec}\n"
        assert run_gen_world(text, tmp_path, capsys) == (2, [f"error: [world] fov_1: {reason}"])

    @pytest.mark.parametrize("key", ["fov_00", "fov_01", "fov_", "fov_-1", "fov_2"])
    def test_fov_key_must_name_an_agent_once(self, key, tmp_path, capsys):
        code, err = run_gen_world(f"[world]\nfov_1 = full\n{key} = full\n", tmp_path, capsys)
        assert code == 2 and len(err) == 1 and f"unknown key '{key}'" in err[0]

    def test_huge_agent_count_rejected_without_a_spec_per_agent(self, tmp_path, capsys):
        code, err = run_gen_world(f"[world]\nagents = {10**12}\n", tmp_path, capsys)
        want = "error: invalid [world] config: n_agents must be between 2 and 5"
        assert (code, err) == (2, [want])

    def test_rectangle_filling_the_grid_rejected(self, tmp_path, capsys):
        text = "[world]\nh = 3\nw = 3\nrect_min = 3\nrect_max = 3\n"
        want = "error: invalid [world] config: rect_min = rect_max = 3 fills the 3x3 grid"
        assert run_gen_world(text, tmp_path, capsys) == (2, [want])

    def test_rectangles_up_to_the_grid_side_accepted(self, tmp_path, capsys):
        text = "[world]\nh = 4\nw = 4\nrect_min = 3\nrect_max = 4\n"
        assert run_gen_world(text, tmp_path, capsys) == (0, [])
        assert (tmp_path / "o" / "world_0.txt").exists()

    @pytest.mark.parametrize("key", ["h", "w"])
    def test_grid_wider_than_the_wire_format_rejected(self, key, tmp_path, capsys):
        # rejected when the config is built: a grid this size is never allocated
        shape = "65536x32" if key == "h" else "32x65536"
        want = (
            f"error: invalid [world] config: grid {shape} does not fit the wire "
            "format's 16-bit h and w fields"
        )
        assert run_gen_world(f"[world]\n{key} = 65536\n", tmp_path, capsys) == (2, [want])

    @pytest.mark.parametrize("agent", [0, 1])
    def test_fov_outside_the_grid_names_its_key(self, agent, tmp_path, capsys):
        text = f"[world]\nfov_{agent} = rect 0 0 99 99\n"
        want = (
            f"error: invalid [world] config: fov_{agent}: "
            "rect ('rect', 0, 0, 99, 99) outside the 32x32 grid"
        )
        assert run_gen_world(text, tmp_path, capsys) == (2, [want])

    @pytest.mark.parametrize("angles", ["nan 90", "inf 90", "-inf 90", "0 nan"])
    def test_non_finite_sector_names_its_key(self, angles, tmp_path, capsys):
        text = f"[world]\nfov_0 = sector 16 16 10 {angles}\n"
        code, err = run_gen_world(text, tmp_path, capsys)
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error: invalid [world] config: fov_0: sector")
        assert err[0].endswith("needs a finite radius and angles")


class TestSeeds:
    """A negative seed is a usage error naming its key, raised before any work."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def train_all(*args):
            raise AssertionError("training ran before the seed was checked")

        monkeypatch.setattr(cli.pl, "train_all", train_all)

    @pytest.mark.parametrize("command", ["gen-world", "train", "sweep", "verify-theory"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("world", "seed", "-3"),
            ("codebook", "seed", "-1"),
            ("discriminator", "seed", "-2"),
            ("train", "seed", "-9000"),
            ("verify", "seed", "-7"),
            ("sweep", "seeds", "1,-1,2"),
        ],
    )
    def test_negative_config_seed_names_its_key(self, command, section, key, value,
                                                tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        bad = next(v for v in value.split(",") if v.startswith("-"))
        want = f"error: [{section}] {key}: must be at least 0, got {bad}"
        assert (code, capsys.readouterr().err.splitlines()) == (2, [want])

    @pytest.mark.parametrize("command", ["gen-world", "train", "sweep", "verify-theory"])
    def test_negative_seed_option_is_usage_error(self, command, cfg_file, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg_file), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"pragcomm {command}: error: argument --seed: must be at least 0, got -1"
        assert not out.exists()

    def test_seed_zero_accepted(self, tmp_path, capsys):
        assert run_gen_world("[world]\nseed = 0\n", tmp_path, capsys) == (0, [])


class TestGenWorld:
    def test_writes_snapshots_and_manifest(self, cfg_file, tmp_path):
        out = tmp_path / "world_out"
        assert main(["gen-world", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert (out / "world_3.txt").exists()
        assert (out / "obs_3_agent0.txt").exists()
        assert (out / "obs_3_agent1.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-world"
        assert manifest["seed"] == 3

    def test_seed_override(self, cfg_file, tmp_path):
        out = tmp_path / "world_out"
        assert main(
            ["gen-world", "--config", str(cfg_file), "--out", str(out), "--seed", "9"]
        ) == 0
        assert (out / "world_9.txt").exists()

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-world", "--config", str(cfg_file), "--out", str(out1)])
        main(["gen-world", "--config", str(cfg_file), "--out", str(out2)])
        assert tree_digests(out1) == tree_digests(out2)

    def test_labels_pinned(self, cfg_file, tmp_path):
        out = tmp_path / "world_out"
        assert main(["gen-world", "--config", str(cfg_file), "--out", str(out)]) == 0
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("gen-world")} == pins("gen-world")


class TestTrainAndSweep:
    def test_train_writes_artifacts(self, cfg_file, tmp_path):
        out = tmp_path / "trained"
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert (out / "codebook.txt").exists()
        assert (out / "discriminator.txt").exists()
        assert (out / "tau_draws.txt").exists()
        losses = load_arrays(str(out / "disc_losses.txt"), ["disc_losses"])["disc_losses"]
        assert len(losses) == 60  # one per discriminator step
        assert losses[-1] < losses[0]

    def test_train_bytes_pinned(self, cfg_file, tmp_path):
        # the discriminator, its loss curve and the threshold draws are
        # pinned nowhere else; the sweep sees them only through masks
        out = tmp_path / "trained"
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("train")} == pins("train")

    def test_stack_scores_the_same_through_its_files(self, cfg_file, tmp_path):
        # a stack loaded from train's files must score redundancy exactly as
        # the stack train_all returns; its discriminator is float64 in both
        out = tmp_path / "trained"
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = parse_config(str(cfg_file))
        stack = pl.train_all(cfg.world, cfg.train)
        assert {a.dtype for layer in stack.discriminator.weights for a in layer} == {
            np.dtype(np.float64)
        }
        loaded = pl.TrainedStack(
            vq.load_codebook(str(out / "codebook.txt")),
            mie.load_discriminator(str(out / "discriminator.txt")),
            stack.tau_draws,
            stack.disc_losses,
        )
        want, got = (pl.scenes(cfg.world, k, cfg.sweep.seeds) for k in (stack, loaded))
        for seed in cfg.sweep.seeds:
            for tau_c in cfg.sweep.tau_c_grid:
                for s, r in [(0, 1), (1, 0)]:  # FAST_CFG's two agents
                    assert np.array_equal(
                        got[seed].redundancy(s, r, tau_c), want[seed].redundancy(s, r, tau_c)
                    )

    def test_diverging_discriminator_is_run_error(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text(fast_cfg_with("discriminator", "lr = 1e300"))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "non-finite" in err[0]

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_no_confident_training_cell_names_keys(self, command, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text(
            "[world]\nh = 8\nw = 8\ndensity = 0\n"
            "[codebook]\nn_base = 2\nn_res = 4\n[discriminator]\nsteps = 3\n"
        )
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: no training cell's confidence exceeds its [train] tau_c_choices "
            "draw; lower those thresholds or raise [world] density"
        ]

    def test_task_entropy_without_confidence_names_density(self, tmp_path, capsys):
        # every cell passes a negative threshold, and every confidence is 0
        path = tmp_path / "flat.cfg"
        path.write_text(
            "[world]\nh = 8\nw = 8\ndensity = 0\n"
            "[codebook]\nn_base = 2\nn_res = 4\n[discriminator]\nsteps = 3\n"
            "[train]\ntau_c_choices = -0.5\n[sweep]\nseeds = 1\n"
        )
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the task_entropy coder weights codewords by training confidence, "
            "which is 0 on every cell; raise [world] density or choose another [sweep] coder"
        ]

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: out of memory"),
            (MemoryError("Unable to allocate 8.00 EiB"),
             "error: out of memory: Unable to allocate 8.00 EiB"),
        ],
    )
    def test_out_of_memory_is_run_error(self, exc, line, cfg_file, tmp_path, capsys,
                                        monkeypatch):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli.pl, "train_all", exhausted)
        assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    def test_unwritable_output_is_run_error(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "trained"
        (out / "codebook.txt").mkdir(parents=True)  # a directory where a file goes
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "codebook.txt" in capsys.readouterr().err

    def test_out_is_a_file(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["gen-world", "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_outputs_and_row_count(self, cfg_file, tmp_path):
        out = tmp_path / "swept"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 2 * 2 * 2  # |tau_c| * |tau_mi| * |seeds|
        assert (out / "summary.csv").exists()
        assert (out / "sample_message.bin").read_bytes()[:4] == b"RDCM"

    def test_sweep_bytes_pinned(self, cfg_file, tmp_path):
        # the sample message is the only CLI output that goes through the
        # wire format; any change to rounds, codes or bits moves a digest
        out = tmp_path / "swept"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("sweep")} == pins("sweep")

    def test_sweep_prepares_one_scene_per_seed(self, cfg_file, tmp_path, monkeypatch):
        # the sample message is encoded on the sweep's scene of the first seed
        prepared = []
        original = pl.Scene.__init__

        def counted(scene, world, stack):
            prepared.append(world.cfg.seed)
            original(scene, world, stack)

        monkeypatch.setattr(pl.Scene, "__init__", counted)
        out = tmp_path / "swept"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert prepared == [1, 2]  # FAST_CFG's seeds
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("sweep")} == pins("sweep")

    def test_export_emits_curves(self, cfg_file, tmp_path):
        out = tmp_path / "swept"
        main(["sweep", "--config", str(cfg_file), "--out", str(out)])
        exp = tmp_path / "curves"
        assert main(
            ["export", "--results", str(out / "results.csv"), "--out", str(exp)]
        ) == 0
        curve = (exp / "curve_task_entropy_mi.csv").read_text().strip().splitlines()
        assert curve[0] == "mean_total_bits,mean_iou,tau_c,tau_mi,pareto"
        assert len(curve) - 1 == 4  # one row per threshold pair

    def test_export_curves_pinned(self, cfg_file, tmp_path):
        out = tmp_path / "swept"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        exp = tmp_path / "curves"
        assert main(["export", "--results", str(out / "results.csv"), "--out", str(exp)]) == 0
        digests = tree_digests(exp)
        assert {name: digests[name] for name in pins("export")} == pins("export")

    @pytest.mark.parametrize(
        "text", ["", "seed,tau_c\n1,0.5\n", "seed,tau_c,tau_mi\n", "header only,\n"]
    )
    def test_export_malformed_results_rejected(self, text, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(text)
        assert main(["export", "--results", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_export_non_finite_iou_rejected(self, tmp_path, capsys):
        rounds = [
            RoundResult(1, 0.3, 0.0, "task_entropy", "mi", 100, 80, 10, 10, 0.1,
                        iou, (iou,), 0.0)
            for iou in (0.5, float("nan"))
        ]
        path = tmp_path / "results.csv"
        path.write_text(results_csv(rounds, 1))
        assert main(["export", "--results", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]

    def test_export_missing_file(self, tmp_path):
        assert main(
            ["export", "--results", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
        ) == 2


class TestVerifyTheory:
    def test_passes_and_reports(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify-theory", "--config", str(cfg_file), "--out", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert report.strip().endswith("OK")
        assert "FAIL" not in report
        names = [line.split()[1] for line in report.splitlines()[:-1]]
        assert names == list(verify.CHECK_NAMES)
        assert capsys.readouterr().out == report
        frontier = (out / "frontier.csv").read_text().strip().splitlines()
        assert frontier[0].startswith("source,encoder_id,rate_bits")
        assert len(frontier) > 10

    def test_outputs_pinned(self, cfg_file, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(cfg_file), "--out", str(out)]) == 0
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("verify")} == pins("verify")

    def test_small_config_outputs_pinned(self, tmp_path):
        # the benchmark's settings: 1M draws a Monte-Carlo check, 50 sources
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(SMALL_CFG), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text().strip().endswith("OK")
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("small-verify")} == pins("small-verify")

    def test_nan_margin_fails(self, cfg_file, tmp_path, monkeypatch):
        real = br.pragmatic_distortion

        def one_nan(table, task, params=None):
            d = real(table, task, params).copy()
            d[7] = float("nan")
            return d

        monkeypatch.setattr(br, "pragmatic_distortion", one_nan)
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(cfg_file), "--out", str(out)]) == 1
        report = (out / "report.txt").read_text().splitlines()
        assert "FAIL distortion_identity margin=nan tol=1.0e-10" in report
        assert "FAIL distortion_nonnegative margin=nan tol=-1.0e-10" in report
        assert report[-1] == "FAILED"

    def test_nan_distortion_is_an_error(self, cfg_file, tmp_path, monkeypatch, capsys):
        real = rd.frontier_columns

        def nan_distortion(source, z):
            columns = real(source, z)
            columns[1][-1, -1] = np.nan
            return columns

        monkeypatch.setattr(rd, "frontier_columns", nan_distortion)
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: delta must be >= 0"]
        report = (out / "report.txt").read_text().splitlines()
        assert report[-2:] == ["ERROR bound_soundness: delta must be >= 0", "FAILED"]

    @pytest.mark.parametrize("module, attr, check", [
        pytest.param(rd, "frontier_columns", "bound_soundness", id="bound_soundness"),
        pytest.param(rd, "check_conditions", "bound_tightness_conditions", id="tightness"),
    ])
    def test_check_that_raises_ends_the_report(
        self, module, attr, check, cfg_file, tmp_path, monkeypatch, capsys
    ):
        def fail(*args):
            raise RuntimeError("oracle broke")

        monkeypatch.setattr(module, attr, fail)
        before = threading.active_count()
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: oracle broke"]
        assert threading.active_count() == before
        # every check before the one that raised, as it passed
        ran = verify.CHECK_NAMES[: verify.CHECK_NAMES.index(check)]
        assert ran
        lines = [line.split(" margin=")[0] for line in captured.out.splitlines()]
        assert lines == [f"PASS {name}" for name in ran]
        report = (out / "report.txt").read_text().splitlines()
        assert report == [*captured.out.splitlines(), f"ERROR {check}: oracle broke", "FAILED"]
        assert sorted(p.name for p in out.iterdir()) == ["report.txt"]

    @pytest.mark.parametrize("slow", ["mc_l1_laplace", "mc_l1_gaussian"])
    def test_small_config_pinned_whichever_thread_ends_last(self, slow, tmp_path, monkeypatch):
        # the Laplace check runs on the worker, the Gaussian one on the main thread
        real = getattr(br, slow)

        def late(*args):
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(br, slow, late)
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(SMALL_CFG), "--out", str(out)]) == 0
        digests = tree_digests(out)
        assert {name: digests[name] for name in pins("small-verify")} == pins("small-verify")

    @pytest.mark.parametrize(
        "exc, line, reported",
        [(ValueError("bad draw"), "error: bad draw", "bad draw"),
         (MemoryError(), "error: out of memory", "MemoryError")],
        ids=["ValueError", "MemoryError"],
    )
    def test_worker_failure_is_one_error_line(
        self, exc, line, reported, cfg_file, tmp_path, monkeypatch, capsys
    ):
        def fail(*args):
            raise exc

        monkeypatch.setattr(br, "mc_l1_laplace", fail)
        before = threading.active_count()
        out = tmp_path / "verify"
        assert main(["verify-theory", "--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        assert "Traceback" not in captured.out + captured.err
        assert threading.active_count() == before
        report = (out / "report.txt").read_text().splitlines()
        assert report[-2:] == [f"ERROR mc_laplace_l1: {reported}", "FAILED"]

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        main(["verify-theory", "--config", str(cfg_file), "--out", str(out1)])
        main(["verify-theory", "--config", str(cfg_file), "--out", str(out2)])
        assert tree_digests(out1) == tree_digests(out2)

    @pytest.mark.parametrize(
        "line",
        ["sources = 0", "sources = -2", "tables = 0", "mc_draws = 0", "z_max = 0"],
    )
    def test_verify_count_below_one_is_usage_error(self, line, tmp_path, capsys):
        key = line.split()[0]
        path = tmp_path / "bad.cfg"
        path.write_text(fast_cfg_with("verify", line))
        out = tmp_path / "verify"
        code = main(["verify-theory", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "[verify]" in err[0] and key in err[0]
        assert "PASS" not in captured.out
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "key, cap, why",
        [
            ("mc_draws", cli.MAX_MC_DRAWS, "about 27 ns a draw"),
            ("tables", cli.MAX_TABLES, "1 GiB at 480 bytes a table"),
            ("sources", cli.MAX_SOURCES, "about 5 ms a source"),
        ],
        ids=["mc_draws", "tables", "sources"],
    )
    def test_size_caps_parsed_only(self, key, cap, why, tmp_path):
        # parsed only: a run past a cap would allocate gigabytes or take
        # minutes to hours
        path = tmp_path / "big.cfg"
        path.write_text(f"[verify]\n{key} = {cap}\n")
        assert getattr(parse_config(str(path)).verify, key) == cap
        path.write_text(f"[verify]\n{key} = {10 * cap + 1}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert str(err.value) == (
            f"[verify] {key}: must be at most {cap} ({why}), got {10 * cap + 1}"
        )


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    # sweeps run serially, so no command, sweep included, takes --jobs
    @pytest.mark.parametrize("command", ["gen-world", "train", "sweep", "verify-theory"])
    def test_no_command_takes_jobs(self, cfg_file, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg_file), "--out", str(out), "--jobs", "2"]
        assert main(argv) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
