import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm import cli
from pragcomm.cli import ConfigError, RunConfig, main, parse_config
from pragcomm.pipeline import (
    CODERS, SELECTORS, RoundResult, SweepConfig, TrainConfig, results_csv,
)
from pragcomm.simworld import MAX_AGENTS, WorldConfig
from pragcomm.textio import load_arrays


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


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


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
        key = line.split()[0]
        text = "\n".join(
            line if row.startswith(key + " ") else row for row in FAST_CFG.splitlines()
        )
        path = tmp_path / "bad.cfg"
        path.write_text(text)
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
        key = line.split()[0]
        rows, current = [], None
        for row in FAST_CFG.splitlines():
            if row.startswith("["):
                current = row.strip("[]")
            rows.append(line if current == section and row.startswith(key + " ") else row)
        assert line in rows
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(rows))
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
        name = line.split()[0]
        text = "\n".join(
            line if row.startswith(name + " ") else row for row in FAST_CFG.splitlines()
        )
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "train"
        code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (out / "codebook.txt").exists()


def run_gen_world(text: str, tmp_path, capsys) -> tuple[int, list[str]]:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code = main(["gen-world", "--config", str(path), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.splitlines()


DEFAULTS = RunConfig(WorldConfig(), TrainConfig(), SweepConfig())
SEEDS = st.integers(0, 10**12)
COUNTS = st.integers(1, 10**9)
FLIP = st.floats(0.0, 0.5, exclude_max=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def float_lists(elements):
    return st.lists(elements, min_size=1, max_size=5).map(tuple)


# (section, key) -> (RunConfig attribute, field, valid values); "run" names
# RunConfig's own fields.  Valid values keep the other defaults valid too.
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
    ("codebook", "n_base"): ("train", "n_base", COUNTS),
    ("codebook", "n_res"): ("train", "n_res", COUNTS),
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
    ("sweep", "tau_c"): ("sweep", "tau_c_grid", float_lists(st.floats(allow_nan=False))),
    ("sweep", "tau_mi"): ("sweep", "tau_mi_grid", float_lists(st.floats(allow_nan=False))),
    ("sweep", "seeds"): ("sweep", "seeds", st.lists(SEEDS, min_size=1, max_size=5).map(tuple)),
    ("sweep", "coder"): ("sweep", "coder", st.sampled_from(CODERS)),
    ("sweep", "selector"): ("sweep", "selector", st.sampled_from(SELECTORS)),
    ("verify", "sources"): ("run", "verify_sources", COUNTS),
    ("verify", "tables"): ("run", "verify_tables", COUNTS),
    ("verify", "mc_draws"): ("run", "verify_mc_draws", COUNTS),
    ("verify", "z_max"): ("run", "verify_z_max", COUNTS),
    ("verify", "seed"): ("run", "verify_seed", SEEDS),
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
        if target == "run":
            want = replace(DEFAULTS, **{field: value})
        else:
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
        key = line.split()[0]
        text = "\n".join(
            line if row.startswith(key + " ") else row for row in FAST_CFG.splitlines()
        )
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
        assert tree_digest(out1) == tree_digest(out2)


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

    def test_diverging_discriminator_is_run_error(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text(FAST_CFG.replace("lr = 0.3", "lr = 1e300"))
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

    def test_sweep_rerun_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["sweep", "--config", str(cfg_file), "--out", str(out1)])
        main(["sweep", "--config", str(cfg_file), "--out", str(out2)])
        assert tree_digest(out1) == tree_digest(out2)

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
        assert "bound_soundness" in report
        frontier = (out / "frontier.csv").read_text().strip().splitlines()
        assert frontier[0].startswith("source,encoder_id,rate_bits")
        assert len(frontier) > 10

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        main(["verify-theory", "--config", str(cfg_file), "--out", str(out1)])
        main(["verify-theory", "--config", str(cfg_file), "--out", str(out2)])
        assert tree_digest(out1) == tree_digest(out2)

    @pytest.mark.parametrize(
        "line",
        ["sources = 0", "sources = -2", "tables = 0", "mc_draws = 0", "z_max = 0"],
    )
    def test_verify_count_below_one_is_usage_error(self, line, tmp_path, capsys):
        key = line.split()[0]
        text = "\n".join(
            line if row.startswith(key + " ") else row for row in FAST_CFG.splitlines()
        )
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "verify"
        code = main(["verify-theory", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "[verify]" in err[0] and key in err[0]
        assert "PASS" not in captured.out
        assert not (out / "report.txt").exists()

    def test_shipped_config_passes(self, tmp_path):
        shipped = Path(__file__).resolve().parent.parent / "configs" / "small.cfg"
        out = tmp_path / "shipped"
        code = main(["verify-theory", "--config", str(shipped), "--out", str(out)])
        assert code == 0
        assert (out / "report.txt").read_text().strip().endswith("OK")


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    # sweeps run serially, so no command, sweep included, takes --jobs
    @pytest.mark.parametrize("command", ["gen-world", "train", "sweep", "verify-theory"])
    def test_jobs_only_on_sweep(self, cfg_file, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg_file), "--out", str(out), "--jobs", "2"]
        assert main(argv) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
