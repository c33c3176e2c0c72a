"""Command-line entry points.

Configs are line-oriented ``[section] key = value`` files; unknown sections
or keys and repeated keys are rejected so a typo cannot silently change an
experiment.  A key the file leaves out keeps the default of the config
dataclass field it fills.  Every command writes a manifest (config hash,
seed, package version) next to its outputs, and reruns with the same config
and seed produce byte-identical files.

Commands: ``gen-world``, ``train``, ``sweep``, ``verify-theory``, ``export``.
Exit codes: 0 success, 1 check failure, 2 usage, config or run error (a
diverging discriminator, an unwritable output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from . import entropy_coder as ec
from . import mi_estimator as mie
from . import pipeline as pl
from . import simworld as sw
from . import textio, verify, vq


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    world: sw.WorldConfig
    train: pl.TrainConfig
    sweep: pl.SweepConfig
    verify: verify.VerifyConfig


# --- value parsers: text -> value, or a ValueError giving the reason -------


def _number(kind, expected: str):
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"expected {expected}, got {text.strip()!r}") from None

    return parse


def _list(parse):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda text: tuple(parse(x) for x in text.split(",") if x.strip())


def _checked(parse, ok, reason: str):
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {reason}, got {value}")
        return value

    return check


_int, _float = _number(int, "an integer"), _number(float, "a number")
_floats = _list(_float)
_count = _checked(_int, lambda n: n >= 1, "at least 1")
_seed = _checked(_int, lambda n: n >= 0, "at least 0")  # numpy seeds are nonnegative
_finite_positive = _checked(_float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")
_finite_floats = _checked(
    _floats, lambda xs: xs and all(map(math.isfinite, xs)), "nonempty and finite"
)


def _count_below(cap: int, why: str):
    return _checked(_count, lambda n: n <= cap, f"at most {cap} ({why})")


# [verify] sizes, checked at parse time.  The memory that grows with the
# config is the stacked identity tables: tracemalloc over verify-theory on
# small.cfg measured 472 bytes a table, so tables get 1 GiB.  The Monte-Carlo
# checks hold one block of draws at a time whatever their number, and random
# sources are drawn and evaluated verify.SOURCE_CHUNK at a time, a chunk's
# frontiers freed before the next chunk is drawn (peak 6.7-7.2 MB from 256 to
# 3000 sources), so both are capped by time.  Draws cost about 27 ns each
# over the three checks on 2 cores, where the worker thread's two checks are
# the longer path: 3.5-3.7 s at the cap (39 ns and 5.3-5.4 s with every check
# on one thread); sources at most 5 ms each, 1.5 h in all.
MAX_MC_DRAWS = 1 << 27
MAX_TABLES = (1 << 30) // 480
MAX_SOURCES = 10**6
_draws = _count_below(MAX_MC_DRAWS, "about 27 ns a draw")
_tables = _count_below(MAX_TABLES, "1 GiB at 480 bytes a table")
_sources = _count_below(MAX_SOURCES, "about 5 ms a source")


def _seed_arg(text: str) -> int:
    """``--seed``: a bad value is a usage error that gives the reason."""
    try:
        return _seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _noise(text: str) -> float | tuple:
    """One flip probability for every agent, or a list of one per agent."""
    values = _floats(text)
    return values[0] if len(values) == 1 else values


# shape -> (number of values, their parser)
_FOV_SHAPES = {"full": (0, None), "rect": (4, _int), "sector": (5, _float)}


def _fov(text: str) -> tuple:
    """A ``;``-separated union of shapes: ``full``, ``rect r0 c0 r1 c1`` or
    ``sector cy cx radius a0 a1``."""
    shapes = []
    for kind, *args in filter(None, (part.split() for part in text.split(";"))):
        if kind not in _FOV_SHAPES:
            raise ValueError(f"unknown fov shape {kind!r}")
        n, parse = _FOV_SHAPES[kind]
        if len(args) != n:
            raise ValueError(f"{kind} takes {n} values, got {len(args)}")
        shapes.append((kind, *map(parse, args)) if n else kind)
    if not shapes:
        raise ValueError("empty fov spec")
    return tuple(shapes)


# (section, key) -> (RunConfig attribute, its field, value parser); a key the
# file leaves out keeps the field's default.  [world] also takes fov_0 ..
# fov_{agents-1}, parsed by _fov; an agent without one sees the whole grid.
_TABLE = {
    ("world", "h"): ("world", "h", _int),
    ("world", "w"): ("world", "w", _int),
    ("world", "classes"): ("world", "n_classes", _int),
    ("world", "agents"): ("world", "n_agents", _int),
    ("world", "noise"): ("world", "noise", _noise),
    ("world", "density"): ("world", "density", _float),
    ("world", "rect_min"): ("world", "rect_min", _int),
    ("world", "rect_max"): ("world", "rect_max", _int),
    ("world", "seed"): ("world", "seed", _seed),
    ("codebook", "n_base"): ("train", "n_base", _count),
    ("codebook", "n_res"): ("train", "n_res", _count),
    ("codebook", "iters"): ("train", "kmeans_iters", _count),
    ("codebook", "seed"): ("train", "codebook_seed", _seed),
    ("discriminator", "steps"): ("train", "disc_steps", _count),
    ("discriminator", "lr"): ("train", "disc_lr", _finite_positive),
    ("discriminator", "hidden"): ("train", "disc_hidden", _count),
    ("discriminator", "seed"): ("train", "disc_seed", _seed),
    ("train", "worlds"): ("train", "n_train_worlds", _count),
    ("train", "seed"): ("train", "train_seed", _seed),
    ("train", "tau_c_choices"): ("train", "tau_c_choices", _finite_floats),
    ("sweep", "tau_c"): ("sweep", "tau_c_grid", _floats),
    ("sweep", "tau_mi"): ("sweep", "tau_mi_grid", _floats),
    ("sweep", "seeds"): ("sweep", "seeds", _list(_seed)),
    ("sweep", "coder"): ("sweep", "coder", str),
    ("sweep", "selector"): ("sweep", "selector", str),
    ("verify", "sources"): ("verify", "sources", _sources),
    ("verify", "tables"): ("verify", "tables", _tables),
    ("verify", "mc_draws"): ("verify", "mc_draws", _draws),
    ("verify", "z_max"): ("verify", "z_max", _count),
    ("verify", "seed"): ("verify", "seed", _seed),
}
_SECTIONS = {section for section, _ in _TABLE}
_FOV_KEY = re.compile(r"fov_(0|[1-9][0-9]*)")  # no leading zeros: one name per agent


def _parse_lines(text: str) -> dict:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"unknown section '{current}' (line {lineno})")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"malformed line {lineno}: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if (current, key) not in _TABLE and not (current == "world" and _FOV_KEY.fullmatch(key)):
            raise ConfigError(f"unknown key '{key}' in section '{current}' (line {lineno})")
        if key in sections[current]:
            raise ConfigError(f"repeated key '{key}' in section '{current}' (line {lineno})")
        sections[current][key] = value
    return sections


def parse_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    fields = {"world": {}, "train": {}, "sweep": {}, "verify": {}}
    fovs = {}
    for section, entries in _parse_lines(text).items():
        for key, value in entries.items():
            try:
                if (section, key) in _TABLE:
                    target, field, parse = _TABLE[section, key]
                    fields[target][field] = parse(value)
                else:
                    fovs[int(key[4:])] = _fov(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    world = fields["world"]
    n_agents = world.get("n_agents", sw.WorldConfig.n_agents)
    extra = [a for a in fovs if a >= n_agents]
    if extra:
        raise ConfigError(f"unknown key 'fov_{extra[0]}' in section 'world'")
    # WorldConfig rejects more than MAX_AGENTS agents; the cap keeps a huge
    # count from building one spec per agent first
    n_specs = min(n_agents, sw.MAX_AGENTS)
    world["fovs"] = tuple(fovs.get(a, ("full",)) for a in range(n_specs))
    built = {}
    for name, cls in (("world", sw.WorldConfig), ("train", pl.TrainConfig),
                      ("sweep", pl.SweepConfig), ("verify", verify.VerifyConfig)):
        try:
            built[name] = cls(**fields[name])
        except ValueError as exc:
            raise ConfigError(f"invalid [{name}] config: {exc}") from None
    train, world = built["train"], built["world"]
    # the codebooks are fit to every training view's cells
    cells = train.n_train_worlds * world.n_agents * world.h * world.w
    if train.n_base > train.n_res:
        raise ConfigError(
            f"[codebook] n_base: must be at most [codebook] n_res = {train.n_res}, "
            f"got {train.n_base}"
        )
    if train.n_res > 1 << ec.MAX_CODE_BITS:
        raise ConfigError(
            f"[codebook] n_res: must be at most {1 << ec.MAX_CODE_BITS}, the most "
            f"symbols a {ec.MAX_CODE_BITS}-bit code holds, got {train.n_res}"
        )
    if train.n_res > cells:
        raise ConfigError(
            f"[codebook] n_res: must be at most the {cells} training cells "
            f"([train] worlds x [world] agents x h x w), got {train.n_res}"
        )
    return RunConfig(**built)


def _write_manifest(out: Path, command: str, config_path: str, seed) -> None:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    manifest = {"command": command, "config_sha256": digest, "seed": seed, "version": __version__}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")


# --- commands ----------------------------------------------------------------


def cmd_gen_world(cfg: RunConfig, out: Path, config_path: str) -> int:
    world = pl.make_world(cfg.world)
    sw.save_labels(world.gt, str(out / f"world_{cfg.world.seed}.txt"))
    for a in range(cfg.world.n_agents):
        sw.save_labels(world.obs[a], str(out / f"obs_{cfg.world.seed}_agent{a}.txt"))
    _write_manifest(out, "gen-world", config_path, cfg.world.seed)
    print(f"world seed {cfg.world.seed} written to {out}")
    return 0


def cmd_train(cfg: RunConfig, out: Path, config_path: str) -> int:
    stack = pl.train_all(cfg.world, cfg.train)
    vq.save_codebook(stack.codebook, str(out / "codebook.txt"))
    mie.save_discriminator(stack.discriminator, str(out / "discriminator.txt"))
    for name in ("tau_draws", "disc_losses"):
        textio.save_arrays(str(out / f"{name}.txt"), {name: getattr(stack, name)})
    _write_manifest(out, "train", config_path, cfg.train.train_seed)
    print(f"trained stack written to {out}")
    return 0


def cmd_sweep(cfg: RunConfig, out: Path, config_path: str) -> int:
    sweep = cfg.sweep
    scenes = pl.scenes(cfg.world, pl.train_all(cfg.world, cfg.train), sweep.seeds)
    results = pl.sweep_scenes(scenes, sweep)
    (out / "results.csv").write_text(pl.results_csv(results, cfg.world.n_classes))
    (out / "summary.csv").write_text(pl.summary_csv(pl.summarize(results)))
    tau_c, tau_mi = float(sweep.tau_c_grid[0]), float(sweep.tau_mi_grid[0])
    scene = scenes[int(sweep.seeds[0])]
    msg = pl.encode_message(scene, sweep.coder, tau_c, tau_mi, sweep.selector, 0, 1)
    (out / "sample_message.bin").write_bytes(ec.message_to_bytes(msg))
    _write_manifest(out, "sweep", config_path, list(sweep.seeds))
    print(f"{len(results)} sweep points written to {out}")
    return 0


def cmd_export(results_path: str, out: Path) -> int:
    results = pl.parse_results_csv(Path(results_path).read_text())
    curves: dict[tuple, list] = {}
    for r in results:
        curves.setdefault((r.coder, r.selector), []).append(r)
    columns = ("mean_total_bits", "mean_iou", "tau_c", "tau_mi", "pareto")
    for (coder, selector), curve in sorted(curves.items()):
        rows = sorted([row[c] for c in columns] for row in pl.summarize(curve))
        (out / f"curve_{coder}_{selector}.csv").write_text(textio.csv_text(columns, rows))
    print(f"curves written to {out}")
    return 0


def cmd_verify_theory(cfg: RunConfig, out: Path, config_path: str) -> int:
    """Prints and writes each check's line as the check ends.  A check that
    raises ends ``report.txt`` with an ``ERROR`` line naming it and
    ``FAILED``, and its error goes on: no ``frontier.csv`` or manifest."""
    all_ok, done = True, 0
    with open(out / "report.txt", "w", buffering=1) as report:  # one line at a time

        def emit(line: str) -> None:
            print(line)
            report.write(line + "\n")

        try:
            for done, (name, margin, tol, ok) in enumerate(verify.checks(cfg.verify), 1):
                all_ok &= ok
                emit(f"{'PASS' if ok else 'FAIL'} {name} margin={margin:.3e} tol={tol:.1e}")
        except Exception as exc:
            message = str(exc) or type(exc).__name__
            report.write(f"ERROR {verify.CHECK_NAMES[done]}: {message}\nFAILED\n")
            raise
        emit("OK" if all_ok else "FAILED")
    rows = verify.frontier_rows(cfg.verify)
    (out / "frontier.csv").write_text(textio.csv_text(verify.FRONTIER_COLUMNS, rows))
    _write_manifest(out, "verify-theory", config_path, cfg.verify.seed)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pragcomm",
        description="task-oriented compression experiments on synthetic perception worlds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-world": cmd_gen_world,
        "train": cmd_train,
        "sweep": cmd_sweep,
        "verify-theory": cmd_verify_theory,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=_seed_arg, default=None)
    p = sub.add_parser("export")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "export":
            return cmd_export(args.results, out)
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(
                cfg,
                world=replace(cfg.world, seed=args.seed),
                train=replace(cfg.train, train_seed=args.seed + 9000),
                sweep=replace(cfg.sweep, seeds=(args.seed,)),
            )
        return commands[args.command](cfg, out, args.config)
    except (ValueError, RuntimeError, OSError) as exc:  # CodingError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a backstop: a bare MemoryError has no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
