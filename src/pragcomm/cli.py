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

import numpy as np

from . import __version__
from . import bayes_risk as br
from . import entropy_coder as ec
from . import infotheory as it
from . import mi_estimator as mie
from . import pipeline as pl
from . import rd_oracle as rd
from . import simworld as sw
from . import textio, vq


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    world: sw.WorldConfig
    train: pl.TrainConfig
    sweep: pl.SweepConfig
    verify_sources: int = 50
    verify_tables: int = 200
    verify_mc_draws: int = 1_000_000
    verify_z_max: int = 4
    verify_seed: int = 7


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
# sources are drawn and evaluated _SOURCE_CHUNK at a time, a chunk's
# frontiers freed before the next chunk is drawn (peak 6.7-7.2 MB from 256 to
# 3000 sources), so both are capped by time.  Draws cost about 27 ns each
# over the three checks on 2 cores, where the worker thread's two checks are
# the longer path: 3.5-3.7 s at the cap (39 ns and 5.3-5.4 s with every check
# on one thread); sources at most 5 ms each, 1.5 h in all.
MAX_MC_DRAWS = 1 << 27
MAX_TABLES = (1 << 30) // 480
MAX_SOURCES = 10**6
_SOURCE_CHUNK = 256  # random sources held at once, which bounds their memory
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


# (section, key) -> (RunConfig attribute it fills, field, value parser); a key
# the file leaves out keeps the field's dataclass default, and "run" names
# RunConfig's own fields.  [world] also takes fov_0 .. fov_{agents-1}, parsed
# by _fov; an agent without one sees the whole grid.
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
    ("verify", "sources"): ("run", "verify_sources", _sources),
    ("verify", "tables"): ("run", "verify_tables", _tables),
    ("verify", "mc_draws"): ("run", "verify_mc_draws", _draws),
    ("verify", "z_max"): ("run", "verify_z_max", _count),
    ("verify", "seed"): ("run", "verify_seed", _seed),
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
    fields = {"world": {}, "train": {}, "sweep": {}, "run": {}}
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
    for name, cls in (("world", sw.WorldConfig), ("sweep", pl.SweepConfig)):
        try:
            built[name] = cls(**fields[name])
        except ValueError as exc:
            raise ConfigError(f"invalid [{name}] config: {exc}") from None
    train, world = pl.TrainConfig(**fields["train"]), built["world"]
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
    return RunConfig(train=train, **built, **fields["run"])


def _write_manifest(out: Path, command: str, config_path: str, seed) -> None:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "version": __version__,
    }
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


# --- theory verification -------------------------------------------------


def _random_frontiers(cfg: RunConfig, rng: np.random.Generator, n: int):
    """Yields (``rd.frontier_columns``, their bounds) for n random sources
    drawn from rng, in draw order.  The sources are drawn _SOURCE_CHUNK at a
    time, each its sizes and then its pmf; a chunk's sources of one shape
    are then evaluated as one stack."""
    names = ("Y", "X_s", "X_r")
    for start in range(0, n, _SOURCE_CHUNK):
        draws = []
        for _ in range(min(_SOURCE_CHUNK, n - start)):
            sizes = tuple(int(s) for s in rng.integers(2, 5, size=3))
            draws.append((sizes, it.random_pmf(sizes, rng)))
        groups: dict[tuple, list[int]] = {}  # shape -> its sources, in draw order
        for k, (sizes, _) in enumerate(draws):
            groups.setdefault(sizes, []).append(k)
        results = [None] * len(draws)
        for sizes, members in groups.items():
            t = it.JointTable(tuple(zip(names, sizes)), np.stack([draws[k][1] for k in members]))
            columns = rd.frontier_columns(t, min(sizes[1], cfg.verify_z_max))
            bounds = rd.theoretical_bound(t, np.maximum(columns[1], 0.0))
            for row, k in enumerate(members):
                results[k] = tuple(c[row] for c in columns), bounds[row]
        yield from results


def _channel_stack(rng: np.random.Generator, axes: list, n_z: int, n: int) -> it.JointTable:
    """n random tables over axes, each extended to a "Z" axis through its own
    random channel from "X_s"; every table is drawn before its kernel."""
    sizes = tuple(s for _, s in axes)
    pmfs, kernels = [], []
    for _ in range(n):
        pmfs.append(it.random_pmf(sizes, rng))
        kernels.append(rng.dirichlet(np.ones(n_z), size=dict(axes)["X_s"]))
    t = it.JointTable(tuple(axes), np.stack(pmfs))
    return it.extend_with_channel(t, "X_s", "Z", np.stack(kernels))


def _verify_checks(cfg: RunConfig):
    """Yields (name, margin, tolerance, passed) tuples; margins are the
    worst-case observed values, tolerances the acceptance thresholds.

    The Laplace and cross-entropy Monte-Carlo checks run on one worker
    thread while this one runs the others: numpy releases the GIL while it
    draws and sums.  No output depends on which thread finishes first: each
    Monte-Carlo check draws from its own generator and sums in a fixed
    order, the main generator draws in the same order as without the
    worker, and every result is taken and yielded in check order, a worker's
    exception at its own check.  The thread is joined when the checks end
    or are closed; a worker check not yet started is dropped."""
    # imported here, so that importing the CLI for another command loads no new module
    from concurrent.futures import ThreadPoolExecutor

    worker = ThreadPoolExecutor(max_workers=1)
    try:
        yield from _checks(cfg, worker)
    finally:
        worker.shutdown(cancel_futures=True)


def _checks(cfg: RunConfig, worker):
    """_verify_checks' list, with worker running two of the Monte-Carlo checks."""
    n = cfg.verify_mc_draws
    laplace = worker.submit(br.mc_l1_laplace, 3.0, n, np.random.default_rng(cfg.verify_seed + 2))
    rng = np.random.default_rng(cfg.verify_seed)

    t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng, cfg.verify_tables)
    lhs = it.conditional_mi(t, "Y", "X_s", ["X_r"]).value
    rhs = (
        it.entropy(t, "X_s").value
        - it.conditional_entropy(t, "X_s", ["Y"]).value
        - it.interaction_information(t, "Y", "X_s", "X_r").value
    )
    worst = float(np.abs(lhs - rhs).max())
    yield "identity_rate_decomposition", worst, 1e-10, worst <= 1e-10

    t = it.random_joint([("A", 3), ("B", 4)], rng, 100)
    lhs = it.joint_entropy(t, ["A", "B"]).value
    rhs = it.entropy(t, "A").value + it.conditional_entropy(t, "B", ["A"]).value
    worst = float(np.abs(lhs - rhs).max())
    yield "identity_chain_rule", worst, 1e-10, worst <= 1e-10

    t = it.random_joint([("A", 5)], rng)
    bits = it.entropy(t, "A", "bits").value
    nats = it.entropy(t, "A", "nats").value
    diff = abs(bits * it.LN2 - nats)
    yield "unit_conversion", diff, 1e-12, diff <= 1e-12

    ext = _channel_stack(rng, [("Y", 3), ("X_s", 4)], 3, 50)
    gap = (
        it.mutual_information(ext, "Y", "Z").value
        - it.mutual_information(ext, "Y", "X_s").value
    )
    worst = float(gap.max())
    yield "data_processing_inequality", worst, 1e-10, worst <= 1e-10

    margins = [(rates - bounds).min() for (rates, *_), bounds in
               _random_frontiers(cfg, rng, cfg.verify_sources)]
    worst = float(np.min(margins))  # a NaN margin propagates and fails
    yield "bound_soundness", worst, -1e-9, worst >= -1e-9

    source, kernel = rd.make_separable_source(
        np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.4, 0.6])
    )
    h_zy, i_zxr, gap = rd.check_conditions(source, kernel)
    worst = max(h_zy, i_zxr, gap)
    yield "bound_tightness_conditions", worst, 1e-9, worst <= 1e-9

    t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 3)], rng)
    ext = it.extend_with_channel(t, "X_s", "Z", rd.deterministic_kernel([0, 1, 0]))
    worst = max(
        it.conditional_mi(ext, "Z", "X_r", ["X_s"]).value,
        it.conditional_mi(ext, "Z", "Y", ["X_s"]).value,
    )
    yield "markov_premise", worst, 1e-10, worst <= 1e-10

    t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
    deltas = np.linspace(0.0, 1.5, 16)
    vals = rd.theoretical_bound(t, deltas)
    worst = float(np.diff(vals).max())
    yield "bound_monotone_in_delta", worst, 1e-12, worst <= 1e-12

    ext = _channel_stack(rng, [("Y", 2), ("X_s", 3), ("X_r", 2)], 2, 50)
    ce_table = it.random_joint([("Y", 3), ("X", 3)], rng)
    ce = worker.submit(
        br.mc_ce, ce_table, "Y", ["X"], n, np.random.default_rng(cfg.verify_seed + 3)
    )
    d = br.pragmatic_distortion(ext, "segmentation")
    want = (
        it.conditional_mi(ext, "Y", "X_s", ["X_r"], "nats").value
        - it.conditional_mi(ext, "Y", "Z", ["X_r"], "nats").value
    )
    worst, worst_neg = float(np.abs(d - want).max()), float(d.min())
    yield "distortion_identity", worst, 1e-10, worst <= 1e-10
    yield "distortion_nonnegative", worst_neg, -1e-10, worst_neg >= -1e-10

    est = br.mc_l1_gaussian(1.0, n, np.random.default_rng(cfg.verify_seed + 1))
    rel = abs(est - br.SQRT_2_OVER_PI) / br.SQRT_2_OVER_PI
    yield "mc_gaussian_l1", rel, 0.01, rel <= 0.01

    rel = abs(laplace.result() - 3.0) / 3.0
    yield "mc_laplace_l1", rel, 0.01, rel <= 0.01

    closed = br.bayes_risk_ce(ce_table, "Y", ["X"])
    rel = abs(ce.result() - closed) / max(closed, 1e-12)
    yield "mc_cross_entropy", rel, 0.01, rel <= 0.01

    h = rng.uniform(0, 3, size=(200, 2))
    h1, h2 = np.maximum(h[:, 0], h[:, 1]), np.minimum(h[:, 0], h[:, 1])
    worst = float(((h1 - h2) / math.e - (np.exp(h1 - 1) - np.exp(h2 - 1))).max())
    yield "first_order_exponential_bound", worst, 1e-12, worst <= 1e-12


def cmd_verify_theory(cfg: RunConfig, out: Path, config_path: str) -> int:
    lines = []
    all_ok = True
    for name, margin, tol, ok in _verify_checks(cfg):
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name} margin={margin:.3e} tol={tol:.1e}")
    lines.append("OK" if all_ok else "FAILED")
    (out / "report.txt").write_text("\n".join(lines) + "\n")

    rng = np.random.default_rng(cfg.verify_seed)
    rows = []
    frontiers = _random_frontiers(cfg, rng, min(cfg.verify_sources, 10))
    for src_id, (columns, bounds) in enumerate(frontiers):
        flags = rd.pareto_flags(np.column_stack(columns[:2]))
        values = zip(*(c.tolist() for c in columns), bounds.tolist(), flags)
        rows.extend((f"src{src_id}", e, *v) for e, v in enumerate(values))
    header = "source,encoder_id,rate_bits,distortion_nats,h_z_given_y,mi_z_xr,bound_bits,pareto_flag"
    (out / "frontier.csv").write_text(textio.csv_text(header.split(","), rows))
    _write_manifest(out, "verify-theory", config_path, cfg.verify_seed)
    print("\n".join(lines))
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
