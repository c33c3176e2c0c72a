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
    ("verify", "sources"): ("run", "verify_sources", _count),
    ("verify", "tables"): ("run", "verify_tables", _count),
    ("verify", "mc_draws"): ("run", "verify_mc_draws", _count),
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
    return RunConfig(train=pl.TrainConfig(**fields["train"]), **built, **fields["run"])


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
    stack = pl.train_all(cfg.world, cfg.train)
    results = pl.run_sweep(cfg.world, stack, cfg.sweep)
    (out / "results.csv").write_text(pl.results_csv(results, cfg.world.n_classes))
    (out / "summary.csv").write_text(pl.summary_csv(pl.summarize(results)))
    sweep = cfg.sweep
    first_world = pl.make_world(replace(cfg.world, seed=int(sweep.seeds[0])))
    scene = pl.Scene(first_world, stack)
    codes = scene.codes(sweep.coder)
    tau_c, tau_mi = float(sweep.tau_c_grid[0]), float(sweep.tau_mi_grid[0])
    msg, _ = pl.directed_message(scene, codes, tau_c, tau_mi, sweep.selector, 0, 1)
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
    """Yields (frontier points, their bounds) for n random sources drawn from rng."""
    for _ in range(n):
        sizes = [int(s) for s in rng.integers(2, 5, size=3)]
        t = it.random_joint(list(zip(("Y", "X_s", "X_r"), sizes)), rng)
        points = rd.enumerate_frontier(t, min(sizes[1], cfg.verify_z_max))
        distortions = np.maximum([p.distortion_nats for p in points], 0.0)
        yield points, rd.theoretical_bound(t, distortions)


def _verify_checks(cfg: RunConfig):
    """Yields (name, margin, tolerance, passed) tuples; margins are the
    worst-case observed values, tolerances the acceptance thresholds."""
    rng = np.random.default_rng(cfg.verify_seed)

    worst = 0.0
    for _ in range(cfg.verify_tables):
        t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
        lhs = it.conditional_mi(t, "Y", "X_s", ["X_r"]).value
        rhs = (
            it.entropy(t, "X_s").value
            - it.conditional_entropy(t, "X_s", ["Y"]).value
            - it.interaction_information(t, "Y", "X_s", "X_r").value
        )
        worst = max(worst, abs(lhs - rhs))
    yield "identity_rate_decomposition", worst, 1e-10, worst <= 1e-10

    worst = 0.0
    for _ in range(100):
        t = it.random_joint([("A", 3), ("B", 4)], rng)
        lhs = it.joint_entropy(t, ["A", "B"]).value
        rhs = it.entropy(t, "A").value + it.conditional_entropy(t, "B", ["A"]).value
        worst = max(worst, abs(lhs - rhs))
    yield "identity_chain_rule", worst, 1e-10, worst <= 1e-10

    t = it.random_joint([("A", 5)], rng)
    bits = it.entropy(t, "A", "bits").value
    nats = it.entropy(t, "A", "nats").value
    diff = abs(bits * it.LN2 - nats)
    yield "unit_conversion", diff, 1e-12, diff <= 1e-12

    worst = -np.inf
    for _ in range(50):
        t = it.random_joint([("Y", 3), ("X_s", 4)], rng)
        kernel = rng.dirichlet(np.ones(3), size=4)
        ext = it.extend_with_channel(t, "X_s", "Z", kernel)
        gap = (
            it.mutual_information(ext, "Y", "Z").value
            - it.mutual_information(ext, "Y", "X_s").value
        )
        worst = max(worst, gap)
    yield "data_processing_inequality", worst, 1e-10, worst <= 1e-10

    min_margin = np.inf
    for points, bounds in _random_frontiers(cfg, rng, cfg.verify_sources):
        rates = np.array([p.rate_bits for p in points])
        min_margin = min(min_margin, float((rates - bounds).min()))
    yield "bound_soundness", min_margin, -1e-9, min_margin >= -1e-9

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

    worst = 0.0
    worst_neg = np.inf
    for _ in range(50):
        t = it.random_joint([("Y", 2), ("X_s", 3), ("X_r", 2)], rng)
        kernel = rng.dirichlet(np.ones(2), size=3)
        ext = it.extend_with_channel(t, "X_s", "Z", kernel)
        d = br.pragmatic_distortion(ext, "segmentation")
        want = (
            it.conditional_mi(ext, "Y", "X_s", ["X_r"], "nats").value
            - it.conditional_mi(ext, "Y", "Z", ["X_r"], "nats").value
        )
        worst = max(worst, abs(d - want))
        worst_neg = min(worst_neg, d)
    yield "distortion_identity", worst, 1e-10, worst <= 1e-10
    yield "distortion_nonnegative", worst_neg, -1e-10, worst_neg >= -1e-10

    n = cfg.verify_mc_draws
    est = br.mc_l1_gaussian(1.0, n, np.random.default_rng(cfg.verify_seed + 1))
    rel = abs(est - br.SQRT_2_OVER_PI) / br.SQRT_2_OVER_PI
    yield "mc_gaussian_l1", rel, 0.01, rel <= 0.01

    est = br.mc_l1_laplace(3.0, n, np.random.default_rng(cfg.verify_seed + 2))
    rel = abs(est - 3.0) / 3.0
    yield "mc_laplace_l1", rel, 0.01, rel <= 0.01

    t = it.random_joint([("Y", 3), ("X", 3)], rng)
    closed = br.bayes_risk_ce(t, "Y", ["X"])
    est = br.mc_ce(t, "Y", ["X"], n, np.random.default_rng(cfg.verify_seed + 3))
    rel = abs(est - closed) / max(closed, 1e-12)
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
    for src_id, (points, bounds) in enumerate(frontiers):
        for p, bound in zip(points, bounds.tolist()):
            rows.append((
                f"src{src_id}", p.encoder_id, p.rate_bits, p.distortion_nats,
                p.cond_h_z_given_y, p.mi_z_xr, bound, p.pareto,
            ))
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
    for name in ("gen-world", "train", "sweep", "verify-theory"):
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
        if args.command == "gen-world":
            return cmd_gen_world(cfg, out, args.config)
        if args.command == "train":
            return cmd_train(cfg, out, args.config)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, args.config)
        if args.command == "verify-theory":
            return cmd_verify_theory(cfg, out, args.config)
    except (ValueError, RuntimeError, OSError) as exc:  # CodingError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a backstop: a bare MemoryError has no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
