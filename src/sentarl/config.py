"""Declarative run configuration.

One JSON file describes a whole experiment: asset data paths, sentiment
scoring choices, environment and agent hyperparameters, the seed list, the
rolling-window shape, and output placement. Parsing is strict: unknown keys
are rejected with their location, and every numeric field is range-checked
here so later stages can assume a valid config.
"""

from __future__ import annotations

import enum
import json
import os
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .a2c import A2cConfig
from .data import CACHE_DIR, CACHE_SUFFIX
from .env import EnvConfig
from .errors import ConfigError
from .evaluation import STRATEGIES, WindowSpec
from .files import atomic_open
from .sentiment import FillPolicy, Grouping

#: Relative output dirs resolve under this root when the variable is set.
OUTPUT_ROOT_ENV = "SENTARL_OUTPUT_ROOT"

_ASSET_NAME = re.compile(r"^[A-Za-z0-9._-]+$")
_MISSING = object()


@dataclass(frozen=True)
class AssetSpec:
    prices: Path
    news: Path | None = None


@dataclass(frozen=True)
class RunConfig:
    assets: dict[str, AssetSpec]
    lexicon: Path | None
    grouping: Grouping
    fill: FillPolicy
    env: EnvConfig
    tc_rates: tuple[float, ...]
    agent: A2cConfig
    seeds: tuple[int, ...]
    windows: WindowSpec
    strategies: tuple[str, ...]
    output_dir: Path
    workers: int

    def cache_path(self, asset: str) -> Path:
        return self.output_dir / CACHE_DIR / f"{asset}{CACHE_SUFFIX}"


class _Section:
    """Dict wrapper that tracks consumed keys and reports leftovers."""

    def __init__(self, data: object, where: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected an object")
        self.data = dict(data)
        self.where = where

    def take(self, key: str, default: object = _MISSING) -> object:
        if key in self.data:
            return self.data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        return default

    def finish(self) -> None:
        if self.data:
            raise ConfigError(f"{self.where}: unknown key(s) {sorted(self.data)}")


def _number(value: object, where: str, lo: float | None = None,
            hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where}: {value} is below the minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{where}: {value} exceeds the maximum {hi}")
    return float(value)


def _integer(value: object, where: str, lo: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where}: {value} is below the minimum {lo}")
    return value


def _boolean(value: object, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _string(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _list(value: object, where: str, item, nonempty: bool = True) -> tuple:
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{where}: expected a {'non-empty list' if nonempty else 'list'}")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


#: Each dataclass section: its class, whether each value is also checked
#: alone by the class, and its keys in file order with the check each value
#: passes. A missing key takes its dataclass field's default.
_SECTIONS = {
    "env": (EnvConfig, True, {
        "w": partial(_integer, lo=1),
        "l": partial(_integer, lo=0),
        "phi": _number,
        "cost_mode": _string,
    }),
    "agent": (A2cConfig, True, {
        "gamma": partial(_number, lo=0.0, hi=1.0),
        "lr_actor": _number,
        "lr_critic": _number,
        "n_steps": partial(_integer, lo=1),
        "episodes": partial(_integer, lo=1),
        "entropy_coef": partial(_number, lo=0.0),
        "hidden_sizes": partial(_list, item=partial(_integer, lo=1), nonempty=False),
        "activation": _string,
        "max_grad_norm": lambda v, where: None if v is None else _number(v, where),
        "optimizer": _string,
        "use_n_step_returns": _boolean,
    }),
    # each key is checked positive here, so WindowSpec can only reject the
    # stride rule, which spans keys and so names the section
    "windows": (WindowSpec, False, {
        key: partial(_integer, lo=1) for key in ("train_len", "test_len", "stride", "count")
    }),
}


def _parse_section(top: _Section, name: str):
    """Build one dataclass section; a value that fails alone is named by its
    dotted key, a rule across keys by the section."""
    cls, alone, checks = _SECTIONS[name]
    section = _Section(top.take(name, {}), name)
    fields = {key: check(section.take(key), f"{name}.{key}")
              for key, check in checks.items() if key in section.data}
    if alone:
        for key, value in fields.items():
            try:
                cls(**{key: value})
            except ValueError as exc:
                raise ConfigError(f"{name}.{key}: {exc}") from exc
    try:
        built = cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    section.finish()
    return built


def _echo_section(name: str, section: object) -> dict:
    values = {key: getattr(section, key) for key in _SECTIONS[name][2]}
    return {key: v.value if isinstance(v, enum.Enum) else list(v) if isinstance(v, tuple) else v
            for key, v in values.items()}


def resolve_output_dir(raw: str) -> Path:
    """Apply the output-root override to relative paths; absolute paths win.

    Idempotent: resolving an already-resolved directory changes nothing,
    so re-parsing an echoed config is stable.
    """
    path = Path(raw)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
        if not path.is_absolute():
            path = Path.cwd() / path
    return path


def _data_path(base: Path, raw: str) -> Path:
    """Anchor a data path to the config file's directory, absolutized so the
    echoed config means the same files when parsed from anywhere."""
    path = base / raw
    return path if path.is_absolute() else path.absolute()


def _parse_assets(raw: object, base: Path) -> dict[str, AssetSpec]:
    section = _Section(raw, "assets")
    names = sorted(section.data)
    if not names:
        raise ConfigError("assets: at least one asset is required")
    out: dict[str, AssetSpec] = {}
    for name in names:
        if not _ASSET_NAME.match(name):
            raise ConfigError(f"assets: invalid asset name {name!r} "
                              "(letters, digits, '.', '_', '-' only)")
        entry = _Section(section.take(name), f"assets.{name}")
        prices = _data_path(base, _string(entry.take("prices"), f"assets.{name}.prices"))
        news_raw = entry.take("news", None)
        news = None if news_raw is None else _data_path(
            base, _string(news_raw, f"assets.{name}.news"))
        entry.finish()
        if not prices.exists():
            raise ConfigError(f"assets.{name}.prices: file not found: {prices}")
        out[name] = AssetSpec(prices=prices, news=news)
    section.finish()
    return out


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; relative data paths resolve against
    the config file's directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    base = path.parent
    top = _Section(raw, str(path))

    assets = _parse_assets(top.take("assets"), base)

    lexicon_raw = top.take("lexicon", None)
    lexicon = None if lexicon_raw is None else _data_path(
        base, _string(lexicon_raw, "lexicon"))
    if lexicon is not None and not lexicon.exists():
        raise ConfigError(f"lexicon: file not found: {lexicon}")

    try:
        grouping = Grouping(_string(top.take("grouping", "min"), "grouping"))
    except ValueError as exc:
        raise ConfigError(f"grouping: {exc}") from exc
    try:
        fill = FillPolicy(_string(top.take("fill", "neutral-zero"), "fill"))
    except ValueError as exc:
        raise ConfigError(f"fill: {exc}") from exc

    env = _parse_section(top, "env")
    tc_rates = _list(top.take("tc_rates", [0.0, 0.0025]), "tc_rates",
                     partial(_number, lo=0.0))
    agent = _parse_section(top, "agent")
    seeds = _list(top.take("seeds", [0, 1, 2, 3, 4]), "seeds",
                  partial(_integer, lo=0))
    windows = _parse_section(top, "windows")
    short = [f"windows.{key}" for key in ("train_len", "test_len")
             if getattr(windows, key) < env.min_length]
    if short:
        raise ConfigError(f"{', '.join(short)}: below {env.min_length}, the fewest points "
                          f"an episode needs at env.w={env.w} and env.l={env.l}")
    strategies = _list(top.take("strategies", list(STRATEGIES)), "strategies", _string)
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ConfigError(f"strategies: unknown {sorted(unknown)}; "
                          f"valid: {list(STRATEGIES)}")

    output_dir = resolve_output_dir(_string(top.take("output_dir", "sentarl-out"),
                                            "output_dir"))
    workers = _integer(top.take("workers", 1), "workers", lo=1)
    top.finish()

    return RunConfig(assets=assets, lexicon=lexicon, grouping=grouping, fill=fill,
                     env=env, tc_rates=tc_rates, agent=agent, seeds=seeds,
                     windows=windows, strategies=strategies,
                     output_dir=output_dir, workers=workers)


def config_to_json(config: RunConfig) -> dict:
    """Resolved-config dict; re-parsing the echo yields an equal RunConfig."""
    return {
        "assets": {
            name: {"prices": str(spec.prices),
                   "news": None if spec.news is None else str(spec.news)}
            for name, spec in sorted(config.assets.items())
        },
        "lexicon": None if config.lexicon is None else str(config.lexicon),
        "grouping": config.grouping.value,
        "fill": config.fill.value,
        "env": _echo_section("env", config.env),
        "tc_rates": list(config.tc_rates),
        "agent": _echo_section("agent", config.agent),
        "seeds": list(config.seeds),
        "windows": _echo_section("windows", config.windows),
        "strategies": list(config.strategies),
        "output_dir": str(config.output_dir),
        "workers": config.workers,
    }


def echo_config(config: RunConfig, path: str | Path) -> None:
    """Write the resolved config next to the run outputs for provenance,
    atomically: a killed run leaves the old echo or the new one."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(config_to_json(config), indent=2) + "\n")


#: Echo keys that may change between a run and its resume.
RESUMABLE_KEYS = ("output_dir", "workers")


def echo_differences(config: RunConfig, path: str | Path) -> list[str]:
    """Dotted keys where the config echo at `path` differs from `config`,
    leaving out RESUMABLE_KEYS; a ConfigError if the echo cannot be read."""
    try:
        old = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read the config echo {path}: {exc}") from exc
    new = json.loads(json.dumps(config_to_json(config)))
    if isinstance(old, dict):
        for key in RESUMABLE_KEYS:
            old.pop(key, None)
            new.pop(key, None)
    return _differences(old, new, "")


def _differences(old: object, new: object, where: str) -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        return [diff for key in sorted(set(old) | set(new))
                for diff in _differences(old.get(key, _MISSING), new.get(key, _MISSING),
                                         f"{where}.{key}" if where else key)]
    return [] if old == new else [where or "<root>"]
