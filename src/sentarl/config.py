"""Declarative run configuration.

One JSON file describes a whole experiment: asset data paths, sentiment
scoring choices, environment and agent hyperparameters, the seed list, the
rolling-window shape, and output placement. Parsing is strict: unknown keys
are rejected with their location, and every value is checked so later
stages can assume a valid config. The `env`, `agent` and `windows` sections
are the dataclasses EnvConfig, A2cConfig and WindowSpec: their fields are
the section's keys, and each checks its own values under the dotted key.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .a2c import A2cConfig
from .data import CACHE_DIR, CACHE_SUFFIX
from .env import EnvConfig
from .errors import Choice, ConfigError, _choice, _integer, _list, _number, _string
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


def _parse_section(top: _Section, name: str, cls: type):
    """Build one dataclass section from the keys the file sets; the class
    checks their values, and any other key is rejected."""
    section = _Section(top.take(name, {}), name)
    built = cls(**{field.name: section.take(field.name) for field in dataclasses.fields(cls)
                   if field.name in section.data})
    section.finish()
    return built


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

    grouping = _choice(top.take("grouping", "min"), "grouping", Grouping)
    fill = _choice(top.take("fill", "neutral-zero"), "fill", FillPolicy)

    env = _parse_section(top, "env", EnvConfig)
    tc_rates = _list(top.take("tc_rates", [0.0, 0.0025]), "tc_rates",
                     partial(_number, lo=0.0))
    agent = _parse_section(top, "agent", A2cConfig)
    seeds = _list(top.take("seeds", [0, 1, 2, 3, 4]), "seeds",
                  partial(_integer, lo=0))
    windows = _parse_section(top, "windows", WindowSpec)
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


def _json_value(value: object) -> object:
    """The JSON form of a config value that json cannot encode itself."""
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, Choice):
        return value.value
    raise TypeError(f"no JSON form for {type(value).__name__} {value!r}")


def config_to_json(config: RunConfig) -> dict:
    """Resolved-config dict, one key per RunConfig field in field order;
    re-parsing the echo yields an equal RunConfig."""
    return json.loads(json.dumps(dataclasses.asdict(config), default=_json_value))


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
    new = config_to_json(config)
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
