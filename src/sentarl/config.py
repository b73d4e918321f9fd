"""Declarative run configuration.

One JSON file describes a whole experiment: asset data paths, sentiment
scoring choices, environment and agent hyperparameters, the seed list, the
rolling-window shape, and output placement. Parsing is strict: unknown keys
are rejected with their location, and every numeric field is range-checked
here so later stages can assume a valid config.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .a2c import A2cConfig
from .env import EnvConfig
from .errors import ConfigError
from .evaluation import STRATEGIES, WindowSpec
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
    env: EnvConfig            # base env; per-trial tc_rate comes from tc_rates
    tc_rates: tuple[float, ...]
    agent: A2cConfig          # base agent; per-trial seed comes from seeds
    seeds: tuple[int, ...]
    windows: WindowSpec
    strategies: tuple[str, ...]
    output_dir: Path
    workers: int

    def cache_path(self, asset: str) -> Path:
        return self.output_dir / "caches" / f"{asset}.aligned.csv"


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


def _string(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


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


def _parse_assets(raw: object, base: Path, check_paths: bool) -> dict[str, AssetSpec]:
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
        if check_paths and not prices.exists():
            raise ConfigError(f"assets.{name}.prices: file not found: {prices}")
        out[name] = AssetSpec(prices=prices, news=news)
    section.finish()
    return out


def load_config(path: str | Path, check_paths: bool = True) -> RunConfig:
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

    assets = _parse_assets(top.take("assets"), base, check_paths)

    lexicon_raw = top.take("lexicon", None)
    lexicon = None if lexicon_raw is None else _data_path(
        base, _string(lexicon_raw, "lexicon"))
    if lexicon is not None and check_paths and not lexicon.exists():
        raise ConfigError(f"lexicon: file not found: {lexicon}")

    try:
        grouping = Grouping.parse(_string(top.take("grouping", "min"), "grouping"))
        fill = FillPolicy.parse(_string(top.take("fill", "neutral-zero"), "fill"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    env_sec = _Section(top.take("env", {}), "env")
    try:
        env = EnvConfig(
            w=_integer(env_sec.take("w", 20), "env.w", lo=1),
            l=_integer(env_sec.take("l", 5), "env.l", lo=0),
            phi=_number(env_sec.take("phi", 1.0), "env.phi"),
            cost_mode=_string(env_sec.take("cost_mode", "proportional"), "env.cost_mode"),
        )
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from exc
    env_sec.finish()

    tc_raw = top.take("tc_rates", [0.0, 0.0025])
    if not isinstance(tc_raw, list) or not tc_raw:
        raise ConfigError("tc_rates: expected a non-empty list")
    tc_rates = tuple(_number(v, f"tc_rates[{i}]", lo=0.0)
                     for i, v in enumerate(tc_raw))

    agent_sec = _Section(top.take("agent", {}), "agent")
    hidden_raw = agent_sec.take("hidden_sizes", [64, 64])
    if not isinstance(hidden_raw, list):
        raise ConfigError("agent.hidden_sizes: expected a list")
    max_norm_raw = agent_sec.take("max_grad_norm", None)
    try:
        agent = A2cConfig(
            gamma=_number(agent_sec.take("gamma", 0.99), "agent.gamma", lo=0.0, hi=1.0),
            lr_actor=_number(agent_sec.take("lr_actor", 7e-4), "agent.lr_actor"),
            lr_critic=_number(agent_sec.take("lr_critic", 7e-4), "agent.lr_critic"),
            n_steps=_integer(agent_sec.take("n_steps", 5), "agent.n_steps", lo=1),
            episodes=_integer(agent_sec.take("episodes", 100), "agent.episodes", lo=1),
            entropy_coef=_number(agent_sec.take("entropy_coef", 0.0),
                                 "agent.entropy_coef", lo=0.0),
            hidden_sizes=tuple(_integer(h, f"agent.hidden_sizes[{i}]", lo=1)
                               for i, h in enumerate(hidden_raw)),
            activation=_string(agent_sec.take("activation", "tanh"), "agent.activation"),
            max_grad_norm=None if max_norm_raw is None
            else _number(max_norm_raw, "agent.max_grad_norm"),
            optimizer=_string(agent_sec.take("optimizer", "sgd"), "agent.optimizer"),
            use_n_step_returns=bool(agent_sec.take("use_n_step_returns", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"agent: {exc}") from exc
    agent_sec.finish()

    seeds_raw = top.take("seeds", [0, 1, 2, 3, 4])
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigError("seeds: expected a non-empty list")
    seeds = tuple(_integer(s, f"seeds[{i}]") for i, s in enumerate(seeds_raw))

    win_sec = _Section(top.take("windows", {}), "windows")
    try:
        windows = WindowSpec(
            train_len=_integer(win_sec.take("train_len", 3377), "windows.train_len", lo=1),
            test_len=_integer(win_sec.take("test_len", 374), "windows.test_len", lo=1),
            stride=_integer(win_sec.take("stride", 374), "windows.stride", lo=1),
            count=_integer(win_sec.take("count", 5), "windows.count", lo=1),
        )
    except ValueError as exc:
        raise ConfigError(f"windows: {exc}") from exc
    win_sec.finish()

    strategies_raw = top.take("strategies", list(STRATEGIES))
    if not isinstance(strategies_raw, list) or not strategies_raw:
        raise ConfigError("strategies: expected a non-empty list")
    strategies = tuple(_string(s, f"strategies[{i}]")
                       for i, s in enumerate(strategies_raw))
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
        "env": {"w": config.env.w, "l": config.env.l, "phi": config.env.phi,
                "cost_mode": config.env.cost_mode.value},
        "tc_rates": list(config.tc_rates),
        "agent": {
            "gamma": config.agent.gamma,
            "lr_actor": config.agent.lr_actor,
            "lr_critic": config.agent.lr_critic,
            "n_steps": config.agent.n_steps,
            "episodes": config.agent.episodes,
            "entropy_coef": config.agent.entropy_coef,
            "hidden_sizes": list(config.agent.hidden_sizes),
            "activation": config.agent.activation,
            "max_grad_norm": config.agent.max_grad_norm,
            "optimizer": config.agent.optimizer,
            "use_n_step_returns": config.agent.use_n_step_returns,
        },
        "seeds": list(config.seeds),
        "windows": {"train_len": config.windows.train_len,
                    "test_len": config.windows.test_len,
                    "stride": config.windows.stride,
                    "count": config.windows.count},
        "strategies": list(config.strategies),
        "output_dir": str(config.output_dir),
        "workers": config.workers,
    }


def echo_config(config: RunConfig, path: str | Path) -> None:
    """Write the resolved config next to the run outputs for provenance."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config_to_json(config), indent=2) + "\n",
                    encoding="utf-8")


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
