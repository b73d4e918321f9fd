"""Declarative run configuration: the config file's whole schema.

One JSON file describes a whole experiment: asset data paths, sentiment
scoring choices, environment and agent hyperparameters, the seed list, the
rolling-window shape, and output placement. Each key is declared once, as a
field of RunConfig (the top-level keys) or of its section's dataclass
(EnvConfig, A2cConfig, WindowSpec, and AssetSpec for each asset): the
field's default is the key's default, and the dataclass checks each value
under its dotted key, in field order, when it is built. Each closed set of
values is one tuple of strings. Parsing is strict: unknown keys are
rejected with their location, so later stages can assume a valid config.
This module imports no learner layer; the layers import their configs and
value sets from here.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .data import CACHE_DIR, CACHE_SUFFIX
from .errors import ConfigError
from .files import atomic_open

STRATEGIES = ("buy-and-hold", "no-sentiment", "sentarl")
#: How the per-unit switching cost c_t derives from tc_rate: proportional
#: is c_t = tc_rate * p_t, fixed-per-unit is c_t = tc_rate (a currency constant).
COST_MODES = ("proportional", "fixed-per-unit")
#: How the scores of all headlines within one hour collapse to e_t.
GROUPINGS = ("min", "mean", "max")
#: The value given to hours with no news.
FILL_POLICIES = ("neutral-zero", "forward-fill")
ACTIVATIONS = ("tanh", "relu")
OPTIMIZERS = ("sgd", "rmsprop")

_ASSET_NAME = re.compile(r"^[A-Za-z0-9._-]+$")
_MISSING = object()


# Each check takes a JSON-typed value and the dotted key or flag it came from, and
# returns it (numbers as floats, lists as tuples) or raises a ConfigError naming it.


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
    if not isinstance(value, (list, tuple)) or (nonempty and not value):
        raise ConfigError(f"{where}: expected a {'non-empty list' if nonempty else 'list'}")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _choice(value: object, where: str, options: tuple[str, ...], noun: str) -> str:
    """One of the strings `options`; an unknown one is named as a `noun`."""
    if _string(value, where) not in options:
        raise ConfigError(f"{where}: unknown {noun} {value!r}; expected one of {list(options)}")
    return value


def _path(value: object, where: str) -> Path:
    return value if isinstance(value, Path) else Path(_string(value, where))


def _file(value: object, where: str) -> Path:
    path = _path(value, where)
    if not path.is_file():
        raise ConfigError(f"{where}: file not found: {path}")
    return path


def _fields(value: object, where: str, cls: type) -> dict:
    """`value`, a JSON object, as the keyword arguments of dataclass `cls`:
    it must hold each field that has no default, and no other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    fields = dataclasses.fields(cls)
    for field in fields:
        if field.default is dataclasses.MISSING and field.name not in value:
            raise ConfigError(f"{where}: missing required key {field.name!r}")
    unknown = value.keys() - {field.name for field in fields}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    return value


def _section(value: object, where: str, cls: type):
    """A section given as an instance of its dataclass or as a JSON object."""
    return value if isinstance(value, cls) else cls(**_fields(value, where, cls))


@dataclass(frozen=True)
class EnvConfig:
    """The config file's `env` section: the knobs every trial of a stack
    shares. Defaults follow the reference experiment setup."""

    w: int = 20                 # price/hour look-back window
    l: int = 5                  # sentiment look-back window
    phi: float = 1.0            # fixed share count per position
    cost_mode: str = "proportional"

    def __post_init__(self) -> None:
        """Checks each field in order; stores `phi` as a float."""
        _integer(self.w, "env.w", lo=1)
        _integer(self.l, "env.l", lo=0)
        object.__setattr__(self, "phi", _number(self.phi, "env.phi"))
        if self.phi <= 0:
            raise ConfigError("env.phi: phi must be positive")
        _choice(self.cost_mode, "env.cost_mode", COST_MODES, "cost mode")

    def state_dim(self, use_sentiment: bool) -> int:
        return 2 * self.w + (self.l if use_sentiment else 0) + 1

    @property
    def min_length(self) -> int:
        """The fewest points a series needs for an episode of two steps."""
        return max(self.w + 1, self.l) + 2


@dataclass(frozen=True)
class A2cConfig:
    """The config file's `agent` section: the learner's hyperparameters."""

    gamma: float = 0.99
    lr_actor: float = 7e-4
    lr_critic: float = 7e-4
    n_steps: int = 5
    episodes: int = 100
    entropy_coef: float = 0.0
    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    max_grad_norm: float | None = None
    optimizer: str = "sgd"
    # The update rule follows the 1-step advantage formula; flag switches the
    # batch to n-step bootstrapped returns instead.
    use_n_step_returns: bool = False

    def __post_init__(self) -> None:
        """Checks each field in order; stores numbers as floats, `hidden_sizes` as a tuple."""
        put = partial(object.__setattr__, self)
        put("gamma", _number(self.gamma, "agent.gamma", lo=0.0, hi=1.0))
        for key in ("lr_actor", "lr_critic"):
            put(key, _number(getattr(self, key), f"agent.{key}"))
            if getattr(self, key) <= 0:
                raise ConfigError(f"agent.{key}: learning rates must be positive")
        _integer(self.n_steps, "agent.n_steps", lo=1)
        _integer(self.episodes, "agent.episodes", lo=1)
        put("entropy_coef", _number(self.entropy_coef, "agent.entropy_coef", lo=0.0))
        put("hidden_sizes", _list(self.hidden_sizes, "agent.hidden_sizes",
                                  partial(_integer, lo=1), nonempty=False))
        if _string(self.activation, "agent.activation") not in ACTIVATIONS:
            raise ConfigError(f"agent.activation: unknown activation {self.activation!r}")
        if self.max_grad_norm is not None:
            put("max_grad_norm", _number(self.max_grad_norm, "agent.max_grad_norm"))
            if self.max_grad_norm <= 0:
                raise ConfigError("agent.max_grad_norm: max_grad_norm must be positive when set")
        if _string(self.optimizer, "agent.optimizer") not in OPTIMIZERS:
            raise ConfigError(f"agent.optimizer: unknown optimizer {self.optimizer!r}")
        _boolean(self.use_n_step_returns, "agent.use_n_step_returns")


@dataclass(frozen=True)
class WindowSpec:
    """Rolling-split shape; defaults follow the reference study's splits."""

    train_len: int = 3377
    test_len: int = 374
    stride: int = 374
    count: int = 5

    def __post_init__(self) -> None:
        """Checks each field in order; the stride rule spans keys, so it names the section."""
        for key in (f.name for f in dataclasses.fields(self)):
            if _integer(getattr(self, key), f"windows.{key}") < 1:
                raise ConfigError(f"windows.{key}: {getattr(self, key)} is below the minimum 1 "
                                  "(window parameters must be positive)")
        if self.stride < self.test_len:
            raise ConfigError("windows: stride must be >= test_len so test ranges stay disjoint")

    @property
    def span(self) -> int:
        return self.train_len + self.test_len + (self.count - 1) * self.stride


@dataclass(frozen=True)
class AssetSpec:
    """One entry of the config file's `assets`; RunConfig checks it under
    the asset's name."""

    prices: Path
    news: Path | None = None


def _assets(value: object) -> dict[str, AssetSpec]:
    """Each asset's files by name, in sorted order; a price file must exist."""
    if not isinstance(value, dict):
        raise ConfigError("assets: expected an object")
    if not value:
        raise ConfigError("assets: at least one asset is required")
    assets = {}
    for name in sorted(value):
        if not _ASSET_NAME.match(name):
            raise ConfigError(f"assets: invalid asset name {name!r} "
                              "(letters, digits, '.', '_', '-' only)")
        where = f"assets.{name}"
        spec = _section(value[name], where, AssetSpec)
        prices = _file(spec.prices, f"{where}.prices")
        news = None if spec.news is None else _path(spec.news, f"{where}.news")
        assets[name] = AssetSpec(prices, news)
    return assets


@dataclass(frozen=True)
class RunConfig:
    """The config file: one field per top-level key, its default the key's.

    Like the sections, it checks each value under its key in field order,
    and takes JSON-typed values or the ones it stores (paths as strings or
    Paths, sections and assets as objects or dataclasses).
    """

    assets: dict[str, AssetSpec]
    lexicon: Path | None = None
    grouping: str = "min"
    fill: str = "neutral-zero"
    env: EnvConfig = EnvConfig()
    tc_rates: tuple[float, ...] = (0.0, 0.0025)
    agent: A2cConfig = A2cConfig()
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    windows: WindowSpec = WindowSpec()
    strategies: tuple[str, ...] = STRATEGIES
    output_dir: Path = Path("sentarl-out")
    workers: int = 1

    def __post_init__(self) -> None:
        put = partial(object.__setattr__, self)
        put("assets", _assets(self.assets))
        if self.lexicon is not None:
            put("lexicon", _file(self.lexicon, "lexicon"))
        _choice(self.grouping, "grouping", GROUPINGS, "grouping method")
        _choice(self.fill, "fill", FILL_POLICIES, "fill policy")
        put("env", _section(self.env, "env", EnvConfig))
        put("tc_rates", _list(self.tc_rates, "tc_rates", partial(_number, lo=0.0)))
        put("agent", _section(self.agent, "agent", A2cConfig))
        put("seeds", _list(self.seeds, "seeds", partial(_integer, lo=0)))
        put("windows", _section(self.windows, "windows", WindowSpec))
        short = [f"windows.{key}" for key in ("train_len", "test_len")
                 if getattr(self.windows, key) < self.env.min_length]
        if short:
            raise ConfigError(f"{', '.join(short)}: below {self.env.min_length}, the fewest "
                              f"points an episode needs at env.w={self.env.w} and "
                              f"env.l={self.env.l}")
        put("strategies", _list(self.strategies, "strategies", _string))
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ConfigError(f"strategies: unknown {sorted(unknown)}; "
                              f"valid: {list(STRATEGIES)}")
        put("output_dir", _path(self.output_dir, "output_dir"))
        _integer(self.workers, "workers", lo=1)

    def cache_path(self, asset: str) -> Path:
        return self.output_dir / CACHE_DIR / f"{asset}{CACHE_SUFFIX}"


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file. Its data paths resolve against its
    directory, absolutized so the echoed config means the same files when
    parsed from anywhere; output_dir is used as it is."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    keys = _fields(raw, str(path), RunConfig)

    def anchor(value: object) -> object:  # anything but a string is RunConfig's to check
        return (path.parent / value).absolute() if isinstance(value, str) else value

    if isinstance(keys["assets"], dict):
        keys["assets"] = {name: {key: anchor(value) for key, value in entry.items()}
                          if isinstance(entry, dict) else entry
                          for name, entry in keys["assets"].items()}
    if "lexicon" in keys:
        keys["lexicon"] = anchor(keys["lexicon"])
    return RunConfig(**keys)


def _json_value(value: object) -> object:
    """The JSON form of a config value that json cannot encode itself."""
    if isinstance(value, Path):
        return str(value)
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
