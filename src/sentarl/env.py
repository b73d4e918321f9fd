"""Single-asset trading MDP with transaction costs.

The agent walks the hourly grid of an :class:`~sentarl.data.AlignedSeries`,
choosing Long/Neutral/Short each step. A step taken at grid index t with
action a_t pays ``phi * z_{t+1} * a_t`` minus the switching cost charged at
the decision price, so reward depends causally on the chosen action and
episode totals telescope to the classic per-instant return sum.

Wealth is tracked by double-entry accounting (cash plus marked-to-market
position) rather than by accumulating rewards, which keeps the identity
``final wealth == psi + sum(rewards)`` a real cross-check instead of a
tautology.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import AlignedSeries


class Action(enum.IntEnum):
    SHORT = -1
    NEUTRAL = 0
    LONG = 1


#: Network output index order; index = action value + 1.
ACTIONS = (Action.SHORT, Action.NEUTRAL, Action.LONG)


def action_from_index(index: int) -> Action:
    return ACTIONS[index]


def action_index(action: Action | int) -> int:
    return int(action) + 1


class CostMode(enum.Enum):
    """How the per-unit switching cost c_t is derived from tc_rate."""

    PROPORTIONAL = "proportional"      # c_t = tc_rate * p_t
    FIXED_PER_UNIT = "fixed-per-unit"  # c_t = tc_rate (a currency constant)

    @classmethod
    def parse(cls, value: "CostMode | str") -> "CostMode":
        if isinstance(value, CostMode):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"unknown cost mode {value!r}; "
                             f"expected one of {[m.value for m in cls]}") from None


@dataclass(frozen=True)
class EnvConfig:
    """Environment knobs; defaults follow the reference experiment setup."""

    w: int = 20                 # price/hour look-back window
    l: int = 5                  # sentiment look-back window
    phi: float = 1.0            # fixed share count per position
    tc_rate: float = 0.0        # 0.0 or 0.0025 in the studied scenarios
    cost_mode: CostMode | str = CostMode.PROPORTIONAL
    use_sentiment: bool = True
    diff_stats: tuple[float, float] | None = None  # optional (mean, std) z-scoring of state diffs

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_mode", CostMode.parse(self.cost_mode))
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if self.l < 0:
            raise ValueError("l must be >= 0")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.tc_rate < 0:
            raise ValueError("tc_rate must be non-negative")
        if self.diff_stats is not None and self.diff_stats[1] <= 0:
            raise ValueError("diff_stats std must be positive")

    @property
    def state_dim(self) -> int:
        return 2 * self.w + (self.l if self.use_sentiment else 0) + 1


@dataclass
class MarketState:
    """Agent observation: sentiment window (optional) followed by the
    price-diff window, hour window, and the previous action.

    The windows may be read-only views into the series; the flat vector is
    built once, and to_vector() returns that same array on every call.
    """

    diffs_window: np.ndarray
    hours_window: np.ndarray
    sentiment_window: np.ndarray | None
    last_action: Action
    _vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = [self.diffs_window, self.hours_window, [float(self.last_action)]]
        if self.sentiment_window is not None:
            parts.insert(0, self.sentiment_window)
        self._vector = np.concatenate(parts)

    def to_vector(self) -> np.ndarray:
        return self._vector

    @property
    def dimension(self) -> int:
        return len(self._vector)


@dataclass
class StepOutcome:
    reward: float
    next_state: MarketState
    done: bool
    info: dict


@dataclass
class EquityPoint:
    """One row of the exportable equity curve."""

    t: int
    timestamp: np.datetime64
    action: int
    reward: float
    cost: float
    cum_return: float


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class TradingEnv:
    """Episode walker over one aligned series.

    A single instance is not thread-safe (it owns a mutable clock), but
    instances over the same immutable series are independent.
    """

    def __init__(self, series: AlignedSeries, config: EnvConfig):
        min_len = max(config.w + 1, config.l) + 2
        if len(series) < min_len:
            raise ValueError(
                f"series of length {len(series)} too short for windows; "
                f"need at least {min_len} points")
        self.series = series
        self.config = config
        # Start where every configured window is full. The sentiment clock is
        # honored even with use_sentiment off so ablation runs stay aligned.
        self.start_index = max(config.w, config.l - 1)
        state_diffs = series.diffs
        if config.diff_stats is not None:
            mean, std = config.diff_stats
            state_diffs = (series.diffs - mean) / std
        # Observations hold slices of these read-only reversed views, never
        # copies; row `_end - t` of each holds grid index t's newest value.
        self._end = len(series) - 1
        self._diffs_rev, self._hours_rev, self._sentiment_rev = (
            _read_only(a[::-1]) for a in (state_diffs, series.hours, series.sentiment))
        self.t = self.start_index
        self.last_action = Action.NEUTRAL
        self.psi = config.phi * float(series.prices[0])
        self.cash = self.psi
        self._done = False
        self._started = False
        # Per-episode step records, preallocated by reset(); the equity curve
        # is built from them only when equity_curve() is called.
        self._n = 0
        self._actions = np.empty(0, dtype=np.int64)
        self._rewards = np.empty(0)
        self._costs = np.empty(0)

    def reset(self) -> MarketState:
        """Rewind to t0 with a flat position and the full initial wealth."""
        self.t = self.start_index
        self.last_action = Action.NEUTRAL
        self.cash = self.psi
        self._done = False
        self._started = True
        self._n = 0
        self._actions = np.empty(self.steps, dtype=np.int64)
        self._rewards = np.empty(self.steps)
        self._costs = np.empty(self.steps)
        return self._observe()

    @property
    def steps(self) -> int:
        """Steps in one episode."""
        return self._end - self.start_index

    def _observe(self) -> MarketState:
        cfg = self.config
        # diffs[j] is z at grid index j + 1, so the reversed diffs hold z_t
        # (diffs[t - 1]) at the same row where the hours hold hours[t]
        i = self._end - self.t
        sent_win = self._sentiment_rev[i:i + cfg.l] if cfg.use_sentiment else None
        return MarketState(self._diffs_rev[i:i + cfg.w], self._hours_rev[i:i + cfg.w],
                           sent_win, self.last_action)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def wealth(self) -> float:
        """Cash plus the current position marked at the clock's price."""
        position = float(self.last_action) * self.config.phi
        return self.cash + position * float(self.series.prices[self.t])

    def unit_cost(self, price: float) -> float:
        if self.config.cost_mode is CostMode.PROPORTIONAL:
            return self.config.tc_rate * price
        return self.config.tc_rate

    def step(self, action: Action | int) -> StepOutcome:
        """Trade at the clock price, realize the next price difference."""
        if not self._started:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        if not isinstance(action, Action):
            action = Action(int(action))
        t = self.t
        phi = self.config.phi
        price = float(self.series.prices[t])
        switch = abs(int(action) - int(self.last_action))
        cost = phi * self.unit_cost(price) * switch

        delta_shares = (float(action) - float(self.last_action)) * phi
        self.cash -= delta_shares * price + cost

        diff = float(self.series.diffs[t])  # z_{t+1}
        reward = phi * diff * float(action) - cost

        self.t = t + 1
        self.last_action = action
        self._done = self.t == self._end
        next_state = self._observe()
        n = self._n
        self._actions[n] = action
        self._rewards[n] = reward
        self._costs[n] = cost
        self._n = n + 1
        return StepOutcome(
            reward=reward,
            next_state=next_state,
            done=self._done,
            info={"price": price, "diff": diff, "cost_paid": cost},
        )

    def equity_curve(self) -> list[EquityPoint]:
        """The current episode's steps so far, built at the time of the call.

        cum_return of step i is ``(fsum(rewards[:i]) + rewards[i]) / psi``,
        so the export costs O(steps^2) additions; training never calls it.
        """
        rewards = self._rewards[:self._n].tolist()
        costs = self._costs[:self._n].tolist()
        actions = self._actions[:self._n].tolist()
        t0 = self.start_index
        return [EquityPoint(t=t0 + i, timestamp=self.series.timestamps[t0 + i],
                            action=actions[i], reward=r, cost=costs[i],
                            cum_return=(math.fsum(rewards[:i]) + r) / self.psi)
                for i, r in enumerate(rewards)]


def episode_return(rewards: Sequence[float]) -> float:
    """Compensated sum of step rewards (0 for an empty episode)."""
    return math.fsum(rewards)


Policy = Callable[[MarketState], Action]


def baseline_policy(kind: str, seed: int | None = None) -> Policy:
    """Deterministic (or seeded-random) reference policies.

    Kinds: ``buy-and-hold`` (Long every step; run it with tc_rate forced to
    0 since holding has no transactions), ``always-short``,
    ``always-neutral``, and ``random``.
    """
    if kind == "buy-and-hold":
        return lambda state: Action.LONG
    if kind == "always-short":
        return lambda state: Action.SHORT
    if kind == "always-neutral":
        return lambda state: Action.NEUTRAL
    if kind == "random":
        rng = np.random.default_rng(seed)
        return lambda state: ACTIONS[int(rng.integers(0, 3))]
    raise ValueError(f"unknown baseline policy {kind!r}")


@dataclass
class EpisodeResult:
    """Replay record of one full pass over a series."""

    rewards: list[float]
    actions: list[int]
    psi: float
    equity: list[EquityPoint] = field(default_factory=list)

    @property
    def total_reward(self) -> float:
        return episode_return(self.rewards)

    @property
    def total_return(self) -> float:
        return self.total_reward / self.psi

    @property
    def trade_count(self) -> int:
        prev = int(Action.NEUTRAL)
        count = 0
        for a in self.actions:
            if a != prev:
                count += 1
            prev = a
        return count


def run_policy(env: TradingEnv, policy: Policy) -> EpisodeResult:
    """Reset the environment and drive it to the end with the policy."""
    state = env.reset()
    rewards: list[float] = []
    actions: list[int] = []
    done = False
    while not done:
        action = policy(state)
        outcome = env.step(action)
        rewards.append(outcome.reward)
        actions.append(int(action))
        state = outcome.next_state
        done = outcome.done
    return EpisodeResult(rewards, actions, env.psi, env.equity_curve())


def write_equity_csv(equity: Sequence[EquityPoint], path: str | Path) -> None:
    """Emit ``t,timestamp,action,reward,cost,cum_return`` rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "timestamp", "action", "reward", "cost", "cum_return"])
        for p in equity:
            writer.writerow([
                p.t,
                np.datetime_as_string(p.timestamp, unit="s") + "Z",
                p.action,
                repr(p.reward),
                repr(p.cost),
                repr(p.cum_return),
            ])
