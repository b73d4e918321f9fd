"""Single-asset trading MDP with transaction costs.

The agent walks the hourly grid of an :class:`~sentarl.data.AlignedSeries`,
choosing Long/Neutral/Short each step. A step taken at grid index t with
action a_t pays ``phi * z_{t+1} * a_t`` minus the switching cost charged at
the decision price, so reward depends causally on the chosen action and
episode totals telescope to the classic per-instant return sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import AlignedSeries
from .errors import Choice
from .files import write_csv


class CostMode(Choice, noun="cost mode"):
    """How the per-unit switching cost c_t is derived from tc_rate."""

    PROPORTIONAL = "proportional"      # c_t = tc_rate * p_t
    FIXED_PER_UNIT = "fixed-per-unit"  # c_t = tc_rate (a currency constant)


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
        object.__setattr__(self, "cost_mode", CostMode(self.cost_mode))
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if self.l < 0:
            raise ValueError("l must be >= 0")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.tc_rate < 0:
            raise ValueError("tc_rate must be non-negative")
        if self.diff_stats is not None:
            stats = tuple(map(float, self.diff_stats))
            if len(stats) != 2 or not all(map(math.isfinite, stats)) or stats[1] <= 0:
                raise ValueError("diff_stats must be two finite numbers (mean, std) "
                                 f"with std > 0, got {self.diff_stats!r}")
            object.__setattr__(self, "diff_stats", stats)

    @property
    def state_dim(self) -> int:
        return 2 * self.w + (self.l if self.use_sentiment else 0) + 1


@dataclass
class StepOutcome:
    """One block's result; the reward and info values are (K, m): the trial
    axis, then the block's step axis."""

    reward: np.ndarray
    next_state: np.ndarray | None
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


def _rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as the read-only rows of one (K, n) array."""
    rows = np.stack(arrays)
    rows.flags.writeable = False
    return rows


class TradingEnv:
    """A lockstep stack of K trials over aligned series, on one clock.

    Given a sequence of K env configs, and one series shared by every trial
    or one series per trial, the env walks the trials the way a stack of
    nets in `nn` carries a leading trial axis: `step` takes a (K, m) block
    of action indices (0=Short, 1=Neutral, 2=Long), m ticks of every trial,
    and computes each trial's rewards and costs with the same arithmetic,
    so every trial gets the bits a stack of one would give it. `psi`,
    `last_action` and the rewards carry the trial axis, and each
    observation is one (K, d) array.
    The trials may differ in series, tc_rate and diff_stats, but not in
    episode length, w, l, phi, cost_mode or use_sentiment. A single trial
    is a stack of one; `tests/reference.py` holds its per-step reference.

    A single instance is not thread-safe (it owns a mutable clock), but
    instances over the same immutable series are independent.
    """

    def __init__(self, series: AlignedSeries | Sequence[AlignedSeries],
                 configs: Sequence[EnvConfig]):
        if isinstance(configs, EnvConfig):
            raise ValueError("TradingEnv takes a list of env configs, one per trial; "
                             "a single trial is TradingEnv(series, [config])")
        configs = tuple(configs)
        series_list = ((series,) * len(configs) if isinstance(series, AlignedSeries)
                       else tuple(series))
        if not configs or len(series_list) != len(configs):
            raise ValueError("need one env config per trial, and one series per "
                             "trial or one shared series")
        first = configs[0]
        clock = (first.w, first.l, first.phi, first.cost_mode, first.use_sentiment)
        if any((c.w, c.l, c.phi, c.cost_mode, c.use_sentiment) != clock for c in configs):
            raise ValueError("lockstep trials must share w, l, phi, cost_mode "
                             "and use_sentiment")
        if len({len(s) for s in series_list}) != 1:
            raise ValueError("lockstep trials need series of equal length")
        min_len = max(first.w + 1, first.l) + 2
        if len(series_list[0]) < min_len:
            raise ValueError(
                f"series of length {len(series_list[0])} too short for windows; "
                f"need at least {min_len} points")
        self.series = series_list
        self.trials = len(configs)
        # Start where every configured window is full. The sentiment clock is
        # honored even with use_sentiment off so ablation runs stay aligned.
        self.start_index = max(first.w, first.l - 1)
        w, l, self._phi = first.w, first.l, first.phi
        self._use_sentiment, self._dim = first.use_sentiment, first.state_dim
        self._proportional = first.cost_mode is CostMode.PROPORTIONAL
        # Each channel holds one row per trial; its diff_stats scale its state diffs.
        self._prices = _rows([s.prices for s in series_list])
        self._diffs = _rows([s.diffs for s in series_list])
        state_diffs = [s.diffs if c.diff_stats is None
                       else (s.diffs - c.diff_stats[0]) / c.diff_stats[1]
                       for s, c in zip(series_list, configs)]
        # Observation windows, in state-vector order: read-only sliding views,
        # newest value first, of which row t - lag is grid index t's window
        # (diffs[j] is z at grid index j + 1). No window is copied up front.
        self._end = len(series_list[0]) - 1
        channels = [(state_diffs, w, w), ([s.hours for s in series_list], w, w - 1)]
        if self._use_sentiment:
            channels.insert(0, ([s.sentiment for s in series_list], l, l - 1))
        self._windows = [(np.lib.stride_tricks.sliding_window_view(
            _rows(arrays), size, axis=-1)[..., ::-1], lag) for arrays, size, lag in channels]
        self.psi = np.array([c.phi * float(s.prices[0]) for s, c in zip(series_list, configs)])
        # a column, so that the cost rates broadcast over a block of steps
        self._tc = np.array([c.tc_rate for c in configs])[:, None]
        self.t = self.start_index
        self.last_action = np.zeros(self.trials, dtype=np.int64)
        self._done = False
        self._started = False
        # Per-episode step records, preallocated by reset(); the equity curve
        # is built from them only when equity_curve() is called.
        self._n = 0
        self._actions = np.empty((self.trials, 0), dtype=np.int64)
        self._rewards = np.empty((self.trials, 0))
        self._costs = np.empty((self.trials, 0))

    def reset(self) -> np.ndarray:
        """Rewind to t0 with a flat position; return the new (K, d)
        observation."""
        self.t = self.start_index
        self.last_action = np.zeros(self.trials, dtype=np.int64)
        self._done = False
        self._started = True
        self._n = 0
        self._actions = np.empty((self.trials, self.steps), dtype=np.int64)
        self._rewards = np.empty((self.trials, self.steps))
        self._costs = np.empty((self.trials, self.steps))
        return self._observe(np.empty((self.trials, self._dim)))

    @property
    def steps(self) -> int:
        """Steps in one episode."""
        return self._end - self.start_index

    def _observe(self, out: np.ndarray) -> np.ndarray:
        self.observe(out[:, None])
        return out

    def observe(self, out: np.ndarray) -> np.ndarray:
        """The observations of the next r clock ticks (t, t + 1, ...), each
        with the current last action, written into the (K, r, d) array `out`
        and returned. A flush of m steps reads its m + 1 rows this way."""
        rows = out.shape[1] if out.ndim == 3 else 0
        if out.shape != (self.trials, rows, self._dim) or not 0 < rows <= self._end - self.t + 1:
            raise ValueError(f"out has shape {out.shape}, want (K, r, {self._dim}) with "
                             f"1 <= r <= {self._end - self.t + 1} on a stack of K")
        col = 0
        for window, lag in self._windows:
            size = window.shape[-1]
            out[:, :, col:col + size] = window[:, self.t - lag:self.t - lag + rows]
            col += size
        out[:, :, -1] = self.last_action[:, None]
        return out

    @property
    def done(self) -> bool:
        return self._done

    @property
    def rewards(self) -> np.ndarray:
        """The current episode's (K, steps so far) rewards."""
        return self._rewards[:, :self._n]

    @property
    def actions(self) -> np.ndarray:
        """The current episode's action values so far, shaped like `rewards`."""
        return self._actions[:, :self._n]

    def unit_cost(self, price: np.ndarray) -> np.ndarray:
        if self._proportional:
            return self._tc * price
        return self._tc

    def step(self, actions: np.ndarray, out: np.ndarray | None = None) -> StepOutcome:
        """Trade at the clock price, realize the next price difference.

        Takes a (K, m) block of action indices that steps m ticks in one
        pass, and writes the observation after its last step into `out`
        when given; next_state is `out`, or None without it. A block is
        checked whole before the clock moves.
        """
        if not self._started:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        t, phi = self.t, self._phi
        block = np.asarray(actions) - 1  # indices to action values
        m = block.shape[1] if block.ndim == 2 else 0
        if (block.shape[:1] != (self.trials,) or not 0 < m <= self._end - t
                or np.abs(block).max() > 1):
            raise ValueError(f"need a ({self.trials}, m) block of action indices in 0..2 "
                             f"with 1 <= m <= {self._end - t}, got {block + 1}")
        if out is not None and out.shape != (self.trials, self._dim):
            raise ValueError(f"out has shape {out.shape}, want {(self.trials, self._dim)}")
        # diff is z_{t+1}: the step trades at price p_t and holds over z_{t+1}
        price, diff = self._prices[:, t:t + m], self._diffs[:, t:t + m]
        switch = block - np.concatenate([self.last_action[:, None], block[:, :-1]], axis=1)
        cost = phi * self.unit_cost(price) * abs(switch)
        reward = phi * diff * block - cost

        n = self._n
        self.t = t + m
        self.last_action = block[:, -1]
        self._done = self.t == self._end
        self._actions[:, n:n + m] = block
        self._rewards[:, n:n + m] = reward
        self._costs[:, n:n + m] = cost
        self._n = n + m
        return StepOutcome(
            reward=reward,
            next_state=None if out is None else self._observe(out),
            done=self._done,
            info={"price": price, "diff": diff, "cost_paid": cost},
        )

    def equity_curve(self, trial: int) -> list[EquityPoint]:
        """Trial index `trial`'s steps so far this episode, built at the
        time of the call.

        cum_return of step i is ``(fsum(rewards[:i]) + rewards[i]) / psi``,
        so the export costs O(steps^2) additions; training never calls it.
        """
        if trial is None or not 0 <= trial < self.trials:
            raise ValueError(f"equity_curve() takes a trial index in [0, {self.trials})")
        series, psi = self.series[trial], float(self.psi[trial])
        rewards = self._rewards[trial, :self._n].tolist()
        costs = self._costs[trial, :self._n].tolist()
        actions = self._actions[trial, :self._n].tolist()
        t0 = self.start_index
        return [EquityPoint(t=t0 + i, timestamp=series.timestamps[t0 + i],
                            action=actions[i], reward=r, cost=costs[i],
                            cum_return=(math.fsum(rewards[:i]) + r) / psi)
                for i, r in enumerate(rewards)]


def total_return(rewards: Sequence[float], psi: float) -> float:
    """Sum of per-step profits over the initial wealth."""
    if psi <= 0:
        raise ValueError("psi must be positive")
    return math.fsum(rewards) / psi


@dataclass
class EpisodeResult:
    """Replay record of one full pass over a series."""

    rewards: list[float]
    actions: list[int]
    psi: float
    equity: list[EquityPoint] = field(default_factory=list)

    @property
    def total_return(self) -> float:
        return total_return(self.rewards, self.psi)

    @property
    def trade_count(self) -> int:
        prev = 0  # every episode starts Neutral (action value 0)
        count = 0
        for a in self.actions:
            if a != prev:
                count += 1
            prev = a
        return count


def write_equity_csv(equity: Sequence[EquityPoint], path: str | Path) -> None:
    """Emit ``t,timestamp,action,reward,cost,cum_return`` rows atomically."""
    stamps = np.datetime_as_string(
        np.array([p.timestamp for p in equity], dtype="datetime64[s]"), unit="s")
    write_csv(path, ["t", "timestamp", "action", "reward", "cost", "cum_return"],
              ([p.t, stamp + "Z", p.action, repr(p.reward), repr(p.cost),
                repr(p.cum_return)] for p, stamp in zip(equity, stamps)))
