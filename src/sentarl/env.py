"""Single-asset trading MDP with transaction costs.

The agent walks the hourly grid of an :class:`~sentarl.data.AlignedSeries`,
choosing Long/Neutral/Short each step. A step taken at grid index t with
action a_t pays ``phi * z_{t+1} * a_t`` minus the switching cost charged at
the decision price, so reward depends causally on the chosen action and
episode totals telescope to the classic per-instant return sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import EnvConfig
from .data import AlignedSeries
from .files import write_csv


def check_diff_stats(stats: Sequence[float] | None) -> tuple[float, float] | None:
    """One trial's optional (mean, std) z-scoring of its state diffs, as
    floats; a ValueError if it is not two finite numbers with std > 0."""
    if stats is None:
        return None
    values = tuple(map(float, stats))
    if len(values) != 2 or not all(map(math.isfinite, values)) or values[1] <= 0:
        raise ValueError("diff_stats must be two finite numbers (mean, std) "
                         f"with std > 0, got {stats!r}")
    return values


@dataclass
class StepOutcome:
    """One block's result: its (K, m) rewards, the trial axis then the
    block's step axis, and whether the episode ended."""

    reward: np.ndarray
    done: bool


def _rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as the read-only rows of one (K, n) array."""
    rows = np.stack(arrays)
    rows.flags.writeable = False
    return rows


class TradingEnv:
    """A lockstep stack of K trials over aligned series, on one clock.

    Given one series per trial, the config they share, one cost rate per
    trial and the sentiment switch, the env walks the trials the way a
    stack of nets in `nn` carries a leading trial axis: `step` takes a
    (K, m) block of action indices (0=Short, 1=Neutral, 2=Long), m ticks of
    every trial, and computes each trial's rewards and costs with the same
    arithmetic, so every trial gets the bits a stack of one would give it.
    `psi`, `last_action` and the episode record (`actions`, `rewards`,
    `costs`) carry the trial axis, and `observe` writes the observations
    as (K, r, d) blocks. The series must be of equal length;
    `diff_stats`, when given, holds each trial's optional (mean, std)
    scaling of its state diffs. A single trial is a stack of one;
    `tests/reference.py` holds its per-step reference. A new env stands at
    t0, as `reset` leaves it, and `done` reads the clock.

    A single instance is not thread-safe (it owns a mutable clock), but
    instances over the same immutable series are independent.
    """

    def __init__(self, series: Sequence[AlignedSeries], config: EnvConfig,
                 tc_rates: Sequence[float], use_sentiment: bool,
                 diff_stats: Sequence[Sequence[float] | None] | None = None):
        series = tuple(series)
        tc = np.array(tc_rates, dtype=float)
        stats = ([None] * len(series) if diff_stats is None
                 else [check_diff_stats(s) for s in diff_stats])
        if not series or tc.shape != (len(series),) or len(stats) != len(series):
            raise ValueError("need one series per trial, and one env config per trial: "
                             "its tc rate, and its diff_stats entry when given")
        if (tc < 0).any():
            raise ValueError("tc_rates must be non-negative")
        if len({len(s) for s in series}) != 1:
            raise ValueError("lockstep trials need series of equal length")
        if len(series[0]) < config.min_length:
            raise ValueError(
                f"series of length {len(series[0])} too short for windows; "
                f"need at least {config.min_length} points")
        self.series = series
        self.trials = len(series)
        # Start where every configured window is full. The sentiment clock is
        # honored even with use_sentiment off so ablation runs stay aligned.
        self.start_index = max(config.w, config.l - 1)
        w, l, self._phi = config.w, config.l, config.phi
        self.dim = config.state_dim(use_sentiment)
        self._proportional = config.cost_mode == "proportional"
        # Each channel holds one row per trial; its diff_stats scale its state diffs.
        self._prices = _rows([s.prices for s in series])
        self._diffs = _rows([s.diffs for s in series])
        state_diffs = [s.diffs if st is None else (s.diffs - st[0]) / st[1]
                       for s, st in zip(series, stats)]
        # Observation windows, in state-vector order: read-only sliding views,
        # newest value first, of which row t - lag is grid index t's window
        # (diffs[j] is z at grid index j + 1). No window is copied up front.
        self._end = len(series[0]) - 1
        channels = [(state_diffs, w, w), ([s.hours for s in series], w, w - 1)]
        if use_sentiment:
            channels.insert(0, ([s.sentiment for s in series], l, l - 1))
        self._windows = [(np.lib.stride_tricks.sliding_window_view(
            _rows(arrays), size, axis=-1)[..., ::-1], lag) for arrays, size, lag in channels]
        self.psi = np.array([config.phi * float(s.prices[0]) for s in series])
        # a column, so that the cost rates broadcast over a block of steps
        self._tc = tc[:, None]
        self.reset()

    def reset(self) -> None:
        """Rewind to t0 with a flat position and an empty episode record."""
        self.t = self.start_index
        self.last_action = np.zeros(self.trials, dtype=np.int64)
        # The episode record: what TR, trade counts and equity files are read from.
        self._n = 0
        self._actions = np.empty((self.trials, self.steps), dtype=np.int64)
        self._rewards = np.empty((self.trials, self.steps))
        self._costs = np.empty((self.trials, self.steps))

    @property
    def steps(self) -> int:
        """Steps in one episode."""
        return self._end - self.start_index

    def observe(self, out: np.ndarray) -> np.ndarray:
        """The observations of the next r clock ticks (t, t + 1, ...), each
        with the current last action, written into the (K, r, d) array `out`
        and returned. A flush of m steps reads its m + 1 rows this way."""
        rows = out.shape[1] if out.ndim == 3 else 0
        if out.shape != (self.trials, rows, self.dim) or not 0 < rows <= self._end - self.t + 1:
            raise ValueError(f"out has shape {out.shape}, want (K, r, {self.dim}) with "
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
        return self.t == self._end

    @property
    def rewards(self) -> np.ndarray:
        """The current episode's (K, steps so far) rewards."""
        return self._rewards[:, :self._n]

    @property
    def actions(self) -> np.ndarray:
        """The current episode's action values so far, shaped like `rewards`."""
        return self._actions[:, :self._n]

    @property
    def costs(self) -> np.ndarray:
        """The switching costs paid so far, shaped like `rewards`."""
        return self._costs[:, :self._n]

    @property
    def trade_counts(self) -> np.ndarray:
        """Each trial's position changes so far; every episode starts
        Neutral."""
        return np.count_nonzero(np.diff(self.actions, axis=1, prepend=0), axis=1)

    def unit_cost(self, price: np.ndarray) -> np.ndarray:
        if self._proportional:
            return self._tc * price
        return self._tc

    def step(self, actions: np.ndarray) -> StepOutcome:
        """Trade at the clock price, realize the next price difference.

        Takes a (K, m) block of integer action indices that steps m ticks
        in one pass. A block is checked whole before the clock moves.
        """
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        t, phi = self.t, self._phi
        actions = np.asarray(actions)
        m = actions.shape[1] if actions.ndim == 2 else 0
        if (actions.dtype.kind not in "iu" or actions.shape[:1] != (self.trials,)
                or not 0 < m <= self._end - t or actions.min() < 0 or actions.max() > 2):
            raise ValueError(f"need a ({self.trials}, m) block of integer action indices "
                             f"in 0..2 with 1 <= m <= {self._end - t}, got {actions}")
        block = actions.astype(np.int64) - 1  # indices to action values
        # diff is z_{t+1}: the step trades at price p_t and holds over z_{t+1}
        price, diff = self._prices[:, t:t + m], self._diffs[:, t:t + m]
        switch = block - np.concatenate([self.last_action[:, None], block[:, :-1]], axis=1)
        cost = phi * self.unit_cost(price) * abs(switch)
        reward = phi * diff * block - cost

        n = self._n
        self.t = t + m
        self.last_action = block[:, -1]
        self._actions[:, n:n + m] = block
        self._rewards[:, n:n + m] = reward
        self._costs[:, n:n + m] = cost
        self._n = n + m
        return StepOutcome(reward=reward, done=self.done)


def total_return(rewards: Sequence[float], psi: float) -> float:
    """Sum of per-step profits over the initial wealth."""
    if psi <= 0:
        raise ValueError("psi must be positive")
    return math.fsum(rewards) / psi


def write_equity_csv(env: TradingEnv, trial: int, path: str | Path) -> None:
    """Emit trial `trial`'s episode so far as ``t,timestamp,action,reward,
    cost,cum_return`` rows, atomically.

    cum_return of step i is ``(fsum(rewards[:i]) + rewards[i]) / psi``, so
    a file costs O(steps^2) additions; training never writes one.
    """
    rewards, psi, t0 = env.rewards[trial].tolist(), float(env.psi[trial]), env.start_index
    stamps = np.datetime_as_string(
        env.series[trial].timestamps[t0:t0 + len(rewards)], unit="s", timezone="UTC")
    write_csv(path, ["t", "timestamp", "action", "reward", "cost", "cum_return"],
              ([t0 + i, stamp, action, repr(r), repr(cost),
                repr((math.fsum(rewards[:i]) + r) / psi)]
               for i, (stamp, action, r, cost) in enumerate(zip(
                   stamps, env.actions[trial].tolist(), rewards, env.costs[trial].tolist()))))
