"""Per-trial reference implementations, kept as test oracles.

The library runs every trial through a `TradingEnv` stack and every learner
flush through a `Batch`. The code here is the per-trial, per-step path
those replaced: a single-trial env whose observations are `MarketState`
objects and whose arithmetic is plain Python floats, the per-sample
advantage and action choices, and one-draw sampling. The parity tests
check the stacked library against it bit for bit.

The ingest section is the record form of the columnar loaders: one frozen
record and one datetime per row, grouped and aligned through dicts keyed
by hour. The ingest parity tests check the column chain against it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from sentarl.a2c import Batch, TrainedAgent, train
from sentarl.config import A2cConfig, EnvConfig
from sentarl.data import (EPOCH, NEWS_HEADER, PRICE_HEADER, SECOND, AlignedSeries,
                          parse_timestamp)
from sentarl.files import read_rows, write_csv
from sentarl.env import TradingEnv, total_return
from sentarl.nn import (ForwardCache, Gradients, Mlp, _pack, backward, forward, log_softmax,
                        softmax, softmax_draw)
from sentarl.sentiment import CorrelationPulse, lexicon_score

# ---------------------------------------------------------------- env


class Action(enum.IntEnum):
    """A position by its action value. The library's env takes action
    indices (value + 1) and records values."""

    SHORT = -1
    NEUTRAL = 0
    LONG = 1


#: Network output index order; index = action value + 1.
ACTIONS = (Action.SHORT, Action.NEUTRAL, Action.LONG)


def action_from_index(index: int) -> Action:
    return ACTIONS[index]


def action_index(action: Action | int) -> int:
    return int(action) + 1


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
    """One TrialEnv step: the reward as a float, the next observation, and
    the step's price, price difference and cost paid in `info`."""

    reward: float
    next_state: MarketState
    done: bool
    info: dict


@dataclass
class EquityPoint:
    """One row of an equity file, as one object per step."""

    t: int
    timestamp: np.datetime64
    action: int
    reward: float
    cost: float
    cum_return: float


def write_equity_points(equity: Sequence[EquityPoint], path: str | Path) -> None:
    """The equity file of a list of points: the per-row form of
    `sentarl.env.write_equity_csv`."""
    stamps = np.datetime_as_string(
        np.array([p.timestamp for p in equity], dtype="datetime64[s]"), unit="s")
    write_csv(path, ["t", "timestamp", "action", "reward", "cost", "cum_return"],
              ([p.t, stamp + "Z", p.action, repr(p.reward), repr(p.cost),
                repr(p.cum_return)] for p, stamp in zip(equity, stamps)))


class TrialEnv:
    """Episode walker over one aligned series, one trial, one step a call.

    The trial's cost rate, sentiment switch and optional (mean, std)
    diff scaling are arguments, as they are per trial in a TradingEnv
    stack. `step` takes an Action (or its value) and returns the reward as
    a float and the next observation as a MarketState.
    """

    def __init__(self, series: AlignedSeries, config: EnvConfig, tc_rate: float = 0.0,
                 use_sentiment: bool = True, diff_stats: Sequence[float] | None = None):
        min_len = max(config.w + 1, config.l) + 2
        if len(series) < min_len:
            raise ValueError(f"series of length {len(series)} too short for windows; "
                             f"need at least {min_len} points")
        self.series, self.config = series, config
        self.tc_rate, self.use_sentiment = tc_rate, use_sentiment
        self.start_index = max(config.w, config.l - 1)
        self._end = len(series) - 1
        self._phi = config.phi
        self._proportional = config.cost_mode == "proportional"
        diffs = (series.diffs if diff_stats is None
                 else (series.diffs - diff_stats[0]) / diff_stats[1])
        # (read-only sliding view, newest first, lag): row t - lag is t's window
        channels = [(diffs, config.w, config.w), (series.hours, config.w, config.w - 1)]
        if use_sentiment:
            channels.insert(0, (series.sentiment, config.l, config.l - 1))
        self._windows = [(np.lib.stride_tricks.sliding_window_view(values, size)[:, ::-1], lag)
                         for values, size, lag in channels]
        self.psi = config.phi * float(series.prices[0])
        self.t = self.start_index
        self.last_action = Action.NEUTRAL
        self.cash = self.psi
        self._done = False
        self._started = False
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
        return self._end - self.start_index

    def _observe(self) -> MarketState:
        windows = [window[self.t - lag] for window, lag in self._windows]
        sent_win = windows.pop(0) if self.use_sentiment else None
        return MarketState(*windows, sent_win, self.last_action)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def rewards(self) -> np.ndarray:
        return self._rewards[:self._n]

    @property
    def actions(self) -> np.ndarray:
        return self._actions[:self._n]

    @property
    def wealth(self) -> float:
        price = float(self.series.prices[self.t])
        return self.cash + self.last_action * self._phi * price

    def unit_cost(self, price: float) -> float:
        if self._proportional:
            return self.tc_rate * price
        return self.tc_rate

    def step(self, action: Action | int) -> StepOutcome:
        if not self._started:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        action = action if isinstance(action, Action) else Action(int(action))
        phi = self._phi
        # diff is z_{t+1}: the step trades at price p_t and holds over z_{t+1}
        price, diff = float(self.series.prices[self.t]), float(self.series.diffs[self.t])
        switch = action - self.last_action
        cost = phi * self.unit_cost(price) * abs(switch)
        flow = switch * phi * price + cost
        self.cash -= flow
        reward = phi * diff * action - cost
        self._actions[self._n] = action
        self._rewards[self._n] = reward
        self._costs[self._n] = cost
        self._n += 1
        self.t += 1
        self.last_action = action
        self._done = self.t == self._end
        return StepOutcome(reward=reward, next_state=self._observe(), done=self._done,
                           info={"price": price, "diff": diff, "cost_paid": cost})

    def equity_curve(self) -> list[EquityPoint]:
        """The episode's steps so far; cum_return of step i is
        ``(fsum(rewards[:i]) + rewards[i]) / psi``."""
        rewards, costs = self.rewards.tolist(), self._costs[:self._n].tolist()
        actions = self.actions.tolist()
        t0 = self.start_index
        return [EquityPoint(t=t0 + i, timestamp=self.series.timestamps[t0 + i],
                            action=actions[i], reward=r, cost=costs[i],
                            cum_return=(math.fsum(rewards[:i]) + r) / self.psi)
                for i, r in enumerate(rewards)]


def step_one(env: TradingEnv, actions: Sequence[int] | np.ndarray):
    """One tick of a TradingEnv stack: the (K, 1) block of the K action
    indices, with the block's step axis dropped from the outcome."""
    outcome = env.step(np.asarray(actions)[:, None])
    outcome.reward = outcome.reward[:, 0]
    return outcome


def observe_row(env: TradingEnv) -> np.ndarray:
    """A TradingEnv stack's observation at its clock, one (K, d) row per
    trial, read through `observe`."""
    return env.observe(np.empty((env.trials, 1, env.dim)))[:, 0]


def stack_cash(env: TradingEnv) -> np.ndarray:
    """Each trial's cash in a TradingEnv stack, by double-entry accounting.

    Cash starts at psi, and every step's flow (the position switch bought
    at the clock price, plus its cost) is subtracted in turn, left to
    right, from the recorded actions, prices and costs. Tracking cash this
    way rather than by accumulating rewards keeps the identity ``cash +
    marked-to-market position == psi + sum(rewards)`` a real cross-check
    (`stack_wealth`) instead of a tautology.
    """
    actions = env.actions
    n = actions.shape[1]
    prices = env._prices[:, env.start_index:env.start_index + n]
    switch = np.diff(actions, axis=1, prepend=0)  # every episode starts Neutral
    flow = switch * env._phi * prices + env.costs
    cash = env.psi.copy()
    for j in range(n):
        cash -= flow[:, j]
    return cash


def stack_wealth(env: TradingEnv) -> np.ndarray:
    """A TradingEnv stack's cash plus each trial's position marked at the
    clock's price."""
    return stack_cash(env) + env.last_action * env._phi * env._prices[:, env.t]


Policy = Callable[[MarketState], Action]


def baseline_policy(kind: str, seed: int | None = None) -> Policy:
    """Deterministic (or seeded-random) reference policies.

    Kinds: ``buy-and-hold`` (Long every step; run it with tc_rate 0 since
    holding has no transactions), ``always-neutral``, and ``random``.
    """
    if kind == "buy-and-hold":
        return lambda state: Action.LONG
    if kind == "always-neutral":
        return lambda state: Action.NEUTRAL
    if kind == "random":
        rng = np.random.default_rng(seed)
        return lambda state: ACTIONS[int(rng.integers(0, 3))]
    raise ValueError(f"unknown baseline policy {kind!r}")


def episode_return(rewards: Sequence[float]) -> float:
    """Compensated sum of step rewards (0 for an empty episode)."""
    return math.fsum(rewards)


@dataclass
class ReplayResult:
    """Replay record of one full pass over a series: a trial's episode as
    lists, with one EquityPoint per step."""

    rewards: list[float]
    actions: list[int]
    psi: float
    equity: list[EquityPoint] = field(default_factory=list)

    @property
    def total_return(self) -> float:
        return total_return(self.rewards, self.psi)

    @property
    def total_reward(self) -> float:
        return episode_return(self.rewards)

    @property
    def trade_count(self) -> int:
        prev = 0  # every episode starts Neutral (action value 0)
        count = 0
        for a in self.actions:
            if a != prev:
                count += 1
            prev = a
        return count


def run_policy(env: TrialEnv, policy: Policy) -> ReplayResult:
    """Reset the environment and drive it to the end with the policy."""
    state = env.reset()
    while not env.done:
        state = env.step(policy(state)).next_state
    return ReplayResult(env.rewards.tolist(), env.actions.tolist(), env.psi,
                        env.equity_curve())


# ---------------------------------------------------------------- learner


@dataclass
class Transition:
    """One step of one trial."""

    state: np.ndarray        # flattened MarketState
    action_index: int        # 0=Short, 1=Neutral, 2=Long
    reward: float
    next_state: np.ndarray   # observation after the step; bootstrap gated by done
    done: bool
    log_prob: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.reward):
            raise ValueError("reward must be finite")
        if self.log_prob > 1e-12:
            raise ValueError("log_prob must be <= 0")


def batch_of(transitions: Sequence[Transition], policy: Mlp | None = None,
             advantages: Sequence[float] | None = None) -> Batch:
    """A list of transitions as one Batch: the n states, then the n next
    states, as its 2n state rows. `policy` and `advantages` fill the rest of
    the flush record that `actor_update` reads, as the rollout and
    `critic_update` do: the policy's forward over the n states, and one
    advantage per transition."""
    if not transitions:
        raise ValueError("empty batch")

    def rows(name: str) -> np.ndarray:
        return np.array([getattr(t, name) for t in transitions])

    batch = Batch(np.concatenate([rows("state"), rows("next_state")]),
                  rows("action_index"), rows("reward"), rows("done"))
    if policy is not None:
        batch.policy_forward = forward(policy, batch.states[:len(batch)])
    if advantages is not None:
        batch.advantages = np.array(advantages, dtype=float)
    return batch


def forward_row(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """`forward` on one input row, or on one row per trial of a stack: the
    one-row batch, with the row axis dropped from the output."""
    out, cache = forward(net, np.asarray(x, dtype=float)[..., None, :])
    return out[..., 0, :], cache


def backward_any(net: Mlp, cache: ForwardCache, output_grad: np.ndarray,
                 out: Gradients | None = None) -> Gradients:
    """`backward` into `out`, or into a new buffer without it. An
    output_grad one axis short of the cache's rows is one row's (per
    trial), for the cache of a `forward_row`."""
    delta = np.asarray(output_grad, dtype=float)
    if delta.ndim < cache.inputs[0].ndim:
        delta = delta[..., None, :]
    if out is None:
        out = Gradients(np.empty_like(net.flat), net.layer_sizes)
    return backward(net, cache, delta, out=out)


def with_grad(net: Mlp) -> Mlp:
    """`net` given the gradient buffer that `critic_update` and
    `actor_update` write into, as `train` gives its nets."""
    net.grad = Gradients.zeros_like(net)
    return net


def value_of(net: Mlp, state: np.ndarray) -> float:
    out, _ = forward_row(net, state)
    return float(out[0])


def advantage(transition: Transition, value_net: Mlp, gamma: float) -> float:
    """A = R + gamma * V(s') * [not done] - V(s); terminal bootstraps with 0."""
    bootstrap = 0.0 if transition.done else gamma * value_of(value_net, transition.next_state)
    return transition.reward + bootstrap - value_of(value_net, transition.state)


def softmax_sample(logits: np.ndarray,
                   rng: np.random.Generator | Sequence[np.random.Generator] | np.ndarray):
    """Draw an index from softmax(logits) via one uniform variate.

    Returns (index, log-probability of that index, full distribution). Given
    (K, m) logits, row k draws from generator k of a sequence of K, or takes
    variate k of a (K,) array of uniforms already drawn from them.
    """
    single = isinstance(rng, np.random.Generator)
    u = (rng.random() if single else rng if isinstance(rng, np.ndarray)
         else np.array([g.random() for g in rng]))
    index, probs = softmax_draw(logits, u)
    log_prob = np.take_along_axis(log_softmax(logits), index[..., None], axis=-1)[..., 0]
    if single:
        return int(index), float(log_prob), probs
    return index, log_prob, probs


def act_sample(state: MarketState, policy_net: Mlp, rng: np.random.Generator) -> Action:
    logits, _ = forward_row(policy_net, state.to_vector())
    index, _, _ = softmax_sample(logits, rng)
    return action_from_index(index)


#: Greedy tie-break preference: Neutral, then Long, then Short.
_GREEDY_ORDER = np.array([1, 2, 0])


def act_greedy(state: MarketState, policy_net: Mlp) -> Action:
    probs = softmax(forward_row(policy_net, state.to_vector())[0])
    return action_from_index(_GREEDY_ORDER[np.argmax(probs[_GREEDY_ORDER])])


def greedy_policy(policy_net: Mlp) -> Policy:
    return lambda state: act_greedy(state, policy_net)


def gradients_of(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> Gradients:
    """Gradients holding a copy of the given weight and bias partials."""
    sizes = (np.shape(weights[0])[-2], *(np.shape(w)[-1] for w in weights))
    return Gradients(_pack(weights, biases), sizes)


def copy_net(net: Mlp) -> Mlp:
    """A single net with its own copy of `net`'s parameters."""
    return Mlp(net.layer_sizes, net.weights, net.biases, net.activation)


def train_one(series: AlignedSeries, env_config: EnvConfig, config: A2cConfig,
              seed: int = 0, tc_rate: float = 0.0, use_sentiment: bool = True,
              policy_net: Mlp | None = None, value_net: Mlp | None = None) -> TrainedAgent:
    """`train` for one trial, as a stack of one. Single nets, when given,
    are trained in place through stacks of one viewing them."""
    policy, value = (None if net is None else Mlp.over(net.flat[None], net.layer_sizes,
                                                       net.activation)
                     for net in (policy_net, value_net))
    env = TradingEnv([series], env_config, [tc_rate], use_sentiment)
    (agent,) = train(env, config, [seed], policy, value)
    return TrainedAgent(agent.policy_net if policy_net is None else policy_net,
                        agent.value_net if value_net is None else value_net, agent.log)


# ---------------------------------------------------------------- sentiment


def pulse_peak(pulse: CorrelationPulse) -> tuple[int, float]:
    """(shift, value) of the pulse's largest defined correlation."""
    defined = [(s, c) for s, c in zip(pulse.shifts, pulse.correlations) if c is not None]
    if not defined:
        raise ValueError("pulse has no defined correlations")
    return max(defined, key=lambda sc: sc[1])


def sentiment_window(series: AlignedSeries, t: int, l: int) -> np.ndarray:
    """Look-back window [e_t, ..., e_{t-l+1}], newest first (0-based t)."""
    if l < 1:
        raise ValueError("window size must be >= 1")
    if t - l + 1 < 0 or t >= len(series):
        raise ValueError(f"insufficient history for window of {l} ending at index {t}")
    return series.sentiment[t - l + 1: t + 1][::-1].copy()


def group_hourly(scores: Iterable[float], method: str = "min") -> float:
    """Collapse one hour's scores with the chosen aggregate."""
    values = [float(s) for s in scores]
    if not values:
        raise ValueError("empty score set; apply the fill policy instead")
    if method == "min":
        return min(values)
    if method == "max":
        return max(values)
    return sum(values) / len(values)


def fill_gaps(
    grouped: Sequence[float | None],
    policy: str = "neutral-zero",
) -> list[float]:
    """Replace missing (None) hours: neutral-zero writes 0.0, forward-fill
    repeats the last observed value (0.0 before any); observed hours are
    untouched."""
    out: list[float] = []
    last = 0.0
    for value in grouped:
        if value is not None:
            last = float(value)
            out.append(last)
        else:
            out.append(last if policy == "forward-fill" else 0.0)
    return out


# ---------------------------------------------------------------- ingest

HOUR = timedelta(hours=1)


@dataclass(frozen=True)
class PriceRecord:
    """One hourly close, timestamp truncated to the hour (UTC)."""

    timestamp: datetime
    close: float


@dataclass(frozen=True)
class HeadlineRecord:
    """One news headline with an optional precomputed sentiment score."""

    timestamp: datetime
    headline: str
    score: float | None = None


def compute_diffs(prices: Sequence[float] | np.ndarray) -> np.ndarray:
    """Consecutive price differences: element t is ``prices[t+1] - prices[t]``."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 prices to compute differences")
    return np.diff(arr)


def truncate_to_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def epoch_seconds(stamps: Iterable[datetime]) -> np.ndarray:
    """Whole seconds since the Unix epoch (floored) as int64; naive
    datetimes are taken as UTC."""
    return np.fromiter(
        (((ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)) - EPOCH) // SECOND
         for ts in stamps), dtype=np.int64)


def hour_stamp(hour: int) -> datetime:
    """The UTC datetime that starts epoch hour `hour`."""
    return EPOCH + HOUR * hour


def load_price_records(path: str | Path) -> list[PriceRecord]:
    """The rows of a valid price CSV, one record each (no checks)."""
    return [PriceRecord(truncate_to_hour(parse_timestamp(stamp)), float(close))
            for _, (stamp, close) in read_rows(path, PRICE_HEADER)]


def load_headline_records(path: str | Path) -> list[HeadlineRecord]:
    """The rows of a valid headline CSV, one record each (no checks)."""
    return [HeadlineRecord(parse_timestamp(stamp), headline,
                           float(score) if score.strip() else None)
            for _, (stamp, headline, score) in read_rows(path, NEWS_HEADER)]


def score_records(records: Sequence[HeadlineRecord],
                  lexicon: dict[str, float]) -> list[tuple[datetime, float]]:
    """Resolve each record to (timestamp, score); precomputed scores win."""
    return [(rec.timestamp, rec.score if rec.score is not None
             else lexicon_score(rec.headline, lexicon))
            for rec in records]


def group_records(scored: Iterable[tuple[datetime, float]],
                  method: str = "min") -> list[tuple[datetime, float]]:
    """Bucket (timestamp, score) pairs by their UTC hour, in input order,
    and aggregate each bucket; the buckets come back in time order."""
    buckets: dict[datetime, list[float]] = {}
    for when, value in scored:
        buckets.setdefault(truncate_to_hour(when), []).append(value)
    return [(hour, group_hourly(buckets[hour], method)) for hour in sorted(buckets)]


def align_records(prices: Sequence[PriceRecord], grouped: Sequence[tuple[datetime, float]],
                  asset: str = "", fill: str = "neutral-zero"
                  ) -> AlignedSeries:
    """The price grid with each grouped value on its hour's row (the later
    of two wins; off-grid hours are dropped), gaps filled by the policy."""
    row_of = {p.timestamp: i for i, p in enumerate(prices)}
    observed: list[float | None] = [None] * len(prices)
    for when, value in grouped:
        row = row_of.get(truncate_to_hour(when))
        if row is not None:
            observed[row] = value
    close = np.array([p.close for p in prices], dtype=np.float64)
    ts = epoch_seconds(p.timestamp for p in prices).astype("datetime64[s]")
    return AlignedSeries(asset=asset, timestamps=ts, prices=close,
                         sentiment=fill_gaps(observed, fill),
                         has_news=[value is not None for value in observed])
