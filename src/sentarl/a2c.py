"""Advantage actor-critic learner over the trading environment.

Rollouts are collected n_steps at a time (the batch also flushes at episode
end, so batches never straddle episodes). Each flush performs one critic
step on the mean squared TD residual, with targets computed from the
pre-update critic, then one actor ascent step on the advantage-scaled
log-likelihood; advantages are constants during both steps.

Training is a pure function of (series, env config, agent config, seed):
one generator seeded per call drives weight init and action sampling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import AlignedSeries
from .env import Action, MarketState, TradingEnv, action_from_index, episode_return
from .nn import (ACTIVATIONS, ForwardCache, Mlp, RmspropState, apply_update,
                 backward, forward, log_softmax, softmax, softmax_sample)

OPTIMIZERS = ("sgd", "rmsprop")


@dataclass(frozen=True)
class A2cConfig:
    gamma: float = 0.99
    lr_actor: float = 7e-4
    lr_critic: float = 7e-4
    n_steps: int = 5
    episodes: int = 100
    entropy_coef: float = 0.0
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    max_grad_norm: float | None = None
    optimizer: str = "sgd"
    # The update rule follows the 1-step advantage formula; flag switches the
    # batch to n-step bootstrapped returns instead.
    use_n_step_returns: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.lr_actor <= 0 or self.lr_critic <= 0:
            raise ValueError("learning rates must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.entropy_coef < 0:
            raise ValueError("entropy_coef must be non-negative")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive when set")


@dataclass
class Transition:
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


def value_of(net: Mlp, state: np.ndarray) -> float:
    out, _ = forward(net, state)
    return float(out[0])


def advantage(transition: Transition, value_net: Mlp, gamma: float) -> float:
    """A = R + gamma * V(s') * [not done] - V(s); terminal bootstraps with 0.

    The per-sample reference for the batched flush, which gets the same
    quantity from one stacked forward (see _td_residuals).
    """
    bootstrap = 0.0 if transition.done else gamma * value_of(value_net, transition.next_state)
    return transition.reward + bootstrap - value_of(value_net, transition.state)


def _safe_log(probs: np.ndarray) -> np.ndarray:
    # p -> 0 contributes 0 to entropy terms; avoid log(0) from underflowed probs
    return np.log(np.where(probs > 0, probs, 1.0))


def _entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis (one value per row of a batch)."""
    return -np.sum(probs * _safe_log(probs), axis=-1)


def _targets(batch: Sequence[Transition], value_net: Mlp, config: A2cConfig,
             next_values: np.ndarray | None = None) -> np.ndarray:
    """TD targets from the pre-update critic; batch order is rollout order.

    next_values holds V(s') per transition when the caller has already run
    the critic on the next states; otherwise one forward computes them.
    """
    if next_values is None:
        next_values = forward(value_net, np.stack([t.next_state for t in batch]))[0][:, 0]
    rewards = np.array([t.reward for t in batch])
    if config.use_n_step_returns:
        last = batch[-1]
        ret = 0.0 if last.done else float(next_values[-1])
        targets = np.empty(len(batch))
        for i in reversed(range(len(batch))):
            ret = rewards[i] + config.gamma * ret
            targets[i] = ret
        return targets
    dones = np.array([t.done for t in batch])
    return rewards + np.where(dones, 0.0, config.gamma * next_values)


def _td_residuals(batch: Sequence[Transition], value_net: Mlp,
                  config: A2cConfig) -> tuple[np.ndarray, ForwardCache]:
    """target - V(s) per transition (the advantages), and the forward cache.

    One value forward runs over the stacked states and next states; cache
    rows [0, n) are the states.
    """
    n = len(batch)
    states = np.stack([t.state for t in batch] + [t.next_state for t in batch])
    values, cache = forward(value_net, states)
    return _targets(batch, value_net, config, values[n:, 0]) - values[:n, 0], cache


def critic_update(batch: Sequence[Transition], value_net: Mlp, config: A2cConfig,
                  optimizer_state: RmspropState | None = None) -> float:
    """One descent step on the mean squared TD residual; returns that loss."""
    if not batch:
        raise ValueError("empty batch")
    n = len(batch)
    residuals, cache = _td_residuals(batch, value_net, config)
    loss = float(np.mean(residuals * residuals))
    if not math.isfinite(loss):
        raise ValueError("non-finite critic loss")
    # ascent direction of -MSE: d(-L)/d(out) = 2 * residual / n; next-state
    # rows of the stacked forward carry no gradient
    out_grad = np.zeros((2 * n, 1))
    out_grad[:n, 0] = 2.0 * residuals / n
    apply_update(value_net, backward(value_net, cache, out_grad), config.lr_critic,
                 optimizer_state=optimizer_state, clip_norm=config.max_grad_norm)
    return loss


def actor_update(batch: Sequence[Transition], policy_net: Mlp,
                 advantages: Sequence[float], config: A2cConfig,
                 optimizer_state: RmspropState | None = None) -> float:
    """One ascent step on mean(A * ln pi) plus the entropy bonus.

    Advantages are constants here (no gradient flows through them).
    Returns the conventional actor loss -mean(A * ln pi) for logging.
    """
    if len(advantages) != len(batch):
        raise ValueError("need one advantage per transition")
    n = len(batch)
    adv = np.asarray(advantages, dtype=float)
    logits, cache = forward(policy_net, np.stack([t.state for t in batch]))
    probs = softmax(logits)
    rows = np.arange(n)
    taken = np.array([t.action_index for t in batch])
    loss = -float(adv @ log_softmax(logits)[rows, taken]) / n
    onehot = np.zeros_like(probs)
    onehot[rows, taken] = 1.0
    out_grad = adv[:, None] * (onehot - probs)
    if config.entropy_coef > 0:
        ent = _entropy(probs)[:, None]
        out_grad += config.entropy_coef * (-probs * (_safe_log(probs) + ent))
    apply_update(policy_net, backward(policy_net, cache, out_grad / n), config.lr_actor,
                 optimizer_state=optimizer_state, clip_norm=config.max_grad_norm)
    return loss


def act_sample(state: MarketState, policy_net: Mlp,
               rng: np.random.Generator) -> Action:
    logits, _ = forward(policy_net, state.to_vector())
    index, _, _ = softmax_sample(logits, rng)
    return action_from_index(index)


#: Greedy tie-break preference: Neutral, then Long, then Short.
_GREEDY_ORDER = (1, 2, 0)


def act_greedy(state: MarketState, policy_net: Mlp) -> Action:
    logits, _ = forward(policy_net, state.to_vector())
    probs = softmax(logits)
    best = float(np.max(probs))
    for index in _GREEDY_ORDER:
        if probs[index] == best:
            return action_from_index(index)
    raise AssertionError("unreachable: max must be attained")


def greedy_policy(policy_net: Mlp):
    return lambda state: act_greedy(state, policy_net)


@dataclass
class EpisodeLog:
    episode: int
    train_tr: float
    actor_loss: float
    critic_loss: float
    policy_entropy: float


@dataclass
class TrainedAgent:
    policy_net: Mlp
    value_net: Mlp
    log: list[EpisodeLog] = field(default_factory=list)


def _weighted_mean(pairs: list[tuple[float, int]]) -> float:
    total = sum(n for _, n in pairs)
    if total == 0:
        return 0.0
    return math.fsum(v * n for v, n in pairs) / total


def train(series: AlignedSeries, env_config, config: A2cConfig,
          policy_net: Mlp | None = None, value_net: Mlp | None = None) -> TrainedAgent:
    """Run `episodes` full passes over the series and return the nets + log.

    Nets may be supplied (e.g. ablation surgery or warm starts); otherwise
    they are created from the config seed. The same generator then drives
    action sampling, so results are bit-reproducible for fixed inputs.
    """
    env = TradingEnv(series, env_config)
    rng = np.random.default_rng(config.seed)
    dim = env_config.state_dim
    if policy_net is None:
        policy_net = Mlp.create((dim, *config.hidden_sizes, 3), rng, config.activation)
    if value_net is None:
        value_net = Mlp.create((dim, *config.hidden_sizes, 1), rng, config.activation)
    if policy_net.input_size != dim or value_net.input_size != dim:
        raise ValueError(f"net input size does not match state dimension {dim}")
    policy_opt = value_opt = None
    if config.optimizer == "rmsprop":
        policy_opt = RmspropState.create(policy_net)
        value_opt = RmspropState.create(value_net)

    log: list[EpisodeLog] = []
    for episode in range(config.episodes):
        state_vec = env.reset().to_vector()
        batch: list[Transition] = []
        rewards: list[float] = []
        entropies: list[float] = []
        actor_losses: list[tuple[float, int]] = []
        critic_losses: list[tuple[float, int]] = []
        done = False
        while not done:
            logits, _ = forward(policy_net, state_vec)
            index, log_prob, probs = softmax_sample(logits, rng)
            outcome = env.step(action_from_index(index))
            next_vec = outcome.next_state.to_vector()
            batch.append(Transition(state_vec, index, outcome.reward,
                                    next_vec, outcome.done, log_prob))
            rewards.append(outcome.reward)
            entropies.append(float(_entropy(probs)))
            state_vec = next_vec
            done = outcome.done
            if len(batch) == config.n_steps or done:
                advs, _ = _td_residuals(batch, value_net, config)
                c_loss = critic_update(batch, value_net, config, value_opt)
                a_loss = actor_update(batch, policy_net, advs, config, policy_opt)
                critic_losses.append((c_loss, len(batch)))
                actor_losses.append((a_loss, len(batch)))
                batch = []
        log.append(EpisodeLog(
            episode=episode,
            train_tr=episode_return(rewards) / env.psi,
            actor_loss=_weighted_mean(actor_losses),
            critic_loss=_weighted_mean(critic_losses),
            policy_entropy=float(np.mean(entropies)) if entropies else 0.0,
        ))
    return TrainedAgent(policy_net, value_net, log)


def write_training_log(log: Sequence[EpisodeLog], path: str | Path) -> None:
    """CSV: episode,train_tr,actor_loss,critic_loss,policy_entropy."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "train_tr", "actor_loss",
                         "critic_loss", "policy_entropy"])
        for row in log:
            writer.writerow([row.episode, repr(row.train_tr), repr(row.actor_loss),
                             repr(row.critic_loss), repr(row.policy_entropy)])
