"""Advantage actor-critic learner over the trading environment.

Rollouts are collected n_steps at a time (the batch also flushes at episode
end, so batches never straddle episodes). Each flush performs one critic
step on the mean squared TD residual, with targets computed from the
pre-update critic, then one actor ascent step on the advantage-scaled
log-likelihood; advantages are constants during both steps.

Training is a pure function of (series, env config, agent config, seed):
one generator seeded per trial drives weight init and action sampling.
Trials over one series that differ only in seed and cost rate can train in
lockstep: their nets are stacked on a leading trial axis, they share the
env clock, and every rollout array below carries that axis too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import AlignedSeries
from .env import Action, MarketState, TradingEnv, action_from_index, episode_return
from .nn import (ACTIVATIONS, ForwardCache, Gradients, Mlp, RmspropState,
                 apply_update, backward, forward, log_softmax, softmax, softmax_sample)

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
    """One step of one trial, or of K lockstep trials with a leading K axis
    on every field but `done` (the trials share the env clock)."""

    state: np.ndarray               # flattened MarketState
    action_index: int | np.ndarray  # 0=Short, 1=Neutral, 2=Long
    reward: float | np.ndarray
    next_state: np.ndarray          # observation after the step; bootstrap gated by done
    done: bool
    log_prob: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.logical_and.reduce(np.isfinite(self.reward), axis=None):
            raise ValueError("reward must be finite")
        if np.maximum.reduce(self.log_prob, axis=None) > 1e-12:
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


def _rows(batch: Sequence[Transition], field_name: str) -> np.ndarray:
    """One field of every transition as rows after any trial axis: states
    as (..., n, d), the scalar fields as (..., n)."""
    rows = np.array([getattr(t, field_name) for t in batch])
    return np.ascontiguousarray(rows.swapaxes(0, -2 if field_name.endswith("state") else -1))


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A float for a single trial, the (K,) array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _targets(batch: Sequence[Transition], value_net: Mlp, config: A2cConfig,
             next_values: np.ndarray | None = None) -> np.ndarray:
    """TD targets from the pre-update critic; batch order is rollout order.

    next_values holds V(s') per transition when the caller has already run
    the critic on the next states; otherwise one forward computes them.
    """
    if next_values is None:
        next_values = forward(value_net, _rows(batch, "next_state"))[0][..., 0]
    rewards = _rows(batch, "reward")
    if config.use_n_step_returns:
        ret = 0.0 if batch[-1].done else next_values[..., -1]
        targets = np.empty(rewards.shape)
        for i in reversed(range(len(batch))):
            ret = rewards[..., i] + config.gamma * ret
            targets[..., i] = ret
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
    states = np.concatenate([_rows(batch, "state"), _rows(batch, "next_state")], axis=-2)
    values, cache = forward(value_net, states)
    return (_targets(batch, value_net, config, values[..., n:, 0])
            - values[..., :n, 0]), cache


def critic_update(batch: Sequence[Transition], value_net: Mlp, config: A2cConfig,
                  optimizer_state: RmspropState | None = None) -> float | np.ndarray:
    """One descent step on the mean squared TD residual; returns that loss
    (per trial for lockstep trials)."""
    if not batch:
        raise ValueError("empty batch")
    n = len(batch)
    residuals, cache = _td_residuals(batch, value_net, config)
    loss = np.mean(residuals * residuals, axis=-1)
    if not np.isfinite(loss).all():
        raise ValueError("non-finite critic loss")
    # ascent direction of -MSE: d(-L)/d(out) = 2 * residual / n; next-state
    # rows of the stacked forward carry no gradient
    out_grad = np.zeros((*residuals.shape[:-1], 2 * n, 1))
    out_grad[..., :n, 0] = 2.0 * residuals / n
    grads = backward(value_net, cache, out_grad, out=value_net.grad)
    apply_update(value_net, grads, config.lr_critic,
                 optimizer_state=optimizer_state, clip_norm=config.max_grad_norm)
    return _scalar(loss)


def actor_update(batch: Sequence[Transition], policy_net: Mlp,
                 advantages: Sequence[float] | np.ndarray, config: A2cConfig,
                 optimizer_state: RmspropState | None = None) -> float | np.ndarray:
    """One ascent step on mean(A * ln pi) plus the entropy bonus.

    Advantages are constants here (no gradient flows through them).
    Returns the conventional actor loss -mean(A * ln pi) for logging.
    """
    adv = np.asarray(advantages, dtype=float)
    if adv.shape[-1:] != (len(batch),):
        raise ValueError("need one advantage per transition")
    n = len(batch)
    logits, cache = forward(policy_net, _rows(batch, "state"))
    probs = softmax(logits)
    taken = _rows(batch, "action_index")
    onehot = taken[..., None] == np.arange(probs.shape[-1])
    log_taken = log_softmax(logits)[onehot].reshape(*taken.shape, 1)
    loss = -(adv[..., None, :] @ log_taken)[..., 0, 0] / n
    out_grad = adv[..., None] * (onehot - probs)
    if config.entropy_coef > 0:
        ent = _entropy(probs)[..., None]
        out_grad += config.entropy_coef * (-probs * (_safe_log(probs) + ent))
    grads = backward(policy_net, cache, out_grad / n, out=policy_net.grad)
    apply_update(policy_net, grads, config.lr_actor,
                 optimizer_state=optimizer_state, clip_norm=config.max_grad_norm)
    return _scalar(loss)


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


def train(series: AlignedSeries, env_config, config,
          policy_net: Mlp | None = None, value_net: Mlp | None = None):
    """Run `episodes` full passes over the series and return the nets + log.

    Nets may be supplied (e.g. ablation surgery or warm starts); otherwise
    they are created from the config seed. The same generator then drives
    action sampling, so results are bit-reproducible for fixed inputs.

    Given equal-length sequences of env configs and agent configs instead,
    it trains one trial per pair in lockstep and returns a list with one
    TrainedAgent per trial. The pairs may differ only in tc_rate and seed.
    The trials share the env clock; their nets are stacked, so each
    forward, backward and update serves all of them. Every trial keeps its
    own generator and its own row counts, so it comes out bit-identical to
    its own single call.
    """
    group = not isinstance(config, A2cConfig)
    env_configs = list(env_config) if group else [env_config]
    configs = list(config) if group else [config]
    if not configs or len(env_configs) != len(configs):
        raise ValueError("need one env config per agent config")
    base, env_base = configs[0], env_configs[0]
    if any(replace(c, seed=base.seed) != base for c in configs) or any(
            replace(e, tc_rate=env_base.tc_rate) != env_base for e in env_configs):
        raise ValueError("lockstep trials may differ only in seed and tc_rate")
    envs = [TradingEnv(series, c) for c in env_configs]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    sampler = rngs if group else rngs[0]
    dim = env_base.state_dim
    if policy_net is None:
        policy_net = Mlp.create((dim, *base.hidden_sizes, 3), sampler, base.activation)
    if value_net is None:
        value_net = Mlp.create((dim, *base.hidden_sizes, 1), sampler, base.activation)
    if policy_net.input_size != dim or value_net.input_size != dim:
        raise ValueError(f"net input size does not match state dimension {dim}")
    trials = len(configs) if group else None
    if policy_net.trials != trials or value_net.trials != trials:
        raise ValueError("nets must be stacked once per lockstep trial")
    for net in (policy_net, value_net):
        net.grad = Gradients.zeros_like(net)
    policy_opt = value_opt = None
    if base.optimizer == "rmsprop":
        policy_opt = RmspropState.create(policy_net)
        value_opt = RmspropState.create(value_net)

    def join(values: list) -> np.ndarray:
        return np.array(values) if group else values[0]

    steps = envs[0].steps
    logs: list[list[EpisodeLog]] = [[] for _ in envs]
    for episode in range(base.episodes):
        state = join([env.reset().to_vector() for env in envs])
        batch: list[Transition] = []
        batch_probs: list[np.ndarray] = []
        # one column per trial
        rewards = np.empty((steps, len(envs)))
        entropies = np.empty((steps, len(envs)))
        actor_losses: list[tuple[np.ndarray, int]] = []
        critic_losses: list[tuple[np.ndarray, int]] = []
        t = 0
        done = False
        while not done:
            logits, _ = forward(policy_net, state)
            index, log_prob, probs = softmax_sample(logits, sampler)
            outcomes = [env.step(action_from_index(i))
                        for env, i in zip(envs, index.tolist() if group else [index])]
            next_state = join([o.next_state.to_vector() for o in outcomes])
            reward = join([o.reward for o in outcomes])
            done = outcomes[0].done
            batch.append(Transition(state, index, reward, next_state, done, log_prob))
            batch_probs.append(probs)
            rewards[t] = reward
            t += 1
            state = next_state
            if len(batch) == base.n_steps or done:
                entropies[t - len(batch):t] = _entropy(np.array(batch_probs)).reshape(
                    len(batch), -1)
                advs, _ = _td_residuals(batch, value_net, base)
                c_loss = critic_update(batch, value_net, base, value_opt)
                a_loss = actor_update(batch, policy_net, advs, base, policy_opt)
                critic_losses.append((np.reshape(c_loss, -1), len(batch)))
                actor_losses.append((np.reshape(a_loss, -1), len(batch)))
                batch, batch_probs = [], []
        # one contiguous row per trial, so each mean sums in the same order
        entropy = np.ascontiguousarray(entropies.T).mean(axis=-1)
        for k, env in enumerate(envs):
            logs[k].append(EpisodeLog(
                episode=episode,
                train_tr=episode_return(rewards[:, k].tolist()) / env.psi,
                actor_loss=_weighted_mean([(loss[k], n) for loss, n in actor_losses]),
                critic_loss=_weighted_mean([(loss[k], n) for loss, n in critic_losses]),
                policy_entropy=float(entropy[k]),
            ))
    if not group:
        return TrainedAgent(policy_net, value_net, logs[0])
    return [TrainedAgent(policy_net.trial(k), value_net.trial(k), log)
            for k, log in enumerate(logs)]


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
