"""Advantage actor-critic learner over the trading environment.

Rollouts are collected n_steps at a time (the batch also flushes at episode
end, so batches never straddle episodes). Each flush performs one critic
step on the mean squared TD residual, with targets computed from the
pre-update critic, then one actor ascent step on the advantage-scaled
log-likelihood; advantages are constants during both steps.

Training is a pure function of (series, env config, cost rate, sentiment
switch, agent config, seed): one generator seeded per trial drives weight
init and action sampling. The trials of a stacked env (equal-length series,
say the train slices of several windows, each with its own cost rate) train
in lockstep under one agent config, each from its own seed: their nets are
stacked on the env's leading trial axis, they share the env clock, and
every rollout array carries that axis too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import A2cConfig
from .env import TradingEnv, total_return
from .files import write_csv
from .nn import (ForwardCache, Gradients, Mlp, RmspropState, apply_update,
                 backward, forward, log_softmax, softmax, softmax_draw)


def _safe_log(probs: np.ndarray) -> np.ndarray:
    # p -> 0 contributes 0 to entropy terms; avoid log(0) from underflowed probs
    return np.log(np.where(probs > 0, probs, 1.0))


def _entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis (one value per row of a batch)."""
    return -np.sum(probs * _safe_log(probs), axis=-1)


@dataclass
class Batch:
    """One flush of rollout rows as arrays, any trial axis leading.

    `states` is the value forward's input: rows [0, n) are the states and
    the last n rows the next states (2n rows, or n + 1 from a rollout).
    `actions` and `rewards` hold one entry per step, `dones` one flag per
    step (the trials share the clock). critic_update records
    its TD residuals in `advantages`: they are the actor's advantages, from
    the same forward as the critic's gradient. A rollout's `policy_forward`
    holds the policy's logits and forward cache of the n states.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    advantages: np.ndarray | None = None
    policy_forward: tuple[np.ndarray, ForwardCache] | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.rewards).all():
            raise ValueError("reward must be finite")

    def __len__(self) -> int:
        return self.rewards.shape[-1]


def _targets(batch: Batch, config: A2cConfig, next_values: np.ndarray) -> np.ndarray:
    """TD targets from the pre-update critic's V(s') per transition,
    `next_values`; batch order is rollout order."""
    rewards = batch.rewards
    if config.use_n_step_returns:
        ret = 0.0 if batch.dones[-1] else next_values[..., -1]
        targets = np.empty(rewards.shape)
        for i in reversed(range(len(batch))):
            ret = rewards[..., i] + config.gamma * ret
            targets[..., i] = ret
        return targets
    return rewards + np.where(batch.dones, 0.0, config.gamma * next_values)


def critic_update(batch: Batch, value_net: Mlp, config: A2cConfig,
                  optimizer_state: RmspropState | None = None) -> float | np.ndarray:
    """One descent step on the mean squared TD residual; returns that loss
    (per trial for lockstep trials). The batch gets the residuals of the
    pre-update critic as its advantages.

    One value forward runs over the batch's distinct states and next
    states; cache rows [0, n) are the states.
    """
    n = len(batch)
    values, cache = forward(value_net, batch.states)
    residuals = _targets(batch, config, values[..., -n:, 0]) - values[..., :n, 0]
    batch.advantages = residuals
    loss = np.mean(residuals * residuals, axis=-1)
    if not np.isfinite(loss).all():
        raise ValueError("non-finite critic loss")
    # ascent direction of -MSE: d(-L)/d(out) = 2 * residual / n, back through
    # the state rows only (the next states carry no gradient)
    states = ForwardCache(cache.layer_sizes, [h[..., :n, :] for h in cache.inputs])
    grads = backward(value_net, states, (2.0 * residuals / n)[..., None], out=value_net.grad)
    apply_update(value_net, grads, config.lr_critic,
                 optimizer_state=optimizer_state, clip_norm=config.max_grad_norm)
    return loss


def actor_update(batch: Batch, policy_net: Mlp, config: A2cConfig,
                 optimizer_state: RmspropState | None = None) -> float | np.ndarray:
    """One ascent step on mean(A * ln pi) plus the entropy bonus.

    The advantages are the batch's, which critic_update wrote; they are
    constants here (no gradient flows through them). The policy forward is
    the batch's `policy_forward`, which the rollout wrote. Returns the
    conventional actor loss -mean(A * ln pi) for logging. A batch missing
    either is a ValueError.
    """
    if batch.policy_forward is None:
        raise ValueError("batch.policy_forward is unset: the rollout fills it")
    if batch.advantages is None:
        raise ValueError("batch.advantages is unset: critic_update fills it")
    n = len(batch)
    adv = batch.advantages
    logits, cache = batch.policy_forward
    probs = softmax(logits)
    taken = batch.actions
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
    return loss


#: Greedy tie-break preference: Neutral, then Long, then Short. An argmax
#: over the probabilities taken in this order picks the first best one.
_GREEDY_ORDER = np.array([1, 2, 0])


def greedy_episodes(env: TradingEnv, policy: Mlp) -> None:
    """Run a stacked env to its end, trial k acting greedily under net k of
    the stack `policy`; ties break Neutral, then Long, then Short. The env's
    record then holds each trial's episode, with the bits of its own stack
    of one and of the per-step greedy reference run in `tests/reference.py`.
    Each tick observes one row per trial, and steps a (K, 1) block."""
    env.reset()
    obs = np.empty((env.trials, 1, env.dim))
    for _ in range(env.steps):
        probs = softmax(forward(policy, env.observe(obs))[0])
        env.step(_GREEDY_ORDER[np.argmax(probs[..., _GREEDY_ORDER], axis=-1)])


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
    """Mean of per-flush values weighted by flush length; an episode has at
    least one step, so the weights never sum to 0."""
    return math.fsum(v * n for v, n in pairs) / sum(n for _, n in pairs)


def _rollout(env: TradingEnv, policy: Mlp, uniforms: np.ndarray,
             states: np.ndarray) -> tuple[Batch, np.ndarray]:
    """Step a stacked env through a flush of m steps, one per column of the
    (K, m) uniforms, writing its m + 1 observations into `states`.

    Only the last action in a state is endogenous, and the policy is fixed
    within a flush: one forward over the m states, each with each previous
    action, gives a (K, m, 3, 3) logits table, and step j draws from row
    (j, previous action) by softmax_draw's rule. The env takes the m
    actions as one block. Returns the flush's Batch, its policy_forward the
    taken table rows, and those rows' probabilities.
    """
    trials, m = uniforms.shape
    obs = env.observe(states[:, :m + 1])
    candidates = np.repeat(obs[:, :m, None], 3, axis=2)
    candidates[..., -1] = (-1.0, 0.0, 1.0)  # the previous actions, in index order
    logits, cache = forward(policy, candidates.reshape(trials, 3 * m, -1))
    draws, probs = softmax_draw(logits.reshape(trials, m, 3, 3), uniforms[..., None])
    # each trial's previous action index, then its m draws, one lookup each
    chain = [[prev] for prev in (env.last_action + 1).tolist()]
    for path, table in zip(chain, draws.tolist()):
        for row in table:
            path.append(row[path[-1]])
    chain = np.array(chain)
    actions = chain[:, 1:]
    env.step(actions)
    obs[:, 1:, -1] = actions - 1
    # the taken (step, previous action) rows of the table
    picked = (np.arange(trials)[:, None], np.arange(m), chain[:, :-1])
    dones = np.zeros(m, dtype=bool)
    dones[-1] = env.done
    taken = ForwardCache(cache.layer_sizes, [h.reshape(trials, m, 3, -1)[picked]
                                             for h in cache.inputs])
    return (Batch(obs, actions, env.rewards[:, -m:], dones,
                  policy_forward=(logits.reshape(trials, m, 3, 3)[picked], taken)),
            probs[picked])


def train(env: TradingEnv, config: A2cConfig, seeds: Sequence[int],
          policy_net: Mlp | None = None, value_net: Mlp | None = None) -> list[TrainedAgent]:
    """Train one agent per trial of the stacked env in lockstep, trial k
    from seeds[k], and return one TrainedAgent per trial; a single trial is
    a stack of one.

    The trials share the env clock and their nets are stacked, so each
    forward, backward and update serves all of them. Every trial keeps its
    own generator and row counts, so it comes out bit-identical to its own
    stack of one.

    Stacked nets may be supplied (e.g. ablation surgery or warm starts) and
    are trained in place; otherwise the seeds create them, and the same
    generators drive action sampling.
    """
    trials, dim = env.trials, env.dim
    if len(seeds) != trials:
        raise ValueError(f"need one seed per env trial, got {len(seeds)} for {trials}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    policy = (Mlp.create((dim, *config.hidden_sizes, 3), rngs, config.activation)
              if policy_net is None else policy_net)
    value = (Mlp.create((dim, *config.hidden_sizes, 1), rngs, config.activation)
             if value_net is None else value_net)
    if policy.input_size != dim or value.input_size != dim:
        raise ValueError(f"net input size does not match state dimension {dim}")
    if (policy.trials, value.trials) != (trials, trials):
        raise ValueError("nets must be stacked once per lockstep trial")
    for net in (policy, value):
        net.grad = Gradients.zeros_like(net)
    policy_opt = value_opt = None
    if config.optimizer == "rmsprop":
        policy_opt = RmspropState.create(policy)
        value_opt = RmspropState.create(value)

    # one row per trial: a flush of m steps reads its m + 1 observations here
    n_steps = config.n_steps
    states = np.empty((trials, n_steps + 1, dim))
    entropies = np.empty((trials, env.steps))
    psi = env.psi.tolist()
    logs: list[list[EpisodeLog]] = [[] for _ in range(trials)]
    for episode in range(config.episodes):
        env.reset()
        actor_losses: list[tuple[np.ndarray, int]] = []
        critic_losses: list[tuple[np.ndarray, int]] = []
        for t in range(0, env.steps, n_steps):
            m = min(n_steps, env.steps - t)
            # each generator's variates for the flush, drawn in one call:
            # the numbers one call per step would give
            batch, probs = _rollout(env, policy, np.stack([g.random(m) for g in rngs]),
                                    states)
            entropies[:, t:t + m] = _entropy(probs)
            critic_losses.append((critic_update(batch, value, config, value_opt), m))
            actor_losses.append((actor_update(batch, policy, config, policy_opt), m))
        # each trial's entropies are one contiguous row, so each mean sums
        # in the same order
        entropy = entropies.mean(axis=-1)
        for k in range(trials):
            logs[k].append(EpisodeLog(
                episode=episode,
                train_tr=total_return(env.rewards[k].tolist(), psi[k]),
                actor_loss=_weighted_mean([(loss[k], n) for loss, n in actor_losses]),
                critic_loss=_weighted_mean([(loss[k], n) for loss, n in critic_losses]),
                policy_entropy=float(entropy[k]),
            ))
    return [TrainedAgent(policy.trial(k), value.trial(k), log)
            for k, log in enumerate(logs)]


def write_training_log(log: Sequence[EpisodeLog], path: str | Path) -> None:
    """CSV, written atomically: episode,train_tr,actor_loss,critic_loss,policy_entropy."""
    write_csv(path, ["episode", "train_tr", "actor_loss", "critic_loss", "policy_entropy"],
              ([row.episode, repr(row.train_tr), repr(row.actor_loss),
                repr(row.critic_loss), repr(row.policy_entropy)] for row in log))
