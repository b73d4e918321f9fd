"""Learner math: advantages, critic/actor steps, rollout batching, determinism."""

import numpy as np
import pytest

from conftest import random_walk_series, rel_err
from sentarl import a2c
from reference import (Action, MarketState, Transition, act_greedy, act_sample, advantage,
                       backward_any, batch_of, copy_net, forward_row, greedy_policy,
                       train_one, value_of, with_grad)
from sentarl.a2c import (A2cConfig, TrainedAgent, _targets, actor_update, critic_update,
                         write_training_log)
from sentarl.env import EnvConfig
from sentarl.nn import (Gradients, Mlp, RmspropState, apply_update, forward, log_softmax,
                        softmax)


def value_net_identity():
    """V(x) = x for 1-d states."""
    return with_grad(Mlp((1, 1), [np.array([[1.0]])], [np.array([0.0])]))


def value_net_zero():
    return with_grad(Mlp((1, 1), [np.array([[0.0]])], [np.array([0.0])]))


def policy_net_with_bias(bias, input_size=1):
    return with_grad(Mlp((input_size, 3), [np.zeros((input_size, 3))],
                         [np.asarray(bias, dtype=float)]))


def transition(state, reward, next_state, done=False, action_index=1):
    return Transition(np.array([float(state)]), action_index, reward,
                      np.array([float(next_state)]), done, log_prob=-1.0)


def flat_state(dim_minus_one=4):
    half = dim_minus_one // 2
    return MarketState(np.zeros(half), np.zeros(half), None, Action.NEUTRAL)


def test_advantage_basic():
    net = value_net_identity()
    t = transition(state=0.5, reward=1.0, next_state=0.0)
    assert advantage(t, net, gamma=0.99) == pytest.approx(0.5)


def test_advantage_terminal_ignores_next_state():
    net = value_net_identity()
    t = transition(state=0.5, reward=1.0, next_state=7.0, done=True)
    assert advantage(t, net, gamma=0.99) == pytest.approx(0.5)


def test_advantage_bellman_consistent_is_zero():
    net = value_net_identity()
    t = transition(state=1.0 + 0.99 * 2.0, reward=1.0, next_state=2.0)
    assert advantage(t, net, gamma=0.99) == 0.0


def test_transition_validation():
    with pytest.raises(ValueError, match="finite"):
        transition(0.0, float("nan"), 0.0)
    with pytest.raises(ValueError, match="log_prob"):
        Transition(np.zeros(1), 0, 0.0, np.zeros(1), False, log_prob=0.5)


def test_critic_fixed_point_when_residuals_vanish():
    # constant V == constant target when rewards are 0 and gamma is 1
    net = with_grad(Mlp((1, 1), [np.array([[0.0]])], [np.array([0.3])]))
    batch = [transition(s, 0.0, s + 1) for s in (0.0, 1.0, 2.0)]
    cfg = A2cConfig(gamma=1.0)
    loss = critic_update(batch_of(batch), net, cfg)
    assert loss == 0.0
    assert net.weights[0][0, 0] == 0.0
    assert net.biases[0][0] == 0.3


def test_critic_step_moves_toward_target():
    net = value_net_zero()
    batch = [transition(1.0, 1.0, 0.0, done=True)]
    cfg = A2cConfig(lr_critic=0.1)
    loss = critic_update(batch_of(batch), net, cfg)
    assert loss == pytest.approx(1.0)
    # residual 2/n through the linear net: w and b each move by lr * 2
    assert net.weights[0][0, 0] == pytest.approx(0.2)
    assert net.biases[0][0] == pytest.approx(0.2)
    assert value_of(net, np.array([1.0])) == pytest.approx(0.4)
    assert critic_update(batch_of(batch), net, cfg) < loss


def test_critic_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        critic_update(batch_of([]), value_net_zero(), A2cConfig())


def test_critic_loss_nonnegative():
    rng = np.random.default_rng(0)
    net = with_grad(Mlp.create([1, 4, 1], rng))
    batch = [transition(rng.normal(), rng.normal(), rng.normal(),
                        done=bool(rng.integers(2))) for _ in range(8)]
    assert critic_update(batch_of(batch), net, A2cConfig()) >= 0.0


def targets(transitions, net, cfg):
    """_targets with V(s') from one forward of `net` over the next states."""
    batch = batch_of(transitions)
    return _targets(batch, cfg, forward(net, batch.states[len(batch):])[0][:, 0])


def test_n_step_targets():
    net = Mlp((1, 1), [np.array([[0.0]])], [np.array([4.0])])  # V == 4
    batch = [transition(0.0, 1.0, 0.0), transition(0.0, 2.0, 0.0)]
    cfg = A2cConfig(gamma=0.5, use_n_step_returns=True)
    assert targets(batch, net, cfg).tolist() == [3.0, 4.0]
    # terminal tail drops the bootstrap
    batch[-1].done = True
    assert targets(batch, net, cfg).tolist() == [2.0, 2.0]


def test_actor_zero_advantage_fixed_point():
    net = policy_net_with_bias([0.2, -0.1, 0.4])
    before = copy_net(net)
    batch = [transition(1.0, 0.0, 1.0, action_index=2)]
    loss = actor_update(batch_of(batch), net, [0.0], A2cConfig())
    assert loss == 0.0
    assert np.array_equal(net.weights[0], before.weights[0])
    assert np.array_equal(net.biases[0], before.biases[0])


def test_actor_step_follows_advantage_sign():
    batch = [transition(1.0, 0.0, 1.0, action_index=2)]
    for adv, compare in ((1.0, np.greater), (-1.0, np.less)):
        net = policy_net_with_bias([0.0, 0.0, 0.0])
        actor_update(batch_of(batch), net, [adv], A2cConfig(lr_actor=0.05))
        logits, _ = forward_row(net, np.array([1.0]))
        assert compare(softmax(logits)[2], 1 / 3)


def test_actor_logged_loss_value():
    net = policy_net_with_bias([0.0, 0.0, 0.0])
    batch = [transition(1.0, 0.0, 1.0, action_index=2)]
    loss = actor_update(batch_of(batch), net, [2.0], A2cConfig())
    assert loss == pytest.approx(2.0 * np.log(3.0))


def test_actor_advantage_length_check():
    net = policy_net_with_bias([0.0, 0.0, 0.0])
    batch = [transition(1.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="advantage"):
        actor_update(batch_of(batch), net, [1.0, 2.0], A2cConfig())


def test_entropy_bonus_flattens_policy():
    net = policy_net_with_bias([2.0, 0.0, 0.0])
    def entropy():
        probs = softmax(forward_row(net, np.array([1.0]))[0])
        return -float(np.sum(probs * np.log(probs)))
    before = entropy()
    batch = [transition(1.0, 0.0, 1.0, action_index=0)]
    actor_update(batch_of(batch), net, [0.0], A2cConfig(entropy_coef=0.5, lr_actor=0.5))
    assert entropy() > before


# ------------------------------------------- batched flush vs per-sample oracle


def oracle_critic_update(batch, net, cfg, opt=None):
    """The per-sample critic step: one forward and one backward per row."""
    n = len(batch)
    if cfg.use_n_step_returns:
        ret = 0.0 if batch[-1].done else value_of(net, batch[-1].next_state)
        targets = [0.0] * n
        for i in reversed(range(n)):
            ret = batch[i].reward + cfg.gamma * ret
            targets[i] = ret
        residuals = [tg - value_of(net, t.state) for tg, t in zip(targets, batch)]
    else:
        residuals = [advantage(t, net, cfg.gamma) for t in batch]
    grads = Gradients.zeros_like(net)
    for res, t in zip(residuals, batch):
        _, cache = forward_row(net, t.state)
        grads.flat += backward_any(net, cache, np.array([2.0 * res / n])).flat
    apply_update(net, grads, cfg.lr_critic, optimizer_state=opt,
                 clip_norm=cfg.max_grad_norm)
    return sum(r * r for r in residuals) / n, residuals


def oracle_actor_update(batch, net, advs, cfg, opt=None):
    """The per-sample actor step, entropy bonus included."""
    n = len(batch)
    grads = Gradients.zeros_like(net)
    loss = 0.0
    for adv, t in zip(advs, batch):
        logits, cache = forward_row(net, t.state)
        probs, logp = softmax(logits), log_softmax(logits)
        loss -= adv * logp[t.action_index] / n
        out_grad = -adv * probs
        out_grad[t.action_index] += adv
        if cfg.entropy_coef > 0:
            ent = -float(np.sum(probs * np.log(probs)))
            out_grad += cfg.entropy_coef * (-probs * (np.log(probs) + ent))
        grads.flat += backward_any(net, cache, out_grad / n).flat
    apply_update(net, grads, cfg.lr_actor, optimizer_state=opt,
                 clip_norm=cfg.max_grad_norm)
    return loss


def random_batch(rng, n, dim, done_last):
    return [Transition(rng.normal(size=dim), int(rng.integers(3)),
                       float(rng.normal()), rng.normal(size=dim),
                       done_last and i == n - 1, log_prob=-1.0)
            for i in range(n)]


def params(net):
    return [*net.weights, *net.biases]


@pytest.mark.parametrize("n_step", [False, True])
@pytest.mark.parametrize("done_last", [False, True])
@pytest.mark.parametrize("entropy_coef", [0.0, 0.3])
@pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
def test_batched_flush_matches_per_sample_oracle(n_step, done_last, entropy_coef,
                                                 optimizer):
    rng = np.random.default_rng(40)
    dim = 6
    cfg = A2cConfig(gamma=0.9, lr_actor=0.05, lr_critic=0.05, entropy_coef=entropy_coef,
                    optimizer=optimizer, use_n_step_returns=n_step)
    value = with_grad(Mlp.create((dim, 8, 8, 1), rng))
    policy = with_grad(Mlp.create((dim, 8, 8, 3), rng))
    value_ref, policy_ref = copy_net(value), copy_net(policy)
    opts = [RmspropState.create(net) if optimizer == "rmsprop" else None
            for net in (value, policy, value_ref, policy_ref)]
    for n in (5, 5, 3):  # successive flushes, so optimizer state carries over
        batch = random_batch(rng, n, dim, done_last)
        before = params(copy_net(value)) + params(copy_net(policy))
        advs, _ = a2c._td_residuals(batch_of(batch), value, cfg)
        c_loss = critic_update(batch_of(batch), value, cfg, opts[0])
        a_loss = actor_update(batch_of(batch), policy, advs, cfg, opts[1])
        ref_c_loss, ref_advs = oracle_critic_update(batch, value_ref, cfg, opts[2])
        ref_a_loss = oracle_actor_update(batch, policy_ref, ref_advs, cfg, opts[3])
        assert rel_err([advs], [ref_advs]) <= 1e-12
        assert rel_err([c_loss, a_loss], [ref_c_loss, ref_a_loss]) <= 1e-12
        steps = [a - b for a, b in zip(params(value) + params(policy), before)]
        ref_steps = [a - b for a, b in
                     zip(params(value_ref) + params(policy_ref), before)]
        assert rel_err(steps, ref_steps) <= 1e-12


def test_act_greedy_tie_break_and_argmax():
    state = flat_state()
    uniform = policy_net_with_bias([0.0, 0.0, 0.0], input_size=5)
    assert act_greedy(state, uniform) is Action.NEUTRAL
    long_biased = policy_net_with_bias([0.0, 0.0, 1.0], input_size=5)
    assert act_greedy(state, long_biased) is Action.LONG
    short_biased = policy_net_with_bias([1.0, 0.0, 0.0], input_size=5)
    assert act_greedy(state, short_biased) is Action.SHORT
    assert greedy_policy(long_biased)(state) is Action.LONG


def test_act_sample_frequencies():
    state = flat_state()
    probs = np.array([0.2, 0.5, 0.3])
    net = policy_net_with_bias(np.log(probs), input_size=5)
    rng = np.random.default_rng(3)
    n = 30_000
    counts = {a: 0 for a in Action}
    for _ in range(n):
        counts[act_sample(state, net, rng)] += 1
    for action, p in zip((Action.SHORT, Action.NEUTRAL, Action.LONG), probs):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[action] - n * p) <= 3 * sigma


def test_config_validation():
    bad = [dict(gamma=1.5), dict(lr_actor=0.0), dict(lr_critic=-1.0),
           dict(n_steps=0), dict(episodes=0), dict(entropy_coef=-0.1),
           dict(hidden_sizes=(0,)), dict(activation="gelu"),
           dict(optimizer="adam"), dict(max_grad_norm=0.0)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            A2cConfig(**kwargs)
    with pytest.raises(ValueError):
        train_one(*small_setup(), seed=-1)


def small_setup(n=20, episodes=2):
    series = random_walk_series(n, seed=7)
    env_config = EnvConfig(w=3, l=2)
    config = A2cConfig(episodes=episodes, hidden_sizes=(4,))
    return series, env_config, config


def test_train_is_deterministic():
    series, env_config, config = small_setup()
    a = train_one(series, env_config, config)
    b = train_one(series, env_config, config)
    assert [vars(x) for x in a.log] == [vars(y) for y in b.log]
    assert all(np.array_equal(w1, w2) for w1, w2 in
               zip(a.policy_net.weights, b.policy_net.weights))
    assert all(np.array_equal(w1, w2) for w1, w2 in
               zip(a.value_net.weights, b.value_net.weights))


def test_train_seed_changes_outcome():
    series, env_config, config = small_setup()
    a = train_one(series, env_config, config)
    b = train_one(series, env_config, config, seed=1)
    assert any(not np.array_equal(w1, w2) for w1, w2 in
               zip(a.policy_net.weights, b.policy_net.weights))


def test_train_log_structure():
    series, env_config, config = small_setup(episodes=3)
    agent = train_one(series, env_config, config)
    assert isinstance(agent, TrainedAgent)
    assert [e.episode for e in agent.log] == [0, 1, 2]
    for entry in agent.log:
        assert 0.0 <= entry.policy_entropy <= np.log(3.0) + 1e-9
        assert np.isfinite(entry.train_tr)


def test_train_update_batching(monkeypatch):
    # 50 points, w=20, l=5: decisions at 20..48, so 29 steps per episode
    series = random_walk_series(50, seed=9)
    env_config = EnvConfig(w=20, l=5)
    config = A2cConfig(episodes=1, n_steps=5, hidden_sizes=(4,))
    sizes = []
    real = a2c.critic_update

    def counting(batch, value_net, cfg, optimizer_state=None):
        sizes.append(len(batch))
        return real(batch, value_net, cfg, optimizer_state)

    monkeypatch.setattr(a2c, "critic_update", counting)
    train_one(series, env_config, config)
    assert sizes == [5, 5, 5, 5, 5, 4]  # ceil(29 / 5) flushes, tail short


def test_train_accepts_prebuilt_nets():
    series, env_config, config = small_setup()
    dim = env_config.state_dim(use_sentiment=True)
    rng = np.random.default_rng(5)
    policy = Mlp.create((dim, 4, 3), rng)
    value = Mlp.create((dim, 4, 1), rng)
    agent = train_one(series, env_config, config, policy_net=policy, value_net=value)
    assert agent.policy_net is policy  # trained in place
    wrong = Mlp.create((dim + 1, 4, 3), rng)
    with pytest.raises(ValueError, match="input size"):
        train_one(series, env_config, config, policy_net=wrong, value_net=value)


def test_train_entropy_stays_high_with_bonus():
    series, env_config, _ = small_setup()
    config = A2cConfig(episodes=5, hidden_sizes=(4,), entropy_coef=1.0)
    agent = train_one(series, env_config, config)
    assert agent.log[-1].policy_entropy > 0.9


def test_train_rmsprop_runs():
    series, env_config, _ = small_setup()
    config = A2cConfig(episodes=1, hidden_sizes=(4,), optimizer="rmsprop",
                       max_grad_norm=1.0)
    agent = train_one(series, env_config, config)
    assert len(agent.log) == 1


def test_write_training_log(tmp_path):
    series, env_config, config = small_setup()
    agent = train_one(series, env_config, config)
    path = tmp_path / "log.csv"
    write_training_log(agent.log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,train_tr,actor_loss,critic_loss,policy_entropy"
    assert len(lines) == 1 + len(agent.log)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == agent.log[0].train_tr
