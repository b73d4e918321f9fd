"""Lockstep training: K stacked trials, each bit-identical to its own run."""

import dataclasses
import logging

import numpy as np
import pytest

from conftest import random_walk_series
from sentarl import a2c, evaluation
from sentarl.a2c import A2cConfig, greedy_policy, train
from sentarl.env import EnvConfig, TradingEnv, run_policy
from sentarl.errors import NonFiniteGradientError
from sentarl.evaluation import TrialKey, WindowSpec, result_row, run_matrix
from sentarl.nn import (ACTIVATIONS, Gradients, Mlp, RmspropState, apply_update,
                        backward, forward, softmax_sample)

# ------------------------------------------------ stacked nn primitives


def stack_and_singles(k, sizes=(6, 8, 5, 3), activation="tanh"):
    stack = Mlp.create(sizes, [np.random.default_rng(s) for s in range(k)], activation)
    singles = [Mlp.create(sizes, np.random.default_rng(s), activation) for s in range(k)]
    return stack, singles


def test_stack_holds_the_single_nets():
    stack, singles = stack_and_singles(3)
    assert stack.trials == 3 and singles[0].trials is None
    assert stack.weights[0].shape == (3, 6, 8) and stack.biases[2].shape == (3, 3)
    for k, net in enumerate(singles):
        assert np.array_equal(stack.flat[k], net.flat)
        assert np.array_equal(stack.trial(k).flat, net.flat)
        assert np.array_equal(Mlp.stack(singles).flat[k], net.flat)
    # weights and biases are views into the one flat buffer
    stack.weights[1][2, 0, 0] = 5.0
    stack.biases[0][1, 3] = -2.0
    assert np.count_nonzero(stack.flat == 5.0) == 1 and stack.flat[2].max() == 5.0
    assert stack.flat[1].min() == -2.0
    with pytest.raises(ValueError, match="stack"):
        Mlp.stack([singles[0], Mlp.create((6, 4, 3), np.random.default_rng(0))])


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("rows", [None, 1, 4, 5, 10])
def test_stacked_forward_backward_bit_identical_per_trial(activation, rows):
    stack, singles = stack_and_singles(4, activation=activation)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6) if rows is None else (4, rows, 6))
    out, cache = forward(stack, x)
    assert out.shape == x.shape[:-1] + (3,)
    output_grad = rng.normal(size=out.shape)
    grads = backward(stack, cache, output_grad)
    for k, net in enumerate(singles):
        single_out, single_cache = forward(net, x[k])
        assert np.array_equal(out[k], single_out)
        assert np.array_equal(grads.flat[k], backward(net, single_cache, output_grad[k]).flat)
    # a reused output buffer gets the same bits
    reused = Gradients.zeros_like(stack)
    assert backward(stack, cache, output_grad, out=reused) is reused
    assert np.array_equal(reused.flat, grads.flat)
    with pytest.raises(ValueError, match="out"):
        backward(stack, cache, output_grad, out=Gradients.zeros_like(singles[0]))
    with pytest.raises(ValueError, match="shape"):
        forward(stack, x[:3])


@pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
def test_stacked_update_clips_each_trial_by_its_own_norm(optimizer):
    stack, singles = stack_and_singles(3)
    states = [RmspropState.create(net) if optimizer == "rmsprop" else None
              for net in (stack, *singles)]
    rng = np.random.default_rng(4)
    for _ in range(3):  # successive steps, so optimizer state carries over
        flat = rng.normal(size=stack.flat.shape) * np.array([[0.01], [10.0], [1.0]])
        norms = apply_update(stack, Gradients(*stack_views(flat, stack)), 0.1,
                             states[0], clip_norm=2.0)
        assert norms[0] < 2.0 < norms[1]  # one trial is clipped, one is not
        for k, net in enumerate(singles):
            grads = Gradients(*stack_views(flat[k], net))
            assert apply_update(net, grads, 0.1, states[k + 1], clip_norm=2.0) == norms[k]
            assert np.array_equal(stack.flat[k], net.flat)


def stack_views(flat, net):
    """Weight and bias arrays laid out like net's, read from a flat buffer."""
    grads = Gradients.zeros_like(net)
    grads.flat[...] = flat
    return grads.weights, grads.biases


def test_stacked_update_rejects_a_non_finite_trial_untouched():
    stack, _ = stack_and_singles(3)
    before = stack.flat.copy()
    grads = Gradients.zeros_like(stack)
    grads.biases[1][2, 0] = np.nan
    with pytest.raises(NonFiniteGradientError):
        apply_update(stack, grads, 0.1)
    assert np.array_equal(stack.flat, before)


def test_stacked_softmax_sample_matches_each_row():
    logits = np.random.default_rng(2).normal(size=(5, 3)) * 3.0
    stacked_rngs = [np.random.default_rng(s) for s in range(5)]
    single_rngs = [np.random.default_rng(s) for s in range(5)]
    for _ in range(200):
        index, log_prob, probs = softmax_sample(logits, stacked_rngs)
        for k in range(5):
            i, lp, p = softmax_sample(logits[k], single_rngs[k])
            assert (index[k], log_prob[k]) == (i, lp)
            assert np.array_equal(probs[k], p)


# ------------------------------------------------ lockstep train() vs single runs


CASES = {
    "sgd": {},
    "n-step": dict(use_n_step_returns=True),
    "rmsprop": dict(optimizer="rmsprop"),
    "entropy": dict(entropy_coef=0.2),
    "clipped": dict(max_grad_norm=0.01),
    "combined": dict(use_n_step_returns=True, optimizer="rmsprop", entropy_coef=0.2,
                     max_grad_norm=0.01, n_steps=4),
}


@pytest.mark.parametrize("use_sentiment", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_lockstep_training_is_bit_identical_to_single_runs(case, use_sentiment,
                                                          monkeypatch):
    series = random_walk_series(102, seed=5)
    train_slice, test_slice = series.slice(0, 72), series.slice(72, 102)
    base = A2cConfig(**{"episodes": 2, "hidden_sizes": (8, 6), **CASES[case]})
    trials = [(0, 0.0), (1, 0.0025), (2, 0.01)]  # mixed seeds and cost rates
    env_cfgs = [EnvConfig(w=4, l=3, tc_rate=tc, use_sentiment=use_sentiment)
                for _, tc in trials]
    cfgs = [dataclasses.replace(base, seed=seed) for seed, _ in trials]

    norms = []
    real = a2c.apply_update

    def recording(net, grads, lr, optimizer_state=None, clip_norm=None):
        norm = real(net, grads, lr, optimizer_state, clip_norm)
        norms.append(float(np.max(norm)))
        return norm

    monkeypatch.setattr(a2c, "apply_update", recording)
    grouped = train(train_slice, env_cfgs, cfgs)
    if base.max_grad_norm is not None:
        assert max(norms) > base.max_grad_norm  # clipping fired
    assert len(grouped) == 3
    for env_cfg, cfg, agent in zip(env_cfgs, cfgs, grouped):
        alone = train(train_slice, env_cfg, cfg)
        assert np.array_equal(agent.policy_net.flat, alone.policy_net.flat)
        assert np.array_equal(agent.value_net.flat, alone.value_net.flat)
        assert [vars(e) for e in agent.log] == [vars(e) for e in alone.log]
        test_trs = [run_policy(TradingEnv(test_slice, env_cfg),
                               greedy_policy(a.policy_net)).total_return
                    for a in (agent, alone)]
        assert test_trs[0] == test_trs[1]


def test_lockstep_group_of_one_matches_the_single_run():
    series = random_walk_series(40, seed=8)
    env_cfg, cfg = EnvConfig(w=3, l=2, tc_rate=0.0025), A2cConfig(episodes=2, seed=4,
                                                                    hidden_sizes=(5,))
    (grouped,) = train(series, [env_cfg], [cfg])
    alone = train(series, env_cfg, cfg)
    assert np.array_equal(grouped.policy_net.flat, alone.policy_net.flat)
    assert [vars(e) for e in grouped.log] == [vars(e) for e in alone.log]


def test_lockstep_rejects_trials_that_cannot_share_a_clock():
    series = random_walk_series(40, seed=8)
    cfg = A2cConfig(episodes=1, hidden_sizes=(5,))
    for env_cfgs, cfgs in (
            ([EnvConfig(w=3, l=2), EnvConfig(w=4, l=2)], [cfg, cfg]),
            ([EnvConfig(w=3, l=2)] * 2, [cfg, dataclasses.replace(cfg, lr_actor=0.1)]),
            ([EnvConfig(w=3, l=2)] * 2, [cfg])):
        with pytest.raises(ValueError):
            train(series, env_cfgs, cfgs)


# ------------------------------------------------ grouped matrix runs


def matrix(out_dir, **kwargs):
    series = {"AAA": random_walk_series(60, seed=31, asset="AAA")}
    defaults = dict(window_spec=WindowSpec(train_len=30, test_len=10, stride=10, count=2),
                    seeds=[0, 1], tc_rates=[0.0, 0.0025],
                    strategies=list(evaluation.STRATEGIES), env_config=EnvConfig(w=3, l=2),
                    a2c_config=A2cConfig(episodes=2, hidden_sizes=(4,)), out_dir=out_dir)
    defaults.update(kwargs)
    return run_matrix(series, **defaults)


def test_partial_groups_resume_to_the_same_bytes(tmp_path):
    matrix(tmp_path / "straight")
    straight = (tmp_path / "straight" / "results.csv").read_bytes()
    out = tmp_path / "split"
    # 24 keys, 4 agent groups of 4; each limit ends inside a group
    for limit, workers in ((4, 1), (7, 2), (None, 2)):
        matrix(out, limit=limit, workers=workers)
    assert (out / "results.csv").read_bytes() == straight


def test_group_training_fault_leaves_other_rows_identical(tmp_path, monkeypatch, caplog):
    clean = {r.key: result_row(r) for r in matrix(tmp_path / "clean").results}
    real = evaluation.train
    group_sizes = []

    def faulty(series, env_config, config, *args, **kwargs):
        pairs = list(zip(env_config, config)) if isinstance(config, (list, tuple)) \
            else [(env_config, config)]
        group_sizes.append(len(pairs))
        if any(c.seed == 1 and e.tc_rate == 0.0025 and e.use_sentiment for e, c in pairs):
            raise FloatingPointError("injected fault")
        return real(series, env_config, config, *args, **kwargs)

    monkeypatch.setattr(evaluation, "train", faulty)
    with caplog.at_level(logging.WARNING):
        out = matrix(tmp_path / "faulty")
    assert "training them one by one" in caplog.text
    assert {f.key for f in out.failures} == {
        TrialKey("AAA", w, 1, 0.0025, "sentarl") for w in (0, 1)}
    assert all("FloatingPointError: injected fault" in f.error for f in out.failures)
    # each window's sentarl group was retrained one trial at a time
    assert group_sizes == [4, 4, 1, 1, 1, 1, 4, 4, 1, 1, 1, 1]
    assert len(out.results) == 24 - 2
    for r in out.results:
        assert result_row(r) == clean[r.key]
