"""Lockstep training: K stacked trials, each bit-identical to its own run."""

import logging
import math

import numpy as np
import pytest

from conftest import random_walk_series, rel_err
from reference import (ReplayResult, TrialEnv, action_from_index, backward_any, forward_row,
                       gradients_of, greedy_policy, observe_row, run_policy, softmax_sample,
                       stack_cash, stack_wealth, step_one, train_one, write_equity_points)
from sentarl import a2c, evaluation
from sentarl.a2c import greedy_episodes, train
from sentarl.config import ACTIVATIONS, A2cConfig, EnvConfig, WindowSpec
from sentarl.env import TradingEnv, total_return, write_equity_csv
from sentarl.errors import NonFiniteGradientError
from sentarl.evaluation import TrialKey, result_row, run_matrix
from sentarl.nn import (Gradients, Mlp, RmspropState, apply_update, forward,
                        log_softmax, softmax)

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
    fwd = forward_row if rows is None else forward
    out, cache = fwd(stack, x)
    assert out.shape == x.shape[:-1] + (3,)
    output_grad = rng.normal(size=out.shape)
    grads = backward_any(stack, cache, output_grad)
    for k, net in enumerate(singles):
        single_out, single_cache = fwd(net, x[k])
        assert np.array_equal(out[k], single_out)
        assert np.array_equal(grads.flat[k],
                              backward_any(net, single_cache, output_grad[k]).flat)
    # a reused output buffer gets the same bits
    reused = Gradients.zeros_like(stack)
    assert backward_any(stack, cache, output_grad, out=reused) is reused
    assert np.array_equal(reused.flat, grads.flat)
    with pytest.raises(ValueError, match="out"):
        backward_any(stack, cache, output_grad, out=Gradients.zeros_like(singles[0]))
    with pytest.raises(ValueError, match="shape"):
        fwd(stack, x[:3])


@pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
def test_stacked_update_clips_each_trial_by_its_own_norm(optimizer):
    stack, singles = stack_and_singles(3)
    states = [RmspropState.create(net) if optimizer == "rmsprop" else None
              for net in (stack, *singles)]
    rng = np.random.default_rng(4)
    for _ in range(3):  # successive steps, so optimizer state carries over
        flat = rng.normal(size=stack.flat.shape) * np.array([[0.01], [10.0], [1.0]])
        norms = apply_update(stack, gradients_of(*stack_views(flat, stack)), 0.1,
                             states[0], clip_norm=2.0)
        assert norms[0] < 2.0 < norms[1]  # one trial is clipped, one is not
        for k, net in enumerate(singles):
            grads = gradients_of(*stack_views(flat[k], net))
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


def test_softmax_sample_takes_variates_drawn_in_one_call_per_generator():
    logits = np.random.default_rng(2).normal(size=(5, 3)) * 3.0
    rngs = [np.random.default_rng(s) for s in range(5)]
    # 200 variates per generator in one call, as train draws them
    uniforms = np.stack([np.random.default_rng(s).random(200) for s in range(5)], axis=1)
    for step in range(200):
        index, log_prob, probs = softmax_sample(logits, rngs)
        drawn = softmax_sample(logits, uniforms[step])
        assert np.array_equal(index, drawn[0]) and np.array_equal(log_prob, drawn[1])
        assert np.array_equal(probs, drawn[2])


def test_train_draws_each_trials_variates_in_rollout_order(monkeypatch):
    # train draws each generator's variates a flush at a time; the blocks
    # must cover each episode's steps exactly, as one draw per step would
    draws = {}

    class Recording(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            draws.setdefault(id(self), []).append(size)
            return super().random(size, dtype, out)

    series = random_walk_series(40, seed=8)  # 36 steps per episode at w=3
    env_cfg = EnvConfig(w=3, l=2)
    monkeypatch.setattr(a2c.np.random, "default_rng",
                        lambda seed: Recording(np.random.PCG64(seed)))
    train(TradingEnv([series] * 2, env_cfg, [0.0] * 2, True),
          A2cConfig(episodes=2, n_steps=5, hidden_sizes=(5,)), [0, 1])
    assert len(draws) == 2
    for sizes in draws.values():
        assert sizes == ([5] * 7 + [1]) * 2


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
    env_cfg = EnvConfig(w=4, l=3)

    norms = []
    real = a2c.apply_update

    def recording(net, grads, lr, optimizer_state=None, clip_norm=None):
        norm = real(net, grads, lr, optimizer_state, clip_norm)
        norms.append(float(np.max(norm)))
        return norm

    monkeypatch.setattr(a2c, "apply_update", recording)
    env = TradingEnv([train_slice] * 3, env_cfg, [tc for _, tc in trials], use_sentiment)
    grouped = train(env, base, [seed for seed, _ in trials])
    if base.max_grad_norm is not None:
        assert max(norms) > base.max_grad_norm  # clipping fired
    assert len(grouped) == 3
    for (seed, tc), agent in zip(trials, grouped):
        alone = train_one(train_slice, env_cfg, base, seed, tc, use_sentiment)
        assert np.array_equal(agent.policy_net.flat, alone.policy_net.flat)
        assert np.array_equal(agent.value_net.flat, alone.value_net.flat)
        assert [vars(e) for e in agent.log] == [vars(e) for e in alone.log]
        test_trs = [run_policy(TrialEnv(test_slice, env_cfg, tc, use_sentiment),
                               greedy_policy(a.policy_net)).total_return
                    for a in (agent, alone)]
        assert test_trs[0] == test_trs[1]


def test_lockstep_group_of_one_matches_the_single_run():
    series = random_walk_series(40, seed=8)
    env_cfg, cfg = EnvConfig(w=3, l=2), A2cConfig(episodes=2, hidden_sizes=(5,))
    (grouped,) = train(TradingEnv([series], env_cfg, [0.0025], True), cfg, [4])
    alone = train_one(series, env_cfg, cfg, 4, 0.0025)
    assert np.array_equal(grouped.policy_net.flat, alone.policy_net.flat)
    assert [vars(e) for e in grouped.log] == [vars(e) for e in alone.log]


def test_lockstep_rejects_trials_that_cannot_share_a_clock():
    series = random_walk_series(40, seed=8)
    cfg = A2cConfig(episodes=1, hidden_sizes=(5,))
    with pytest.raises(ValueError):
        train(TradingEnv([series] * 2, EnvConfig(w=3, l=2), [0.0] * 2, True), cfg, [0])


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

    def faulty(env, config, seeds, *args, **kwargs):
        group_sizes.append(len(seeds))
        sentiment = env.dim == EnvConfig(w=3, l=2).state_dim(use_sentiment=True)
        if sentiment and any(s == 1 and tc == 0.0025 for s, tc in zip(seeds, env._tc[:, 0])):
            raise FloatingPointError("injected fault")
        return real(env, config, seeds, *args, **kwargs)

    monkeypatch.setattr(evaluation, "train", faulty)
    with caplog.at_level(logging.WARNING):
        out = matrix(tmp_path / "faulty")
    assert "training them one by one" in caplog.text
    assert {f.key for f in out.failures} == {
        TrialKey("AAA", w, 1, 0.0025, "sentarl") for w in (0, 1)}
    assert all("FloatingPointError: injected fault" in f.error for f in out.failures)
    # the sentarl chunk was retrained one trial at a time
    assert group_sizes == [8, 8, 1, 1, 1, 1, 1, 1, 1, 1]
    assert len(out.results) == 24 - 2
    for r in out.results:
        assert result_row(r) == clean[r.key]


def test_chunk_fallback_trains_each_key_once(tmp_path, monkeypatch):
    series = random_walk_series(60, seed=31, asset="AAA")
    spec = WindowSpec(train_len=30, test_len=10, stride=10, count=2)
    slices = {("AAA", w): pair for w, pair in enumerate(evaluation.window_slices(series, spec))}
    keys = [TrialKey("AAA", w, seed, 0.0, "sentarl") for w in (0, 1) for seed in (0, 1)]
    configs = EnvConfig(w=3, l=2), A2cConfig(episodes=1, hidden_sizes=(4,))
    real_train, real_trial = evaluation.train, evaluation.run_agent_trial
    sizes = []

    def failing(env, config, seeds):
        sizes.append(len(seeds))
        raise FloatingPointError("injected fault")

    # a lone key whose training raises is trained once, and fails alone
    monkeypatch.setattr(evaluation, "train", failing)
    out = evaluation._chunk_worker(keys[:1], slices, *configs, tmp_path)
    assert sizes == [1]
    assert [(f.key, f.error) for f in out] == [(keys[0], "FloatingPointError: injected fault")]
    assert list(tmp_path.iterdir()) == []

    # a fault writing one key's files fails that key only; nothing retrains
    def counting(env, config, seeds):
        sizes.append(len(seeds))
        return real_train(env, config, seeds)

    def flaky(key, *args):
        if key == keys[2]:
            raise OSError("injected fault")
        return real_trial(key, *args)

    sizes.clear()
    monkeypatch.setattr(evaluation, "train", counting)
    monkeypatch.setattr(evaluation, "run_agent_trial", flaky)
    out = evaluation._chunk_worker(keys, slices, *configs, tmp_path)
    assert sizes == [4]
    assert [type(o).__name__ for o in out] == [
        "TrialResult", "TrialResult", "TrialFailure", "TrialResult"]
    assert out[2].error == "OSError: injected fault"
    assert [o.key for o in out] == keys


# ------------------------------------------------ stacked env vs single envs


@pytest.mark.parametrize("cost_mode", ["proportional", "fixed-per-unit"])
@pytest.mark.parametrize("use_sentiment", [True, False])
def test_env_stack_matches_single_envs(cost_mode, use_sentiment):
    series = random_walk_series(90, seed=21)
    windows = [series.slice(0, 40), series.slice(25, 65), series.slice(50, 90)]
    # (series, tc_rate, diff_stats): trials on three windows, one window twice
    trials = [(windows[0], 0.0, None), (windows[0], 0.0025, (0.1, 2.0)),
              (windows[1], 0.01, None), (windows[2], 0.0025, (0.0, 0.5))]
    cfg = EnvConfig(w=4, l=3, phi=1.5, cost_mode=cost_mode)
    stack = TradingEnv([s for s, _, _ in trials], cfg, [tc for _, tc, _ in trials],
                       use_sentiment, [stats for *_, stats in trials])
    singles = [TrialEnv(s, cfg, tc, use_sentiment, stats) for s, tc, stats in trials]
    assert stack.trials == 4 and stack.steps == singles[0].steps
    assert stack.psi.tolist() == [e.psi for e in singles]
    assert stack.reset() is None
    buf = observe_row(stack)
    assert np.array_equal(buf, [e.reset().to_vector() for e in singles])
    # each trial's price-diff window is its own series, scaled by its own stats
    t0, col = stack.start_index, 3 if use_sentiment else 0
    for k, (s, _, stats) in enumerate(trials):
        newest_first = s.diffs[t0 - 4:t0][::-1]
        want = newest_first if stats is None else (newest_first - stats[0]) / stats[1]
        assert np.array_equal(buf[k, col:col + 4], want)
    rng = np.random.default_rng(3)
    while not stack.done:
        index = rng.integers(0, 3, size=4)
        out = step_one(stack, index)
        outs = [e.step(action_from_index(i)) for e, i in zip(singles, index)]
        assert np.array_equal(observe_row(stack), [o.next_state.to_vector() for o in outs])
        assert out.reward.tolist() == [o.reward for o in outs]
        assert stack.costs[:, -1].tolist() == [o.info["cost_paid"] for o in outs]
        assert [out.done] * 4 == [o.done for o in outs]
        assert stack_cash(stack).tolist() == [e.cash for e in singles]
        assert stack_wealth(stack).tolist() == [e.wealth for e in singles]
        assert stack.last_action.tolist() == [int(e.last_action) for e in singles]
    assert all(e.done for e in singles)
    for k, env in enumerate(singles):
        assert stack.rewards[k].tolist() == [p.reward for p in env.equity_curve()]
        # double-entry wealth equals psi plus the summed rewards, per trial
        assert stack_wealth(stack)[k] == pytest.approx(
            stack.psi[k] + math.fsum(stack.rewards[k]), rel=1e-9)
    # a reset rewinds the clock, the position and the episode record
    stack.reset()
    assert np.array_equal(observe_row(stack), [e.reset().to_vector() for e in singles])
    assert stack.rewards.shape == stack.costs.shape == (4, 0)


# ------------------------------------------------ stacked greedy test episodes


def tie_net(dim, biases):
    """A net with zero weights and the given output biases: every state
    gets the same probabilities."""
    net = Mlp.create((dim, 5, 3), np.random.default_rng(0))
    net.flat[:] = 0.0
    net.biases[-1][:] = biases
    return net


@pytest.mark.parametrize("cost_mode", ["proportional", "fixed-per-unit"])
@pytest.mark.parametrize("use_sentiment", [True, False])
def test_greedy_episodes_match_single_greedy_runs(cost_mode, use_sentiment, tmp_path):
    series = random_walk_series(120, seed=23)
    windows = [series.slice(0, 40), series.slice(40, 80), series.slice(80, 120)]
    trials = [(windows[0], 0.0), (windows[1], 0.0025), (windows[2], 0.01),
              (windows[0], 0.0025), (windows[1], 0.0), (windows[2], 0.0025)]
    cfg = EnvConfig(w=4, l=3, cost_mode=cost_mode)
    dim = cfg.state_dim(use_sentiment)
    nets = [Mlp.create((dim, 5, 3), np.random.default_rng(s)) for s in range(4)]
    # all three tied: Neutral wins; Long and Short tied above Neutral: Long wins
    nets += [tie_net(dim, [0.0, 0.0, 0.0]), tie_net(dim, [1.0, 0.0, 1.0])]
    env = TradingEnv([s for s, _ in trials], cfg, [tc for _, tc in trials], use_sentiment)
    assert greedy_episodes(env, Mlp.stack(nets)) is None
    assert env.done and env.rewards.shape == (len(trials), env.steps)
    for k, ((s, tc), net) in enumerate(zip(trials, nets)):
        want = run_policy(TrialEnv(s, cfg, tc, use_sentiment), greedy_policy(net))
        rewards = env.rewards[k].tolist()
        # repr compares bits and types (a numpy float would print differently)
        assert repr(rewards) == repr(want.rewards)
        assert env.actions[k].tolist() == want.actions
        assert env.trade_counts[k] == want.trade_count
        assert repr(total_return(rewards, float(env.psi[k]))) == repr(want.total_return)
        write_equity_csv(env, k, tmp_path / "stack.csv")
        write_equity_points(want.equity, tmp_path / "single.csv")
        assert (tmp_path / "stack.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()
    assert set(env.actions[4].tolist()) == {0} and env.trade_counts[4] == 0
    assert set(env.actions[5].tolist()) == {1} and env.trade_counts[5] == 1
    # the random nets do not all hold one position
    assert len(np.unique(env.actions[:4])) > 1


@pytest.mark.parametrize("cost_mode", ["proportional", "fixed-per-unit"])
@pytest.mark.parametrize("use_sentiment", [True, False])
def test_equity_files_of_a_stack_match_the_reference_writer(cost_mode, use_sentiment,
                                                            tmp_path):
    """Each trial's equity file, written from the stack's arrays, has the
    bytes of its per-step reference episode written one EquityPoint a row,
    mid-episode and at the end."""
    series = random_walk_series(90, seed=31)
    windows = [series.slice(0, 45), series.slice(45, 90)]
    trials = [(windows[0], 0.0), (windows[1], 0.0025), (windows[0], 0.01), (windows[1], 0.0)]
    cfg = EnvConfig(w=4, l=3, phi=1.5, cost_mode=cost_mode)
    stack = TradingEnv([s for s, _ in trials], cfg, [tc for _, tc in trials], use_sentiment)
    singles = [TrialEnv(s, cfg, tc, use_sentiment) for s, tc in trials]
    stack.reset()
    for env in singles:
        env.reset()
    rng = np.random.default_rng(8)

    def assert_files_match():
        for k, env in enumerate(singles):
            write_equity_csv(stack, k, tmp_path / "stack.csv")
            write_equity_points(env.equity_curve(), tmp_path / "single.csv")
            assert ((tmp_path / "stack.csv").read_bytes()
                    == (tmp_path / "single.csv").read_bytes()), k

    assert_files_match()  # the header alone
    while not stack.done:
        index = rng.integers(0, 3, size=len(trials))
        step_one(stack, index)
        for env, i in zip(singles, index):
            env.step(action_from_index(i))
        if stack.t - stack.start_index == 7:
            assert_files_match()
    assert_files_match()
    # the trade counts are the reference's position changes, counted a step at a time
    assert stack.trade_counts.tolist() == [
        ReplayResult(env.rewards.tolist(), env.actions.tolist(), env.psi).trade_count
        for env in singles]


def test_stacked_test_fault_falls_back_to_single_tests(tmp_path, monkeypatch, caplog):
    matrix(tmp_path / "stacked")
    stacked_sizes = []
    real = evaluation.greedy_episodes

    def failing(env, policy):
        if env.trials > 1:
            stacked_sizes.append(env.trials)
            raise FloatingPointError("injected fault")
        return real(env, policy)

    monkeypatch.setattr(evaluation, "greedy_episodes", failing)
    with caplog.at_level(logging.WARNING):
        out = matrix(tmp_path / "single")
    assert "testing them one by one" in caplog.text
    assert stacked_sizes == [8, 8] and not out.failures
    # the single test episodes write the same results and artifacts
    files = {run: {p.relative_to(tmp_path / run): p.read_bytes()
                   for p in (tmp_path / run).rglob("*") if p.is_file()
                   and p.name != "results.journal.csv"}
             for run in ("stacked", "single")}
    assert len(files["single"]) == 1 + 4 * 16
    assert files["single"] == files["stacked"]


def test_env_stack_rejects_trials_that_cannot_share_a_clock():
    series = random_walk_series(60, seed=2)
    base = EnvConfig(w=3, l=2)
    for series_arg, tc_rates, message in (
            ([series.slice(0, 30), series.slice(0, 31)], [0.0, 0.0], "equal length"),
            ([series], [0.0, 0.0], "one series per trial"),
            ([], [], "one env config per trial"),
            ([series.slice(0, 5)], [0.0], "too short")):
        with pytest.raises(ValueError, match=message):
            TradingEnv(series_arg, base, tc_rates, True)

    stack = TradingEnv([series] * 2, base, [0.0, 0.01], True)
    for bad in ([1], [1, 1, 1], [0, 3], [-1, 1]):
        with pytest.raises(ValueError, match="action"):
            step_one(stack, bad)
    assert stack.t == stack.start_index  # rejected steps leave the clock alone
    while not stack.done:
        step_one(stack, [2, 0])
    with pytest.raises(RuntimeError, match="finished"):
        step_one(stack, [1, 1])


# ------------------------------------------------ chunks across windows and assets


def test_lockstep_training_across_windows_and_assets_is_bit_identical():
    a = random_walk_series(100, seed=41, asset="AAA")
    b = random_walk_series(100, seed=42, asset="BBB", base=50.0)
    slices = {("AAA", 0): (a.slice(0, 40), a.slice(40, 60)),
              ("AAA", 1): (a.slice(20, 60), a.slice(60, 80)),
              ("BBB", 0): (b.slice(30, 70), b.slice(70, 90))}
    trials = [("AAA", 0, 0, 0.0), ("AAA", 0, 1, 0.0025), ("AAA", 1, 0, 0.0),
              ("BBB", 0, 2, 0.0025), ("BBB", 0, 0, 0.0)]
    base = A2cConfig(episodes=2, hidden_sizes=(8, 6), n_steps=4, entropy_coef=0.1)
    env_cfg = EnvConfig(w=4, l=3)
    env = TradingEnv([slices[asset, w][0] for asset, w, _, _ in trials], env_cfg,
                     [tc for *_, tc in trials], True)
    grouped = train(env, base, [seed for _, _, seed, _ in trials])
    for (asset, w, seed, tc), agent in zip(trials, grouped):
        train_slice, test_slice = slices[asset, w]
        alone = train_one(train_slice, env_cfg, base, seed, tc)
        assert np.array_equal(agent.policy_net.flat, alone.policy_net.flat)
        assert np.array_equal(agent.value_net.flat, alone.value_net.flat)
        assert [vars(e) for e in agent.log] == [vars(e) for e in alone.log]
        test_trs = [run_policy(TrialEnv(test_slice, env_cfg, tc),
                               greedy_policy(x.policy_net)).total_return
                    for x in (agent, alone)]
        assert test_trs[0] == test_trs[1]


def test_lockstep_chunks_cut_each_strategy_in_key_order():
    keys = evaluation.enumerate_keys(["BBB", "AAA"], 5, [0, 1], [0.0],
                                     evaluation.STRATEGIES)
    chunks = evaluation.lockstep_chunks(keys)
    assert [len(c) for c in chunks] == [8, 8, 4, 8, 8, 4]
    for strategy, group in (("no-sentiment", chunks[:3]), ("sentarl", chunks[3:])):
        assert [k for c in group for k in c] == [k for k in keys if k.strategy == strategy]
    # the second chunk holds AAA's last window and BBB's first three
    assert sorted({(k.asset, k.window) for k in chunks[1]}) == [
        ("AAA", 4), ("BBB", 0), ("BBB", 1), ("BBB", 2)]
    # the paper's matrix: 20 assets x 5 windows x 5 seeds x 2 costs per strategy
    paper = evaluation.enumerate_keys([f"A{i:02d}" for i in range(20)], 5, range(5),
                                      [0.0, 0.0025], evaluation.STRATEGIES)
    assert len(evaluation.lockstep_chunks(paper)) == 250


def two_asset_matrix(out_dir, **kwargs):
    series = {"AAA": random_walk_series(80, seed=31, asset="AAA"),
              "BBB": random_walk_series(80, seed=32, asset="BBB", base=60.0)}
    # 12 agent keys per strategy: a chunk of 8 over AAA's three windows and
    # BBB's first, then a chunk of 4
    defaults = dict(window_spec=WindowSpec(train_len=30, test_len=10, stride=10, count=3),
                    seeds=[0, 1], tc_rates=[0.0025], strategies=list(evaluation.STRATEGIES),
                    env_config=EnvConfig(w=3, l=2),
                    a2c_config=A2cConfig(episodes=2, hidden_sizes=(4,)), out_dir=out_dir)
    defaults.update(kwargs)
    return run_matrix(series, **defaults)


def test_cross_window_chunks_give_the_same_bytes_for_any_workers_and_limit(tmp_path):
    two_asset_matrix(tmp_path / "w1")
    straight = (tmp_path / "w1" / "results.csv").read_bytes()
    two_asset_matrix(tmp_path / "w2", workers=2)
    assert (tmp_path / "w2" / "results.csv").read_bytes() == straight
    out = tmp_path / "split"
    for limit, workers in ((5, 1), (9, 2), (13, 1), (None, 2)):
        two_asset_matrix(out, limit=limit, workers=workers)
    assert (out / "results.csv").read_bytes() == straight


def test_run_matrix_logs_progress_per_task_without_changing_bytes(tmp_path, caplog):
    with caplog.at_level(logging.WARNING):
        matrix(tmp_path / "quiet")
    assert "progress:" not in caplog.text
    with caplog.at_level(logging.INFO):
        matrix(tmp_path / "loud", workers=2)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("progress:")]
    assert len(lines) == 2  # one per pool task: one chunk per strategy
    assert lines[-1].startswith("progress: 24/24 keys done (0 failed), ")
    assert "trials/h, ETA 0 s" in lines[-1]
    assert ((tmp_path / "loud" / "results.csv").read_bytes()
            == (tmp_path / "quiet" / "results.csv").read_bytes())


# ------------------------------------------------ flush-level rollout


def block_trials(cost_mode, use_sentiment):
    """The TradingEnv arguments of three trials."""
    series = random_walk_series(90, seed=21)
    windows = [series.slice(0, 40), series.slice(25, 65)]
    trials = [(windows[0], 0.0, None), (windows[0], 0.0025, (0.1, 2.0)),
              (windows[1], 0.01, (0.0, 0.5))]
    return ([s for s, _, _ in trials], EnvConfig(w=4, l=3, phi=1.5, cost_mode=cost_mode),
            [tc for _, tc, _ in trials], use_sentiment, [stats for *_, stats in trials])


@pytest.mark.parametrize("cost_mode", ["proportional", "fixed-per-unit"])
@pytest.mark.parametrize("use_sentiment", [True, False])
@pytest.mark.parametrize("m", [1, 2, 5, "rest"])
def test_block_step_equals_one_step_calls(m, cost_mode, use_sentiment):
    trials = block_trials(cost_mode, use_sentiment)
    block_env, step_env = TradingEnv(*trials), TradingEnv(*trials)
    dim = block_env.dim
    block_env.reset()
    step_env.reset()
    size = block_env.steps if m == "rest" else m
    rng = np.random.default_rng(4)
    while not block_env.done:
        n = min(size, block_env.steps - block_env.t + block_env.start_index)
        block = rng.integers(0, 3, size=(3, n))
        # the flush's rows: ticks t .. t + n, with the last action before the block
        rows = block_env.observe(np.empty((3, n + 1, dim)))
        out = block_env.step(block)
        outs = []
        for j in range(n):
            assert np.array_equal(rows[:, j, :-1], observe_row(step_env)[:, :-1])
            outs.append(step_one(step_env, block[:, j]))
        assert np.array_equal(rows[:, n, :-1], observe_row(step_env)[:, :-1])
        assert np.array_equal(observe_row(block_env), observe_row(step_env))
        assert out.reward.shape == (3, n) and out.done == outs[-1].done
        for j, o in enumerate(outs):
            assert out.reward[:, j].tolist() == o.reward.tolist()
        assert block_env.costs[:, -n:].tolist() == step_env.costs[:, -n:].tolist()
        assert stack_cash(block_env).tolist() == stack_cash(step_env).tolist()
        assert stack_wealth(block_env).tolist() == stack_wealth(step_env).tolist()
        assert block_env.last_action.tolist() == step_env.last_action.tolist()
        assert block_env.t == step_env.t
    assert step_env.done
    assert block_env.rewards.tolist() == step_env.rewards.tolist()
    assert block_env.actions.tolist() == step_env.actions.tolist()
    assert block_env.costs.tolist() == step_env.costs.tolist()


def test_block_step_rejects_bad_blocks_before_the_clock_moves():
    env = TradingEnv(*block_trials("proportional", True))
    env.reset()
    env.step(np.full((3, 4), 2))
    before = (env.t, stack_cash(env).tolist(), env.rewards.tolist(),
              env.last_action.tolist())
    left = env.steps - 4
    for bad in (np.ones((3, left + 1), dtype=int), np.ones((3, 0), dtype=int),
                [[1, 3], [1, 1], [1, 1]], [[1, -1], [1, 1], [1, 1]], np.ones((2, 2), dtype=int),
                np.ones((3, 2, 1), dtype=int)):
        with pytest.raises(ValueError, match="action"):
            env.step(bad)
        assert (env.t, stack_cash(env).tolist(), env.rewards.tolist(),
                env.last_action.tolist()) == before
    for bad_rows in (0, left + 2):
        with pytest.raises(ValueError, match="out has shape"):
            env.observe(np.empty((3, bad_rows, env.dim)))
    env.step(np.ones((3, left), dtype=int))  # exactly the rest of the episode
    assert env.done and env.rewards.shape == (3, env.steps)


def per_step_flush(env, policy, uniforms):
    """One flush the per-step way: a forward on the real state, then
    softmax_sample with the same uniform, then a one-step env.step."""
    logits, log_probs, probs, actions = [], [], [], []
    for u in uniforms.T:
        out, _ = forward_row(policy, observe_row(env))
        index, log_prob, p = softmax_sample(out, u)
        step_one(env, index)
        for seq, value in zip((logits, log_probs, probs, actions), (out, log_prob, p, index)):
            seq.append(value)
    return [np.stack(seq, axis=1) for seq in (logits, log_probs, probs, actions)]


@pytest.mark.parametrize("use_sentiment", [True, False])
@pytest.mark.parametrize("seed", range(5))
def test_rollout_table_matches_a_per_step_reference(seed, use_sentiment):
    series = random_walk_series(72, seed=5)
    trials = [series] * 3, EnvConfig(w=4, l=3), [0.0, 0.0025, 0.01], use_sentiment
    # nets after a few episodes of training, so the draws are not near uniform
    agents = train(TradingEnv(*trials), A2cConfig(episodes=3, hidden_sizes=(8, 6), lr_actor=0.05),
                   [seed * 3 + k for k in range(3)])
    policy = Mlp.stack([agent.policy_net for agent in agents])
    table_env, step_env = TradingEnv(*trials), TradingEnv(*trials)
    states = np.empty((3, 6, table_env.dim))
    table_env.reset()
    step_env.reset()
    rngs = [np.random.default_rng(100 + seed * 3 + k) for k in range(3)]
    flips = 0
    for t in range(0, table_env.steps, 5):
        uniforms = np.stack([g.random(min(5, table_env.steps - t)) for g in rngs])
        m = uniforms.shape[1]
        first = observe_row(step_env)
        batch, probs = a2c._rollout(table_env, policy, uniforms, states)
        logits, log_probs, step_probs, actions = per_step_flush(step_env, policy, uniforms)
        flips += int(np.count_nonzero(batch.actions != actions))
        taken_log_probs = np.take_along_axis(log_softmax(batch.policy_forward[0]),
                                             batch.actions[..., None], axis=-1)[..., 0]
        assert rel_err([batch.policy_forward[0], taken_log_probs, probs],
                       [logits, log_probs, step_probs]) <= 1e-12
        assert np.array_equal(softmax(batch.policy_forward[0]), probs)
        # the observations, rewards and dones are the per-step ones, bit for bit
        assert np.array_equal(batch.states[:, 0], first)
        assert np.array_equal(batch.states[:, m], observe_row(step_env))
        assert batch.rewards.tolist() == step_env.rewards[:, t:t + m].tolist()
        assert batch.dones.tolist() == [False] * (m - 1) + [step_env.done]
        # the actor's cache rows are the taken states' forward
        _, cache = forward(policy, batch.states[:, :m])
        assert np.array_equal(batch.policy_forward[1].inputs[0], cache.inputs[0])
        assert rel_err(batch.policy_forward[1].inputs[1:], cache.inputs[1:]) <= 1e-12
    print(f"[rollout] seed {seed}, sentiment {use_sentiment}: {flips} CDF-boundary flips")
    assert flips == 0
    assert table_env.actions.tolist() == step_env.actions.tolist()


def test_train_runs_one_policy_and_one_value_forward_per_flush(monkeypatch):
    series = random_walk_series(40, seed=8)  # 36 steps per episode at w=3
    calls = {1: 0, 3: 0}
    real = a2c.forward

    def counting(net, x):
        calls[net.output_size] += 1
        return real(net, x)

    monkeypatch.setattr(a2c, "forward", counting)
    assert not hasattr(a2c, "softmax_sample")
    cfg = EnvConfig(w=3, l=2)
    train(TradingEnv([series] * 2, cfg, [0.0] * 2, True),
          A2cConfig(episodes=2, n_steps=5, hidden_sizes=(5,)), [0, 1])
    assert calls == {3: 2 * 8, 1: 2 * 8}  # ceil(36 / 5) flushes per episode
    calls.update({1: 0, 3: 0})
    train_one(series, cfg, A2cConfig(episodes=1, n_steps=36, hidden_sizes=(5,)))
    assert calls == {3: 1, 1: 1}


def test_global_norm_is_one_product_per_trial_alone_or_stacked():
    rng = np.random.default_rng(6)
    for sizes in ((46, 64, 64, 3), (7, 1), (5, 3, 2)):
        stack, singles = stack_and_singles(5, sizes)
        stack.flat[:] = rng.normal(size=stack.flat.shape) * 10.0 ** rng.integers(-3, 4, (5, 1))
        norms = Gradients(stack.flat, sizes).global_norm()
        for k in range(5):
            alone = Gradients(stack.flat[k].copy(), sizes).global_norm()
            assert isinstance(alone, float) and alone == norms[k]
            assert alone == pytest.approx(math.sqrt(math.fsum(stack.flat[k] ** 2)), rel=1e-12)
