"""Trading MDP: state assembly, reward timing, costs, wealth accounting."""

import math

import numpy as np
import pytest

from conftest import build_series, random_walk_series
from reference import TrialEnv as TradingEnv
from reference import (ACTIONS, Action, action_from_index, action_index, baseline_policy,
                       episode_return, run_policy)
from sentarl.env import CostMode, EnvConfig, check_diff_stats, write_equity_csv
from sentarl.env import TradingEnv as StackEnv


def test_action_encoding():
    assert [int(a) for a in ACTIONS] == [-1, 0, 1]
    assert action_from_index(0) is Action.SHORT
    assert action_from_index(2) is Action.LONG
    for action in ACTIONS:
        assert action_from_index(action_index(action)) is action


def test_reset_start_index():
    series = build_series(np.linspace(100, 109, 10))
    env = TradingEnv(series, EnvConfig(w=2, l=1))
    env.reset()
    # first index with w prior diffs available; 0-based 2 here
    assert env.start_index == 2
    assert env.t == 2


def test_state_dimensions():
    assert EnvConfig(w=20, l=5).state_dim(use_sentiment=True) == 46
    assert EnvConfig(w=20, l=5).state_dim(use_sentiment=False) == 41
    series = random_walk_series(60)
    for use_sentiment, want in ((True, 46), (False, 41)):
        env = TradingEnv(series, EnvConfig(w=20, l=5), use_sentiment=use_sentiment)
        state = env.reset()
        assert len(state.to_vector()) == want
        assert state.dimension == want


def test_series_too_short():
    series = build_series(np.linspace(100, 103, 4))
    with pytest.raises(ValueError, match="too short"):
        TradingEnv(series, EnvConfig(w=2, l=1))


def test_window_contents_and_order():
    prices = np.array([100.0, 101.0, 103.0, 106.0, 110.0, 115.0])
    sentiment = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    series = build_series(prices, sentiment)
    env = TradingEnv(series, EnvConfig(w=2, l=2))
    state = env.reset()
    # newest first: [z_t, z_{t-1}], [tau_t, tau_{t-1}], [e_t, e_{t-1}]
    assert state.diffs_window.tolist() == [2.0, 1.0]
    assert state.hours_window.tolist() == [2 / 24, 1 / 24]
    assert state.sentiment_window.tolist() == [0.3, 0.2]
    assert state.last_action is Action.NEUTRAL
    vec = state.to_vector()
    assert vec.tolist() == [0.3, 0.2, 2.0, 1.0, 2 / 24, 1 / 24, 0.0]

    out = env.step(Action.LONG)
    assert out.next_state.diffs_window.tolist() == [3.0, 2.0]
    assert out.next_state.last_action is Action.LONG


def test_step_reward_examples():
    prices = np.array([100.0] * 3 + [100.0, 102.0, 102.0])
    series = build_series(prices)
    env = TradingEnv(series, EnvConfig(w=2, l=1), 0.0)
    env.reset()
    assert env.start_index == 2
    env.step(Action.LONG)          # establish the position (z=0, no cost)
    out = env.step(Action.LONG)    # hold long over z=+2
    assert out.reward == pytest.approx(2.0)
    assert out.info["cost_paid"] == 0.0


def test_switch_cost_proportional():
    prices = np.full(8, 100.0)
    series = build_series(prices)
    env = TradingEnv(series, EnvConfig(w=2, l=1, cost_mode="proportional"), 0.0025)
    env.reset()
    env.step(Action.LONG)
    out = env.step(Action.SHORT)   # |a_t - a_{t-1}| = 2 at p=100
    assert out.reward == pytest.approx(-0.5)
    assert out.info["cost_paid"] == pytest.approx(0.5)


def test_switch_cost_fixed_per_unit():
    prices = np.full(8, 100.0)
    series = build_series(prices)
    env = TradingEnv(series, EnvConfig(w=2, l=1, cost_mode="fixed-per-unit"), 0.1)
    env.reset()
    out = env.step(Action.LONG)    # one unit switched, fixed cost 0.1
    assert out.info["cost_paid"] == pytest.approx(0.1)
    out = env.step(Action.SHORT)   # two units switched
    assert out.info["cost_paid"] == pytest.approx(0.2)


def test_neutral_forever_is_free():
    series = random_walk_series(30, seed=4)
    env = TradingEnv(series, EnvConfig(w=3, l=2), 0.01)
    result = run_policy(env, baseline_policy("always-neutral"))
    assert result.total_reward == 0.0
    assert result.total_return == 0.0
    assert result.trade_count == 0


def test_done_at_final_index():
    series = build_series(np.linspace(100, 109, 10))
    env = TradingEnv(series, EnvConfig(w=2, l=1))
    env.reset()
    steps = 0
    done = False
    while not done:
        done = env.step(Action.NEUTRAL).done
        steps += 1
    # decisions run t0 .. T-2
    assert steps == len(series) - 1 - env.start_index
    with pytest.raises(RuntimeError, match="finished"):
        env.step(Action.NEUTRAL)


def test_step_requires_reset():
    series = build_series(np.linspace(100, 109, 10))
    env = TradingEnv(series, EnvConfig(w=2, l=1))
    with pytest.raises(RuntimeError, match="reset"):
        env.step(Action.LONG)


def test_wealth_identity_random_cases():
    rng = np.random.default_rng(99)
    for case in range(40):
        series = random_walk_series(int(rng.integers(12, 40)), seed=case)
        w, l = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi, tc = float(rng.uniform(0.5, 3.0)), float(rng.choice([0.0, 0.0025, 0.01]))
        cfg = EnvConfig(w=w, l=l, phi=phi,
                        cost_mode=str(rng.choice(["proportional", "fixed-per-unit"])))
        if len(series) < max(cfg.w + 1, cfg.l) + 2:
            continue
        env = TradingEnv(series, cfg, tc)
        result = run_policy(env, baseline_policy("random", seed=case))
        expected = env.psi + result.total_reward
        assert env.wealth == pytest.approx(expected, rel=1e-9)


def test_reward_independent_of_history_when_free():
    series = random_walk_series(30, seed=6)
    cfg = EnvConfig(w=3, l=2)
    env_a = TradingEnv(series, cfg, 0.0)
    env_b = TradingEnv(series, cfg, 0.0)
    env_a.reset()
    env_b.reset()
    env_a.step(Action.LONG)    # different histories
    env_b.step(Action.SHORT)
    out_a = env_a.step(Action.LONG)
    out_b = env_b.step(Action.LONG)
    assert out_a.reward == out_b.reward


def test_reward_linear_in_phi():
    series = random_walk_series(30, seed=8)
    rewards = {}
    for phi in (1.0, 2.0):
        env = TradingEnv(series, EnvConfig(w=3, l=2, phi=phi), 0.003)
        result = run_policy(env, baseline_policy("random", seed=3))
        rewards[phi] = result.rewards
    assert np.allclose(np.array(rewards[2.0]), 2.0 * np.array(rewards[1.0]))


def test_exogenous_channels():
    series = random_walk_series(25, seed=10)
    cfg = EnvConfig(w=3, l=2)
    env_a, env_b = TradingEnv(series, cfg), TradingEnv(series, cfg)
    state_a, state_b = env_a.reset(), env_b.reset()
    for _ in range(10):
        assert np.array_equal(state_a.diffs_window, state_b.diffs_window)
        assert np.array_equal(state_a.hours_window, state_b.hours_window)
        assert np.array_equal(state_a.sentiment_window, state_b.sentiment_window)
        state_a = env_a.step(Action.LONG).next_state
        state_b = env_b.step(Action.SHORT).next_state


def test_episode_return():
    assert episode_return([]) == 0.0
    assert episode_return([1.0, -0.5, 2.0]) == 2.5


def test_always_long_telescopes():
    series = random_walk_series(50, seed=12)
    env = TradingEnv(series, EnvConfig(w=4, l=2), 0.0)
    result = run_policy(env, baseline_policy("buy-and-hold"))
    t0 = env.start_index
    per_share = series.prices[-1] - series.prices[t0]
    assert result.total_reward == pytest.approx(per_share, rel=1e-12)
    assert result.total_return == pytest.approx(per_share / env.psi, rel=1e-12)


def test_buy_and_hold_positive_on_rising_series():
    series = build_series(np.linspace(100, 120, 30))
    env = TradingEnv(series, EnvConfig(w=3, l=2), 0.0)
    result = run_policy(env, baseline_policy("buy-and-hold"))
    assert result.total_return > 0
    assert result.trade_count == 1


def test_bh_equals_forced_long_equity():
    series = random_walk_series(40, seed=14)
    cfg = EnvConfig(w=4, l=2)
    bh = run_policy(TradingEnv(series, cfg, 0.0), baseline_policy("buy-and-hold"))
    forced = run_policy(TradingEnv(series, cfg, 0.0), lambda s: Action.LONG)
    assert bh.rewards == forced.rewards
    assert [p.cum_return for p in bh.equity] == [p.cum_return for p in forced.equity]


def test_random_policy_seeded():
    series = random_walk_series(40, seed=15)
    cfg = EnvConfig(w=4, l=2)
    a = run_policy(TradingEnv(series, cfg), baseline_policy("random", seed=5))
    b = run_policy(TradingEnv(series, cfg), baseline_policy("random", seed=5))
    assert a.actions == b.actions


def test_unknown_baseline_rejected():
    with pytest.raises(ValueError):
        baseline_policy("martingale")


def test_equity_csv_export(tmp_path):
    series = random_walk_series(25, seed=16)
    env = TradingEnv(series, EnvConfig(w=3, l=2), 0.001)
    result = run_policy(env, baseline_policy("random", seed=1))
    path = tmp_path / "equity.csv"
    write_equity_csv(result.equity, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,timestamp,action,reward,cost,cum_return"
    assert len(lines) == 1 + len(result.rewards)
    # cumulative return in the last row matches the episode total
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(result.total_return, rel=1e-12)


@pytest.mark.parametrize("unit", ["s", "ms", "ns"])
def test_equity_csv_timestamps_match_the_per_row_conversion(tmp_path, unit):
    from sentarl.env import EquityPoint
    # whole seconds, then fractional ones (truncated to the second), before
    # and after the epoch
    stamps = [np.datetime64("2021-01-04T00:00:00", unit) + np.timedelta64(i, "h")
              for i in range(3)]
    if unit != "s":
        stamps += [np.datetime64("2021-01-04T10:11:12.999", unit),
                   np.datetime64("1969-12-31T23:59:59.5", unit)]
    curve = [EquityPoint(i, ts, (-1, 0, 1)[i % 3], 0.1 * i, 0.003 * i, -0.02 * i)
             for i, ts in enumerate(stamps)]
    path = tmp_path / "equity.csv"
    write_equity_csv(curve, path)
    rows = ["t,timestamp,action,reward,cost,cum_return"] + [
        f"{p.t},{np.datetime_as_string(p.timestamp, unit='s')}Z,{p.action},"
        f"{p.reward!r},{p.cost!r},{p.cum_return!r}" for p in curve]
    assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()
    write_equity_csv([], path)
    assert path.read_bytes() == b"t,timestamp,action,reward,cost,cum_return\r\n"


def test_equity_curve_built_at_export():
    series = random_walk_series(60, seed=18)
    env = TradingEnv(series, EnvConfig(w=3, l=2), 0.0025)
    assert env.equity_curve() == []
    result = run_policy(env, baseline_policy("random", seed=2))
    curve = env.equity_curve()
    rewards = result.rewards
    assert [p.reward for p in curve] == rewards
    assert [p.action for p in curve] == result.actions
    for i, p in enumerate(curve):
        assert p.cum_return == (math.fsum(rewards[:i]) + rewards[i]) / env.psi
        assert p.t == env.start_index + i
        assert p.timestamp == series.timestamps[p.t]
    assert [p.cum_return for p in result.equity] == [p.cum_return for p in curve]

    # mid-episode the export covers the steps so far; reset clears it
    env.reset()
    costs = [env.step(Action.LONG).info["cost_paid"],
             env.step(Action.SHORT).info["cost_paid"]]
    assert [(p.action, p.cost) for p in env.equity_curve()] == list(zip([1, -1], costs))
    env.reset()
    assert env.equity_curve() == []


def test_observation_is_read_only_view():
    series = random_walk_series(30, seed=19)
    env = TradingEnv(series, EnvConfig(w=3, l=2))
    state = env.reset()
    assert state.to_vector() is state.to_vector()
    for window in (state.diffs_window, state.hours_window, state.sentiment_window):
        assert window.base is not None and not window.flags.writeable
    with pytest.raises(ValueError):
        state.diffs_window[0] = 1.0
    assert state.diffs_window.tolist() == series.diffs[2::-1].tolist()


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(w=0)
    with pytest.raises(ValueError):
        EnvConfig(phi=0.0)
    with pytest.raises(ValueError):
        StackEnv([random_walk_series(30)], EnvConfig(), [-0.1], True)
    with pytest.raises(ValueError):
        EnvConfig(cost_mode="percentage")
    assert EnvConfig(cost_mode=CostMode.FIXED_PER_UNIT).cost_mode is CostMode.FIXED_PER_UNIT


@pytest.mark.parametrize("stats", [(0.0,), (0.0, 1.0, 2.0), (math.nan, 1.0), (0.0, math.nan),
                                   (0.0, math.inf), (-math.inf, 1.0), (0.0, 0.0),
                                   (0.0, -1.0)])
def test_env_config_rejects_bad_diff_stats(stats):
    with pytest.raises(ValueError, match="diff_stats"):
        StackEnv([random_walk_series(30)], EnvConfig(), [0.0], True, [stats])


def test_env_config_stores_diff_stats_as_float_tuple():
    stats = check_diff_stats([1, np.float64(2.5)])
    assert stats == (1.0, 2.5) and all(type(v) is float for v in stats)
