"""Top-level acceptance checks.

Each test exercises one system-level guarantee end to end: metric formulas
against published reference pairs, gradient math against finite differences,
the cash-accounting identity, benchmark equivalence, reward replay fidelity,
the lagged-correlation diagnostic, learnability on a predictable series,
ablation parity, matrix determinism under interrupt/resume, and Sharpe
arithmetic. A status line per test is printed by the conftest hook.
"""

import math
import time

import numpy as np
import pytest

from conftest import build_series, random_walk_series, sinusoid_series
from reference import (Action, TrialEnv, backward_any, copy_net, forward_row, greedy_policy,
                       pulse_peak, run_policy, train_one)
from sentarl.config import STRATEGIES, A2cConfig, EnvConfig, WindowSpec
from sentarl.evaluation import (annualized_return,
                                report, run_buy_and_hold, run_matrix, sharpe)
from sentarl.nn import Mlp
from sentarl.sentiment import series_pulse


def test_criterion_01_annualized_return_cross_check():
    """Published (TR%, AR%) pairs at 77 trading days, +/-0.10pp."""
    pairs = [(2.43, 12.03), (1.98, 9.73), (2.83, 14.12),
             (1.41, 6.86), (1.79, 8.8)]
    start = time.perf_counter()
    for tr_pct, ar_pct in pairs:
        got = annualized_return(tr_pct / 100.0, trading_days=77) * 100.0
        assert abs(got - ar_pct) <= 0.10, (tr_pct, ar_pct, got)
    assert time.perf_counter() - start < 1.0


def _fd_spot_check(net: Mlp, rng: np.random.Generator, n_coords: int,
                   eps: float = 1e-5) -> float:
    """Worst relative error between backprop and central differences over
    randomly sampled parameter coordinates of one net."""
    x = rng.normal(size=net.input_size)
    loss_weights = rng.normal(size=net.output_size)
    _, cache = forward_row(net, x)
    grads = backward_any(net, cache, loss_weights)
    arrays = list(zip(net.weights, grads.weights)) + \
        list(zip(net.biases, grads.biases))
    worst = 0.0
    for _ in range(n_coords):
        param, grad = arrays[int(rng.integers(len(arrays)))]
        flat = param.reshape(-1)
        j = int(rng.integers(flat.size))
        orig = flat[j]
        flat[j] = orig + eps
        hi = float(loss_weights @ forward_row(net, x)[0])
        flat[j] = orig - eps
        lo = float(loss_weights @ forward_row(net, x)[0])
        flat[j] = orig
        fd = (hi - lo) / (2.0 * eps)
        analytic = float(grad.reshape(-1)[j])
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8))
    return worst


def test_criterion_02_gradient_finite_difference():
    """Backprop vs central differences on 100 nets of each working shape."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for sizes in ((46, 64, 64, 3), (46, 64, 64, 1)):
        for _ in range(100):
            net = Mlp.create(sizes, rng)
            worst = max(worst, _fd_spot_check(net, rng, n_coords=32))
    assert worst < 1e-4, worst
    assert time.perf_counter() - start < 30.0


def test_criterion_03_wealth_accounting_identity():
    """Final wealth equals initial wealth plus summed rewards, 1000 cases."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for case in range(1000):
        n = int(rng.integers(10, 45))
        series = random_walk_series(n, seed=case, vol=float(rng.uniform(0.1, 2.0)))
        w, l = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi = float(rng.uniform(0.25, 4.0))
        tc_rate = float(rng.choice([0.0, 0.0025, 0.01, 0.1]))
        config = EnvConfig(
            w=w, l=l, phi=phi,
            cost_mode="proportional" if rng.random() < 0.5
            else "fixed-per-unit")
        env = TrialEnv(series, config, tc_rate)
        env.reset()
        rewards = []
        while not env.done:
            rewards.append(env.step(int(rng.integers(-1, 2))).reward)
        expected = env.psi + math.fsum(rewards)
        assert abs(env.wealth - expected) <= 1e-9 * max(1.0, abs(expected))
    assert time.perf_counter() - start < 10.0


def test_criterion_04_forced_long_matches_benchmark():
    """Always-Long at zero cost reproduces the buy-and-hold TR to 1e-12."""
    cases = [random_walk_series(int(n), seed=s) for s, n in
             enumerate(np.linspace(30, 90, 20))]
    cases.append(sinusoid_series(80))
    cases.append(build_series(np.linspace(50, 150, 40)))
    cases.append(build_series(np.linspace(150, 50, 40)))
    for series in cases:
        config = EnvConfig(w=4, l=3)
        forced = run_policy(TrialEnv(series, config, 0.0), lambda state: Action.LONG)
        bh_tr, _, _ = run_buy_and_hold(series, config)
        assert abs(forced.total_return - bh_tr) <= 1e-12
        # both telescope to the end-to-start price gap per share
        t0 = max(config.w, config.l - 1)
        closed_form = (series.prices[-1] - series.prices[t0]) / series.prices[0]
        assert abs(bh_tr - closed_form) <= 1e-12


def test_criterion_05_reward_replay_oracle():
    """Episode reward totals match an independent replay of the profit and
    switching-cost recurrence in fixed-per-unit cost mode, 1e-9 relative."""
    rng = np.random.default_rng(5)
    for case in range(100):
        n = int(rng.integers(12, 50))
        series = random_walk_series(n, seed=1000 + case)
        phi = float(rng.uniform(0.5, 3.0))
        c = float(rng.choice([0.0, 0.05, 0.25, 1.0]))
        config = EnvConfig(w=3, l=2, phi=phi, cost_mode="fixed-per-unit")
        env = TrialEnv(series, config, c)
        env.reset()
        actions: list[int] = []
        while not env.done:
            action = int(rng.integers(-1, 2))
            actions.append(action)
            env.step(action)
        result_total = math.fsum(p.reward for p in env.equity_curve())

        total = 0.0
        prev = 0
        prices = series.prices
        for offset, action in enumerate(actions):
            t = env.start_index + offset
            z = float(prices[t + 1] - prices[t])
            total += phi * (z * action - c * abs(action - prev))
            prev = action
        assert abs(result_total - total) <= 1e-9 * max(1.0, abs(total))


def test_criterion_06_lagged_sentiment_pulse_peak():
    """Sentiment copied from price diffs two hours late peaks at shift -2."""
    series = random_walk_series(120, seed=6)
    sentiment = np.zeros(len(series))
    sentiment[3:] = series.diffs[: len(series) - 3]  # e_t = z_{t-2}
    lagged = build_series(series.prices, sentiment)
    pulse = series_pulse(lagged, shifts=range(-10, 4))
    assert len(pulse.shifts) == 14
    shift, value = pulse_peak(pulse)
    assert shift == -2
    assert abs(value - 1.0) <= 1e-9


def test_criterion_07_learnability_on_sinusoid():
    """Greedy policies trained on a 24-hour price cycle beat buy-and-hold on
    the held-out continuation for at least 4 of 5 seeds."""
    start = time.perf_counter()
    series = sinusoid_series(193)
    train_slice = series.slice(0, 120)
    test_slice = series.slice(120, 193)
    config = EnvConfig(w=20, l=5)
    bh_tr, _, _ = run_buy_and_hold(test_slice, config)
    wins = 0
    for seed in range(5):
        agent = train_one(train_slice, config, A2cConfig(), seed, 0.0, use_sentiment=False)
        episode = run_policy(TrialEnv(test_slice, config, 0.0, use_sentiment=False),
                             greedy_policy(agent.policy_net))
        wins += episode.total_return > bh_tr
    assert wins >= 4, f"beat the benchmark on {wins}/5 seeds"
    assert time.perf_counter() - start < 120.0


def _widen_first_layer(net: Mlp, extra_rows: int) -> Mlp:
    """Prepend zero-weight input rows; the new inputs start inert."""
    first = np.vstack([np.zeros((extra_rows, net.weights[0].shape[1])),
                       net.weights[0]])
    return Mlp((net.layer_sizes[0] + extra_rows, *net.layer_sizes[1:]),
               [first] + [w.copy() for w in net.weights[1:]],
               [b.copy() for b in net.biases],
               net.activation)


def test_criterion_08_ablation_first_update_parity():
    """With the sentiment channel all zero and its input weights
    zero-initialized, the sentiment-aware and sentiment-free agents see
    dimensions 46 vs 41 and identical first-update critic losses."""
    env_config = EnvConfig(w=20, l=5)
    assert env_config.state_dim(use_sentiment=True) == 46
    assert env_config.state_dim(use_sentiment=False) == 41

    prices = 100.0 + np.cumsum(np.random.default_rng(8).normal(0.0, 0.5, 26))
    series = build_series(prices)  # sentiment defaults to constant 0
    config, seed = A2cConfig(episodes=1, n_steps=5), 0

    rng = np.random.default_rng(seed)
    policy41 = Mlp.create((41, 64, 64, 3), rng, config.activation)
    value41 = Mlp.create((41, 64, 64, 1), rng, config.activation)
    policy46 = _widen_first_layer(copy_net(policy41), 5)
    value46 = _widen_first_layer(copy_net(value41), 5)

    plain = train_one(series, env_config, config, seed, use_sentiment=False,
                      policy_net=policy41, value_net=value41)
    sentiment_aware = train_one(series, env_config, config, seed, use_sentiment=True,
                                policy_net=policy46, value_net=value46)
    loss_a = plain.log[0].critic_loss
    loss_b = sentiment_aware.log[0].critic_loss
    assert abs(loss_a - loss_b) <= 1e-9, (loss_a, loss_b)


def test_criterion_09_matrix_determinism_resume(tmp_path):
    """A straight matrix run and an interrupted-then-resumed run over two
    assets, two windows, two seeds, and one cost rate produce byte-identical
    results files."""
    series = {"AST.A": random_walk_series(60, seed=101, asset="AST.A"),
              "AST.B": random_walk_series(60, seed=202, asset="AST.B")}
    kwargs = dict(window_spec=WindowSpec(train_len=30, test_len=10,
                                         stride=10, count=2),
                  seeds=[0, 1], tc_rates=[0.0025],
                  strategies=list(STRATEGIES),
                  env_config=EnvConfig(w=3, l=2),
                  a2c_config=A2cConfig(episodes=2, hidden_sizes=(8,)))

    straight = run_matrix(series, out_dir=tmp_path / "straight", **kwargs)
    assert not straight.failures and straight.pending == 0
    assert len(straight.results) == 2 * 2 * 2 * 1 * 3

    interrupted = run_matrix(series, out_dir=tmp_path / "resumed", limit=11,
                             **kwargs)
    assert interrupted.pending == len(straight.results) - 11
    resumed = run_matrix(series, out_dir=tmp_path / "resumed", **kwargs)
    assert resumed.pending == 0

    assert (tmp_path / "resumed" / "results.csv").read_bytes() == \
        (tmp_path / "straight" / "results.csv").read_bytes()


def test_criterion_10_sharpe_arithmetic(tmp_path):
    """sharpe([1,2,3]) is exactly 2; positive scaling leaves it unchanged;
    zero variance yields the undefined marker, never a number."""
    assert sharpe([1.0, 2.0, 3.0]) == 2.0

    rng = np.random.default_rng(10)
    for _ in range(50):
        values = rng.normal(0.0, 1.0, size=int(rng.integers(2, 12)))
        if np.std(values, ddof=1) == 0.0:
            continue
        scale = float(rng.uniform(0.01, 80.0))
        base = sharpe(values)
        scaled = sharpe(values * scale)
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))

    undefined = sharpe([0.2, 0.2, 0.2])
    assert undefined is None
    assert not isinstance(undefined, (int, float))

    # the undefined marker stays an empty cell in written reports
    from sentarl.evaluation import TrialResult
    rows = [TrialResult("A", 0, s, 0.0, "sentarl", 0.1, 0.2, 1) for s in (0, 1)]
    report(rows, out_dir=tmp_path)
    overall = (tmp_path / "overall.csv").read_text().splitlines()
    assert overall[1].split(",")[4] == ""
