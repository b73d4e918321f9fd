"""The per-trial oracles of reference.py stay out of the library, and the
closed forms that replaced them agree with them bit for bit."""

import dataclasses
import inspect

import numpy as np
import pytest

from conftest import random_walk_series
from reference import TrialEnv, baseline_policy, run_policy
import sentarl
from sentarl import a2c, data, env, evaluation, nn, sentiment
from sentarl.a2c import A2cConfig
from sentarl.env import CostMode, EnvConfig, TradingEnv
from sentarl.evaluation import annualized_return, run_buy_and_hold, run_matrix
from sentarl.sentiment import FillPolicy, Grouping

MOVED = ("MarketState", "TrialEnv", "Policy", "baseline_policy", "run_policy",
         "action_from_index", "action_index", "Transition", "batch_of", "value_of",
         "advantage", "act_sample", "act_greedy", "greedy_policy", "softmax_sample",
         "sentiment_window", "ACTIONS", "episode_return", "PriceRecord", "HeadlineRecord",
         "truncate_to_hour", "epoch_seconds", "hour_stamp", "group_hourly", "fill_gaps",
         "compute_diffs", "Action")


def test_the_library_keeps_one_path():
    for module in (sentarl, env, a2c, nn, sentiment, data):
        assert [name for name in MOVED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(a2c.Batch, "of")
    for cls, names in ((nn.Gradients, ("add_", "scale_")), (nn.Mlp, ("copy",)),
                       (sentiment.CorrelationPulse, ("peak",))):
        assert [name for name in names if hasattr(cls, name)] == [], cls.__name__
    assert "value_net" not in inspect.signature(a2c._targets).parameters
    # the package root holds its submodules and version, and re-exports nothing
    assert [name for name, value in vars(sentarl).items()
            if not name.startswith("_") and not inspect.ismodule(value)] == []
    assert isinstance(sentarl.__version__, str)
    assert not hasattr(env.EpisodeResult, "total_reward")
    assert [choice for choice in (CostMode, Grouping, FillPolicy)
            if hasattr(choice, "parse")] == []
    assert "artifacts" not in inspect.signature(run_matrix).parameters
    with pytest.raises(ValueError, match="list"):
        TradingEnv(random_walk_series(30), EnvConfig())
    # one form per layer: trials run only as chunks, nets take only row
    # batches, the env steps only action blocks and keeps no cash
    trial = inspect.signature(evaluation.run_agent_trial).parameters
    assert [name for name in ("train_slice", "env_config", "a2c_config") if name in trial] == []
    assert all(p.default is inspect.Parameter.empty for p in trial.values())
    assert inspect.signature(nn.backward).parameters["out"].default is inspect.Parameter.empty
    assert [f.name for f in dataclasses.fields(nn.ForwardCache)] == ["layer_sizes", "inputs"]
    assert "log_probs" not in [f.name for f in dataclasses.fields(a2c.Batch)]
    assert len(nn.softmax_draw(np.zeros((2, 3)), np.full(2, 0.5))) == 2
    assert "out" not in inspect.signature(TradingEnv.reset).parameters
    net = nn.Mlp.create((3, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        nn.forward(net, np.zeros(3))
    stack = TradingEnv(random_walk_series(30), [EnvConfig(w=3, l=2)] * 2)
    stack.reset()
    with pytest.raises(ValueError, match="action"):
        stack.step([1, 1])
    stack.step([[1], [1]])
    assert not hasattr(stack, "cash")
    for configs in ((EnvConfig(), A2cConfig()), (EnvConfig(), [A2cConfig()]),
                    ([EnvConfig()], A2cConfig())):
        with pytest.raises(ValueError, match=r"list.*\[env_config\], \[config\]"):
            a2c.train(random_walk_series(30), *configs)


@pytest.mark.parametrize("phi", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("base, vol", [(100.0, 0.5), (30_000.0, 150.0)])
def test_closed_form_buy_and_hold_matches_the_reference_episode(base, vol, phi):
    for seed in range(20):
        series = random_walk_series(30 + seed, seed=seed, base=base, vol=vol)
        cfg = EnvConfig(w=4, l=3, phi=phi, tc_rate=0.0025)
        want = run_policy(TrialEnv(series, dataclasses.replace(cfg, tc_rate=0.0)),
                          baseline_policy("buy-and-hold"))
        tr = want.total_return
        # repr compares bits and types (a numpy float would print differently)
        assert repr(run_buy_and_hold(series, cfg)) == repr(
            (tr, annualized_return(tr, series.trading_days()), want.trade_count))
