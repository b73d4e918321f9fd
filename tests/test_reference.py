"""The per-trial oracles of reference.py stay out of the library, and the
closed forms that replaced them agree with them bit for bit."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_walk_series
from reference import TrialEnv, baseline_policy, run_policy
import sentarl
from sentarl import a2c, config, data, env, errors, evaluation, nn, sentiment
from sentarl.config import EnvConfig
from sentarl.env import TradingEnv
from sentarl.evaluation import annualized_return, run_buy_and_hold, run_matrix

MOVED = ("MarketState", "TrialEnv", "Policy", "baseline_policy", "run_policy",
         "action_from_index", "action_index", "Transition", "batch_of", "value_of",
         "advantage", "act_sample", "act_greedy", "greedy_policy", "softmax_sample",
         "sentiment_window", "ACTIONS", "episode_return", "PriceRecord", "HeadlineRecord",
         "truncate_to_hour", "epoch_seconds", "hour_stamp", "group_hourly", "fill_gaps",
         "compute_diffs", "Action", "EquityPoint", "EpisodeResult", "ReplayResult")


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
    assert "artifacts" not in inspect.signature(run_matrix).parameters
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
    stack = TradingEnv([random_walk_series(30)] * 2, EnvConfig(w=3, l=2), [0.0] * 2, True)
    stack.reset()
    with pytest.raises(ValueError, match="action"):
        stack.step([1, 1])
    stack.step([[1], [1]])
    assert not hasattr(stack, "cash")
    # configs hold only what the config file sets: the env and the learner
    # take each trial's values as arguments, and no list of configs
    assert list(inspect.signature(TradingEnv).parameters) == [
        "series", "config", "tc_rates", "use_sentiment", "diff_stats"]
    assert list(inspect.signature(a2c.train).parameters) == [
        "env", "config", "seeds", "policy_net", "value_net"]
    assert not hasattr(evaluation, "_trial_configs")
    assert list(inspect.signature(config.load_config).parameters) == ["path"]
    # the env's arrays are the episode record, and observe its one observation writer
    assert [name for name in ("equity_curve", "_observe") if hasattr(TradingEnv, name)] == []
    assert list(inspect.signature(TradingEnv.step).parameters) == ["self", "actions"]
    assert [f.name for f in dataclasses.fields(env.StepOutcome)] == ["reward", "done"]
    assert stack.reset() is None
    assert list(inspect.signature(env.write_equity_csv).parameters) == [
        "env", "trial", "path"]
    assert list(inspect.signature(evaluation.run_agent_trial).parameters) == [
        "key", "agent", "test_env", "trial", "artifacts_dir"]
    # one advantage path: critic_update writes the flush's advantages and the
    # rollout its policy forward, and actor_update reads both from the batch
    assert list(inspect.signature(a2c.actor_update).parameters) == [
        "batch", "policy_net", "config", "optimizer_state"]
    assert [name for module, name in ((a2c, "_td_residuals"), (evaluation, "RollingWindows"),
                                       (evaluation, "_safe_ar"),
                                       (evaluation, "_sharpe_or_none"))
            if hasattr(module, name)] == []
    # an env is ready at construction, and its clock says when it is done
    fresh = TradingEnv([random_walk_series(30)] * 2, EnvConfig(w=3, l=2), [0.0] * 2, True)
    assert [name for name in ("_started", "_done") if hasattr(fresh, name)] == []
    assert fresh.step([[1], [1]]).done is False
    assert list(inspect.signature(nn.RmspropState.create).parameters) == ["net"]
    assert list(inspect.signature(evaluation.make_windows).parameters) == ["length", "spec"]
    # one way in for each input: scores come from the news file or the lexicon,
    # outputs land in output_dir as the config says, and a cache read names its asset
    assert list(inspect.signature(sentiment.score_headlines).parameters) == [
        "headlines", "lexicon"]
    assert [name for module, name in ((sentiment, "SentimentScorer"),
                                       (sentiment, "LexiconScorer"),
                                       (config, "OUTPUT_ROOT_ENV"))
            if hasattr(module, name)] == []
    assert [f.name for f in dataclasses.fields(data.HeadlineTable)] == [
        "hours", "texts", "scores"]
    # one config schema: config declares every key and closed value set, each
    # set a tuple of strings, and errors holds only exception types
    assert [name for module, name in ((env, "CostMode"), (sentiment, "Grouping"),
                                       (sentiment, "FillPolicy"), (errors, "Choice"),
                                       (config, "_Section"), (config, "_parse_section"),
                                       (config, "_parse_assets"))
            if hasattr(module, name)] == []
    assert [name for name, value in vars(errors).items() if not name.startswith("__")
            and not (inspect.isclass(value) and issubclass(value, Exception))] == []
    assert [cls.__module__ for cls in (config.EnvConfig, config.A2cConfig,
                                       config.WindowSpec)] == ["sentarl.config"] * 3
    assert all(isinstance(choices, tuple) and all(isinstance(c, str) for c in choices)
               for choices in (config.STRATEGIES, config.COST_MODES, config.GROUPINGS,
                               config.FILL_POLICIES, config.ACTIVATIONS, config.OPTIMIZERS))
    assert set(sentiment.AGGREGATES) == set(config.GROUPINGS)


def test_the_config_schema_imports_no_learner_layer():
    code = "import sys, sentarl.config; print(sorted(m for m in sys.modules if 'sentarl' in m))"
    src = str(Path(sentarl.__file__).resolve().parents[1])
    loaded = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            check=True, capture_output=True, text=True, timeout=60).stdout
    assert "sentarl.config" in loaded
    for module in ("env", "nn", "a2c", "evaluation", "sentiment", "cli"):
        assert f"'sentarl.{module}'" not in loaded, module


@pytest.mark.parametrize("phi", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("base, vol", [(100.0, 0.5), (30_000.0, 150.0)])
def test_closed_form_buy_and_hold_matches_the_reference_episode(base, vol, phi):
    for seed in range(20):
        series = random_walk_series(30 + seed, seed=seed, base=base, vol=vol)
        cfg = EnvConfig(w=4, l=3, phi=phi)
        want = run_policy(TrialEnv(series, cfg, 0.0), baseline_policy("buy-and-hold"))
        tr = want.total_return
        # repr compares bits and types (a numpy float would print differently)
        assert repr(run_buy_and_hold(series, cfg)) == repr(
            (tr, annualized_return(tr, series.trading_days()), want.trade_count))
