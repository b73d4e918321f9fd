"""End-to-end command tests driven through main(argv) in process."""

import dataclasses
import fcntl
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import hourly_stamps, write_news_csv, write_price_csv
import sentarl
from sentarl import cli, evaluation
from sentarl.cli import main
from sentarl.config import (A2cConfig, EnvConfig, RunConfig, WindowSpec, config_to_json,
                            echo_config, load_config)
from sentarl.data import load_aligned
from sentarl.errors import ConfigError, NonFiniteGradientError


def make_workspace(tmp_path, n=60, news=True, **overrides):
    """Price/news CSVs plus a small-matrix config; returns the config path."""
    rng = np.random.default_rng(17)
    prices = np.round(100.0 + np.cumsum(rng.normal(0.0, 0.5, n)), 6)
    stamps = hourly_stamps(n)
    write_price_csv(tmp_path / "prices_AAA.csv",
                    list(zip(stamps, [repr(float(p)) for p in prices])))
    config = {
        "assets": {"AAA": {"prices": "prices_AAA.csv"}},
        "env": {"w": 3, "l": 2},
        "agent": {"episodes": 2, "hidden_sizes": [4]},
        "seeds": [0, 1],
        "tc_rates": [0.0],
        "windows": {"train_len": 30, "test_len": 10, "stride": 10, "count": 2},
        "output_dir": str(tmp_path / "out"),
    }
    if news:
        rows = [(stamps[i].replace(":00:00Z", ":30:00Z"), f"update {i}",
                 repr(round(float(rng.uniform(-1.0, 1.0)), 4)))
                for i in range(0, n, 3)]
        write_news_csv(tmp_path / "news_AAA.csv", rows)
        config["assets"]["AAA"]["news"] = "news_AAA.csv"
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def test_ingest_happy_path(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    assert main(["ingest", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "AAA: 60 hourly points" in out
    assert "coverage 0.3333" in out
    cache = tmp_path / "out" / "caches" / "AAA.aligned.csv"
    assert cache.exists()
    series = load_aligned(cache, asset="AAA")
    assert len(series) == 60
    assert np.any(series.sentiment != 0.0)


def test_ingest_without_news_zeroes_sentiment(tmp_path, caplog):
    cfg = make_workspace(tmp_path, news=False)
    with caplog.at_level(logging.WARNING):
        assert main(["ingest", "--config", str(cfg)]) == 0
    assert "sentiment channel is all zeros" in caplog.text
    series = load_aligned(tmp_path / "out" / "caches" / "AAA.aligned.csv",
                          asset="AAA")
    assert np.all(series.sentiment == 0.0)


def test_ingest_headline_scoring(tmp_path):
    cfg = make_workspace(tmp_path, news=False)
    stamps = hourly_stamps(60)
    write_news_csv(tmp_path / "news_AAA.csv",
                   [(stamps[3].replace(":00:00Z", ":30:00Z"), "profit soars", ""),
                    (stamps[9].replace(":00:00Z", ":30:00Z"), "fraud probe loss", "")])
    config = json.loads(cfg.read_text())
    config["assets"]["AAA"]["news"] = "news_AAA.csv"
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(cfg)]) == 0
    series = load_aligned(tmp_path / "out" / "caches" / "AAA.aligned.csv",
                          asset="AAA")
    assert series.sentiment[3] > 0.0   # bundled lexicon scores the words
    assert series.sentiment[9] < 0.0


def test_ingest_scores_unscored_headlines_with_a_configured_lexicon(tmp_path):
    (tmp_path / "lex.csv").write_text("word,weight\nzorp,0.8\nBlarg,-0.6\n")
    cfg = make_workspace(tmp_path, news=False, lexicon="lex.csv")
    stamps = hourly_stamps(60)
    write_news_csv(tmp_path / "news_AAA.csv",
                   [(stamps[3].replace(":00:00Z", ":30:00Z"), "zorp profit", ""),
                    (stamps[9].replace(":00:00Z", ":30:00Z"), "blarg soars", ""),
                    (stamps[12].replace(":00:00Z", ":30:00Z"), "zorp", "-0.25")])
    config = json.loads(cfg.read_text())
    config["assets"]["AAA"]["news"] = "news_AAA.csv"
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(cfg)]) == 0
    series = load_aligned(tmp_path / "out" / "caches" / "AAA.aligned.csv", asset="AAA")
    # only the configured lexicon's words count; a precomputed score still wins
    assert series.sentiment[3] == 0.8 and series.sentiment[9] == -0.6
    assert series.sentiment[12] == -0.25
    assert np.count_nonzero(series.sentiment) == 3


@pytest.mark.parametrize("text, message", [
    ("word,weight\nzorp\n", "lex.csv:2: expected 2 fields, got 1"),
    ("word,weight\nzorp,0.5\nblarg,lots\n", "lex.csv:3: bad weight 'lots'"),
    ("word,weight\nzorp,1.5\n", "lex.csv:2: weight 1.5 outside [-1, 1]"),
    ("word,weight\ncovid-19,-0.5\n", "lex.csv:2: word 'covid-19' is not a headline word"),
    ("word,weight\nzorp,0.5\n,0.1\n", "lex.csv:3: word '' is not a headline word"),
    ("word,weight\n", "lex.csv: lexicon holds no words"),
    ("word,score\nzorp,0.5\n", "lex.csv:1: bad header"),
])
def test_ingest_malformed_lexicon_exits_3_naming_the_line(tmp_path, capsys, text, message):
    (tmp_path / "lex.csv").write_text(text)
    cfg = make_workspace(tmp_path, lexicon="lex.csv")
    assert main(["ingest", "--config", str(cfg)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "caches" / "AAA.aligned.csv").exists()


def test_ingest_with_a_missing_news_file_zeroes_sentiment(tmp_path, caplog):
    cfg = make_workspace(tmp_path)
    (tmp_path / "news_AAA.csv").unlink()
    with caplog.at_level(logging.WARNING):
        assert main(["ingest", "--config", str(cfg)]) == 0
    assert "news_AAA.csv not found; sentiment channel is all zeros" in caplog.text
    series = load_aligned(tmp_path / "out" / "caches" / "AAA.aligned.csv", asset="AAA")
    assert len(series) == 60 and np.all(series.sentiment == 0.0)


def test_ingest_corrupt_price_exits_3(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    prices_path = tmp_path / "prices_AAA.csv"
    lines = prices_path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-5.0"
    prices_path.write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "prices_AAA.csv:4: non-positive price" in err


def test_ingest_an_out_of_range_offset_stamp_exits_3(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    prices_path = tmp_path / "prices_AAA.csv"
    lines = prices_path.read_text().splitlines()
    lines[1] = "0001-01-01T00:30:00+01:00," + lines[1].rsplit(",", 1)[1]
    prices_path.write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--config", str(cfg)]) == 3
    assert ("prices_AAA.csv:2: bad timestamp '0001-01-01T00:30:00+01:00': "
            "date value out of range") in capsys.readouterr().err


@pytest.mark.parametrize("where, code, message", [
    ("assets.AAA.prices", 2, "config error: assets.AAA.prices: file not found: {path}"),
    ("lexicon", 2, "config error: lexicon: file not found: {path}"),
    ("assets.AAA.news", 3, "ingest error: {path}: cannot read the file: Is a directory"),
])
def test_ingest_with_a_directory_for_a_data_file_exits_naming_it(tmp_path, capsys, where,
                                                                 code, message):
    cfg = make_workspace(tmp_path)
    (tmp_path / "data").mkdir()
    config = json.loads(cfg.read_text())
    *path, key = where.split(".")
    node = config
    for part in path:
        node = node[part]
    node[key] = "data"
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(cfg)]) == code
    assert capsys.readouterr().err == message.format(path=tmp_path / "data") + "\n"
    assert not (tmp_path / "out" / "caches").exists()


def test_ingest_a_news_file_that_is_not_utf8_exits_3_naming_it(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    news = tmp_path / "news_AAA.csv"
    news.write_bytes(news.read_bytes().replace(b"update 3", b"caf\xe9 3"))
    assert main(["ingest", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (f"ingest error: {news}: not UTF-8 text: "
                                       "invalid continuation byte\n")
    assert not (tmp_path / "out" / "caches").exists()


def test_ingest_unknown_asset_exits_2(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    assert main(["ingest", "--config", str(cfg), "--asset", "ZZZ"]) == 2
    assert "not in the config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "train", "corr-pulse"])
@pytest.mark.parametrize("asset", ["ZZZ", "../x"])
def test_commands_reject_an_asset_not_in_the_config_before_writing(tmp_path, capsys,
                                                                    command, asset):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    caches = tmp_path / "out" / "caches"
    # a leftover cache where a path built from the name would look
    leftover = caches / f"{asset}.aligned.csv"
    leftover.write_bytes((caches / "AAA.aligned.csv").read_bytes())
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--asset", asset]) == 2
    assert (f"config error: asset {asset!r} is not in the config (have: ['AAA'])"
            in capsys.readouterr().err)
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = make_workspace(tmp_path, typo=1)
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["ingest", "--config", str(missing)]) == 2
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    assert main(["ingest", "--config", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


#: The dataclass of each config section.
SECTIONS = {"env": EnvConfig, "agent": A2cConfig, "windows": WindowSpec}


def minimal_config(tmp_path, **top):
    """A config file with one empty price file and the given top-level keys."""
    (tmp_path / "p.csv").write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"assets": {"AAA": {"prices": "p.csv"}}, **top}))
    return path


def default_echo(tmp_path) -> dict:
    return config_to_json(load_config(minimal_config(tmp_path)))


def test_each_config_section_sets_exactly_its_dataclass_fields(tmp_path):
    echo = default_echo(tmp_path)
    for name, cls in SECTIONS.items():
        assert list(echo[name]) == [field.name for field in dataclasses.fields(cls)], name


@pytest.mark.parametrize("section, key", [
    (name, field.name) for name, cls in SECTIONS.items() for field in dataclasses.fields(cls)])
def test_every_dataclass_field_is_a_config_key(tmp_path, section, key):
    default = default_echo(tmp_path)[section][key]
    config = load_config(minimal_config(tmp_path, **{section: {key: default}}))
    assert getattr(config, section) == SECTIONS[section]()
    with pytest.raises(ConfigError, match=rf"^{section}: unknown key\(s\) \['{key}_'\]$"):
        load_config(minimal_config(tmp_path, **{section: {key: default, f"{key}_": default}}))


@pytest.mark.parametrize("key", [field.name for field in dataclasses.fields(RunConfig)
                                 if field.name != "assets"])
def test_every_run_config_field_is_a_top_level_key(tmp_path, key):
    default = load_config(minimal_config(tmp_path))
    # load_config adds no default of its own: a file without the key gets the field's
    assert default == RunConfig(assets=default.assets)
    path = minimal_config(tmp_path, **{key: config_to_json(default)[key]})
    assert load_config(path) == default
    unknown = rf"^{re.escape(str(path))}: unknown key\(s\) \['{key}_'\]$"
    with pytest.raises(ConfigError, match=unknown):
        load_config(minimal_config(tmp_path, **{key: config_to_json(default)[key],
                                                f"{key}_": None}))


def test_readme_config_block_shows_every_section_key_at_its_default(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config reference", 1)[1].split("```json\n", 1)[1]
    documented = json.loads(block.split("```", 1)[0])
    echo = default_echo(tmp_path)
    assert list(documented) == list(echo)
    assert {**documented, "assets": None} == {**echo, "assets": None}


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    (tmp_path / "p.csv").write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"assets": {"AAA": {"prices": "p.csv"}}}))
    config = load_config(path)
    assert config.env == EnvConfig()
    assert config.agent == A2cConfig()
    assert config.windows == WindowSpec()
    echo = config_to_json(config)
    assert echo["env"] == {"w": 20, "l": 5, "phi": 1.0, "cost_mode": "proportional"}
    assert echo["agent"] == {
        "gamma": 0.99, "lr_actor": 7e-4, "lr_critic": 7e-4, "n_steps": 5,
        "episodes": 100, "entropy_coef": 0.0, "hidden_sizes": [64, 64],
        "activation": "tanh", "max_grad_norm": None, "optimizer": "sgd",
        "use_n_step_returns": False}
    assert echo["windows"] == {"train_len": 3377, "test_len": 374, "stride": 374,
                               "count": 5}
    # the echo lists each section's every key, and parses back to the same config
    path.write_text(json.dumps(echo))
    assert load_config(path) == config


#: A config with every key off its default, an asset without news and a
#: lexicon, but for output_dir, which the test sets to <dir>/out; and its
#: echo, with the config file's directory written as <dir>.
NON_DEFAULT = {
    "assets": {"BBB": {"prices": "q.csv"}, "AAA": {"prices": "p.csv", "news": "n.csv"}},
    "lexicon": "lex.csv", "grouping": "max", "fill": "forward-fill",
    "env": {"w": 3, "l": 2, "phi": 2, "cost_mode": "fixed-per-unit"},
    "tc_rates": [0.001, 0.5],
    "agent": {"gamma": 0.9, "lr_actor": 0.001, "lr_critic": 0.002, "n_steps": 3,
              "episodes": 2, "entropy_coef": 0.01, "hidden_sizes": [8],
              "activation": "relu", "max_grad_norm": 1.0, "optimizer": "rmsprop",
              "use_n_step_returns": True},
    "seeds": [7, 3], "windows": {"train_len": 50, "test_len": 10, "stride": 12, "count": 2},
    "strategies": ["sentarl", "buy-and-hold"], "workers": 3}
NON_DEFAULT_ECHO = """{
  "assets": {
    "AAA": {
      "prices": "<dir>/p.csv",
      "news": "<dir>/n.csv"
    },
    "BBB": {
      "prices": "<dir>/q.csv",
      "news": null
    }
  },
  "lexicon": "<dir>/lex.csv",
  "grouping": "max",
  "fill": "forward-fill",
  "env": {
    "w": 3,
    "l": 2,
    "phi": 2.0,
    "cost_mode": "fixed-per-unit"
  },
  "tc_rates": [
    0.001,
    0.5
  ],
  "agent": {
    "gamma": 0.9,
    "lr_actor": 0.001,
    "lr_critic": 0.002,
    "n_steps": 3,
    "episodes": 2,
    "entropy_coef": 0.01,
    "hidden_sizes": [
      8
    ],
    "activation": "relu",
    "max_grad_norm": 1.0,
    "optimizer": "rmsprop",
    "use_n_step_returns": true
  },
  "seeds": [
    7,
    3
  ],
  "windows": {
    "train_len": 50,
    "test_len": 10,
    "stride": 12,
    "count": 2
  },
  "strategies": [
    "sentarl",
    "buy-and-hold"
  ],
  "output_dir": "<dir>/out",
  "workers": 3
}
"""


def test_echo_of_a_config_with_every_key_off_its_default(tmp_path):
    for name in ("p.csv", "q.csv", "lex.csv"):
        (tmp_path / name).write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**NON_DEFAULT, "output_dir": str(tmp_path / "out")}))
    config = load_config(path)
    echo_config(config, tmp_path / "config.echo.json")
    text = (tmp_path / "config.echo.json").read_text(encoding="utf-8")
    assert text.replace(str(tmp_path), "<dir>") == NON_DEFAULT_ECHO
    echo = json.loads(text)
    assert list(echo) == [field.name for field in dataclasses.fields(RunConfig)]
    default = default_echo(tmp_path)
    for key in echo.keys() - {"assets"}:
        if key in SECTIONS:
            assert all(echo[key][k] != v for k, v in default[key].items()), key
        else:
            assert echo[key] != default[key], key


@pytest.mark.parametrize("where, value", [
    ("agent.entropy_coef", float("nan")),
    ("agent.max_grad_norm", float("nan")),
    ("env.phi", float("inf")),
    pytest.param("env.phi", 10**400, id="env.phi-10**400"),
    ("tc_rates", [float("nan")]),
    ("agent.lr_actor", float("inf")),
    ("agent.use_n_step_returns", "false"),
])
def test_config_rejects_non_finite_numbers_and_non_booleans(tmp_path, capsys, where, value):
    cfg = make_workspace(tmp_path)
    config = json.loads(cfg.read_text())
    section, _, key = where.rpartition(".")
    (config.setdefault(section, {}) if section else config)[key] = value
    cfg.write_text(json.dumps(config))  # NaN and Infinity, as Python's json writes them
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert f"config error: {where}" in capsys.readouterr().err


MALFORMED_ROWS = [
    ("env", [20], "env: expected an object"),
    ("assets.AAA", {"news": "news_AAA.csv"}, "assets.AAA: missing required key 'prices'"),
    ("assets", {}, "assets: at least one asset is required"),
    ("assets", {"A B": {"prices": "prices_AAA.csv"}}, "assets: invalid asset name 'A B'"),
    ("assets.AAA.prices", "missing.csv", "assets.AAA.prices: file not found"),
    ("lexicon", "missing.csv", "lexicon: file not found"),
    ("env.w", 2.5, "env.w: expected an integer"),
    ("env.w", 0, "env.w: 0 is below the minimum 1"),
    ("agent.gamma", 1.5, "agent.gamma: 1.5 exceeds the maximum 1.0"),
    ("agent.activation", 3, "agent.activation: expected a string"),
    ("agent.hidden_sizes", 64, "agent.hidden_sizes: expected a list"),
    ("tc_rates", [], "tc_rates: expected a non-empty list"),
    ("seeds", [], "seeds: expected a non-empty list"),
    ("strategies", [], "strategies: expected a non-empty list"),
    ("strategies", ["sentarl", "momentum"], "strategies: unknown ['momentum']"),
    ("windows.stride", 5, "windows: stride must be >= test_len"),
    ("grouping", "median", "grouping: unknown grouping method 'median'"),
    ("fill", "backfill", "fill: unknown fill policy 'backfill'"),
    ("seeds", [-1], "seeds[0]: -1 is below the minimum 0"),
    ("env.l", -1, "env.l: -1 is below the minimum 0"),
    ("agent.n_steps", 0, "agent.n_steps: 0 is below the minimum 1"),
    ("agent.episodes", 0, "agent.episodes: 0 is below the minimum 1"),
    ("agent.entropy_coef", -0.5, "agent.entropy_coef: -0.5 is below the minimum 0.0"),
    ("agent.hidden_sizes", [0], "agent.hidden_sizes[0]: 0 is below the minimum 1"),
    ("windows.train_len", 0, "windows.train_len: 0 is below the minimum 1"),
    ("windows.test_len", 0, "windows.test_len: 0 is below the minimum 1"),
    ("windows.stride", 0, "windows.stride: 0 is below the minimum 1"),
    ("windows.count", 0, "windows.count: 0 is below the minimum 1"),
]


@pytest.mark.parametrize("where, value, message", MALFORMED_ROWS)
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, where, value, message):
    cfg = make_workspace(tmp_path)
    config = json.loads(cfg.read_text())
    *path, key = where.split(".")
    node = config
    for part in path:
        node = node.setdefault(part, {})
    node[key] = value
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "caches").exists()


VALUE_ERROR_ROWS = [
    ("env.cost_mode", "x", "env.cost_mode: unknown cost mode 'x'"),
    ("agent.optimizer", "adamw", "agent.optimizer: unknown optimizer 'adamw'"),
    ("agent.activation", "relu6", "agent.activation: unknown activation 'relu6'"),
    ("env.phi", 0.0, "env.phi: phi must be positive"),
    ("agent.lr_critic", 0.0, "agent.lr_critic: learning rates must be positive"),
    ("agent.max_grad_norm", -1.0, "agent.max_grad_norm: max_grad_norm must be positive"),
]


@pytest.mark.parametrize("where, value, message", VALUE_ERROR_ROWS)
def test_config_value_errors_name_their_dotted_key(tmp_path, capsys, where, value, message):
    cfg = make_workspace(tmp_path)
    config = json.loads(cfg.read_text())
    section, key = where.split(".")
    config.setdefault(section, {})[key] = value
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, message", [
    row for row in MALFORMED_ROWS + VALUE_ERROR_ROWS if row[0].rpartition(".")[0] in SECTIONS])
def test_library_constructors_raise_the_config_error_text(tmp_path, capsys, where, value,
                                                          message):
    cfg = make_workspace(tmp_path)
    config = json.loads(cfg.read_text())
    section, key = where.split(".")
    fields = config.setdefault(section, {})
    fields[key] = value
    cfg.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(cfg)]) == 2
    with pytest.raises(ValueError) as raised:
        SECTIONS[section](**fields)
    assert capsys.readouterr().err == f"config error: {raised.value}\n"
    assert str(raised.value).startswith(message)


def test_corr_pulse_defaults(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["corr-pulse", "--config", str(cfg), "--asset", "AAA"]) == 0
    out = capsys.readouterr().out
    shift_lines = [l for l in out.splitlines() if l.startswith("shift ")]
    assert len(shift_lines) == 14  # -10 .. +3
    pulse = tmp_path / "out" / "pulse" / "AAA.pulse.csv"
    assert pulse.exists()
    assert len(pulse.read_text().splitlines()) == 15


def test_corr_pulse_constant_sentiment_undefined(tmp_path, capsys):
    cfg = make_workspace(tmp_path, news=False)
    main(["ingest", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["corr-pulse", "--config", str(cfg), "--asset", "AAA"]) == 0
    out = capsys.readouterr().out
    assert out.count("undefined") == 14


def test_corr_pulse_shift_order_and_missing_cache(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    assert main(["corr-pulse", "--config", str(cfg), "--asset", "AAA",
                 "--min-shift", "2", "--max-shift", "-2"]) == 2
    assert "--min-shift" in capsys.readouterr().err
    assert main(["corr-pulse", "--config", str(cfg), "--asset", "AAA"]) == 3
    assert "run `sentarl ingest` first" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("corr-pulse", "--min-shift", "-5000"), ("corr-pulse", "--max-shift", "5000"),
    ("corr-pulse", "--min-shift", "-57"), ("report", "--shift", "5000"),
    ("report", "--shift", "-57")])
def test_an_out_of_range_shift_names_its_flag_before_writing(tmp_path, capsys, command,
                                                             flag, value):
    cfg = make_workspace(tmp_path)  # 60 hourly points: shifts -56 .. 56 keep 3 pairs
    main(["ingest", "--config", str(cfg)])
    out = tmp_path / "out"
    if command == "report":
        assert main(["run", "--config", str(cfg)]) == 0
        args = ["report", "--results", str(out)]
    else:
        args = ["corr-pulse", "--config", str(cfg), "--asset", "AAA"]
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main([*args, flag, value]) == 2
    assert f"config error: {flag}: {value} is outside [-56, 56]" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # the widest shifts the series allows still run
    widest = ["--shift", "-56"] if command == "report" else ["--min-shift", "-56",
                                                              "--max-shift", "56"]
    assert main([*args, *widest]) == 0


def test_train_command(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--asset", "AAA",
                 "--window", "0", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "tr=" in out and "trades=" in out
    debug = tmp_path / "out" / "debug"
    names = {p.name for p in debug.iterdir()}
    assert "AAA_w0_s0_tc0.0_sentarl.policy.json" in names
    assert "AAA_w0_s0_tc0.0_sentarl.train.csv" in names
    assert main(["train", "--config", str(cfg), "--asset", "AAA",
                 "--window", "9"]) == 2
    assert "--window" in capsys.readouterr().err


def test_train_writes_the_bytes_run_writes_for_the_same_key(tmp_path):
    # run trains each strategy's four keys as one lockstep stack; train
    # trains one key as a stack of one
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for window, seed, strategy in ((1, 1, "sentarl"), (0, 1, "no-sentiment")):
        assert main(["train", "--config", str(cfg), "--asset", "AAA", "--window", str(window),
                     "--seed", str(seed), "--tc", "0.0", "--strategy", strategy]) == 0
        stem = f"AAA_w{window}_s{seed}_tc0.0_{strategy}"
        for suffix in evaluation.ARTIFACT_SUFFIXES:
            debug = (out / "debug" / f"{stem}{suffix}").read_bytes()
            assert debug == (out / "artifacts" / f"{stem}{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("value", ["-0.5", "nan"])
def test_train_rejects_a_bad_tc_naming_the_flag(tmp_path, capsys, value):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--asset", "AAA", "--window", "0",
                 "--tc", value]) == 2
    assert "config error: --tc: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "debug").exists()


def test_train_rejects_a_negative_seed_naming_the_flag(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--asset", "AAA", "--seed", "-1"]) == 2
    assert "config error: --seed: -1 is below the minimum 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "debug").exists()


@pytest.mark.parametrize("fault, code, message", [
    (NonFiniteGradientError("update rejected: non-finite gradient"), 2,
     "error: update rejected: non-finite gradient\n"),
    (RuntimeError("boom\non two lines"), 1,
     "internal error: RuntimeError: boom on two lines\n"),
])
def test_train_maps_a_learner_fault_to_its_exit_code(tmp_path, capsys, monkeypatch, fault,
                                                     code, message):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    capsys.readouterr()

    def failing(*args, **kwargs):
        raise fault

    monkeypatch.setattr(evaluation, "train", failing)
    assert main(["train", "--config", str(cfg), "--asset", "AAA"]) == code
    assert capsys.readouterr().err.endswith(message)
    assert not (tmp_path / "out" / "debug").exists()


def test_run_end_to_end(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "12 trials complete" in out
    assert "buy-and-hold" in out

    out_dir = tmp_path / "out"
    results = out_dir / "results.csv"
    assert len(results.read_text().splitlines()) == 1 + 12
    for name in ("overall.csv", "sharpe_by_asset.csv", "scatter.csv"):
        assert (out_dir / "report" / name).exists()
    assert any((out_dir / "artifacts").iterdir())

    echoed = load_config(out_dir / "config.echo.json")
    assert echoed == load_config(cfg)

    assert main(["report", "--results", str(out_dir)]) == 0
    assert "mean_tr=" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--limit", "-1"), ("--workers", "-3"),
                                         ("--workers", "0")])
def test_run_rejects_a_bad_flag_before_writing(tmp_path, capsys, flag, value):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "results.csv" in before
    config = json.loads(cfg.read_text())
    config["seeds"] = [0]  # a run that went ahead would write other results
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), flag, value]) == 2
    assert f"config error: {flag}: {value} is below the minimum" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_run_rejects_windows_that_cannot_fit_before_writing(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "results.csv" in before
    assert any((out / "artifacts").iterdir())
    config = json.loads(cfg.read_text())
    config["windows"]["count"] = 100  # 60 points cannot hold 100 windows
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 2
    assert "series of length 60 cannot fit 100 windows" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # the echo still holds the old config, so the old run resumes under it
    config["windows"]["count"] = 2
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--resume"]) == 0
    assert (out / "results.csv").read_bytes() == before[out / "results.csv"]


@pytest.mark.parametrize("key", ["train_len", "test_len"])
def test_run_rejects_windows_shorter_than_an_episode_before_writing(tmp_path, capsys, key):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "results.csv" in before
    config = json.loads(cfg.read_text())
    config["windows"][key] = 5  # at w=3, l=2 an episode needs max(3 + 1, 2) + 2 = 6 points
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 2
    assert (f"config error: windows.{key}: below 6, the fewest points an episode needs "
            "at env.w=3 and env.l=2") in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_run_with_duplicate_strategies_writes_the_deduplicated_bytes(tmp_path, capsys):
    runs = {}
    for name, strategies in (("once", ["buy-and-hold", "sentarl"]),
                             ("twice", ["sentarl", "sentarl", "buy-and-hold"])):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "out"
        cfg = make_workspace(tmp_path / name, output_dir=str(out), strategies=strategies)
        main(["ingest", "--config", str(cfg)])
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 0
        # the echo records the strategies as the config lists them
        runs[name] = (capsys.readouterr().out.replace(str(out), "OUT"),
                      {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                       if p.is_file() and p.name != "config.echo.json"})
    assert "8 trials complete" in runs["once"][0]
    assert runs["twice"] == runs["once"]


def test_run_determinism_and_resume(tmp_path, capsys):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    cfg_a = make_workspace(tmp_path / "a", output_dir=str(tmp_path / "a" / "out"))
    main(["ingest", "--config", str(cfg_a)])
    assert main(["run", "--config", str(cfg_a)]) == 0
    straight = (tmp_path / "a" / "out" / "results.csv").read_bytes()

    # identical inputs in a different tree produce identical bytes
    cfg_b = make_workspace(tmp_path / "b", output_dir=str(tmp_path / "b" / "out"))
    main(["ingest", "--config", str(cfg_b)])
    assert main(["run", "--config", str(cfg_b)]) == 0
    assert (tmp_path / "b" / "out" / "results.csv").read_bytes() == straight

    # a capped run stops early; --resume completes it to the same bytes
    cfg_c = make_workspace(tmp_path / "c", output_dir=str(tmp_path / "c" / "out"))
    main(["ingest", "--config", str(cfg_c)])
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_c), "--limit", "5"]) == 0
    assert "still pending" in capsys.readouterr().out
    results_c = tmp_path / "c" / "out" / "results.csv"
    assert not results_c.exists()
    assert main(["run", "--config", str(cfg_c), "--resume"]) == 0
    assert results_c.read_bytes() == straight


def test_run_reports_trial_failures(tmp_path, capsys, monkeypatch):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    real = evaluation.run_agent_trial

    def flaky(key, *args, **kwargs):
        if key.seed == 1 and key.strategy == "no-sentiment":
            raise RuntimeError("boom")
        return real(key, *args, **kwargs)

    monkeypatch.setattr(evaluation, "run_agent_trial", flaky)
    assert main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "FAILED AAA" in err and "boom" in err
    monkeypatch.setattr(evaluation, "run_agent_trial", real)
    assert main(["run", "--config", str(cfg), "--resume"]) == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_run_resume_repairs_torn_journal_and_rejects_malformed_rows(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg), "--limit", "5"]) == 0
    journal = tmp_path / "out" / "results.journal.csv"
    journal.write_bytes(journal.read_bytes()[:-5])  # torn mid-row by a kill
    assert main(["run", "--config", str(cfg), "--resume"]) == 0
    assert (tmp_path / "out" / "results.csv").exists()

    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join([*lines[:2], b"AAA,0\r\n", *lines[2:]]))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 3
    assert "results.journal.csv:3: malformed row" in capsys.readouterr().err


def test_report_reads_only_the_caches_of_its_assets(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    written = {name: (out / "report" / name).read_bytes() for name in evaluation.REPORT_FILES}
    # a cache of an asset the results do not hold, that would not load
    (out / "caches" / "ZZZ.aligned.csv").write_text("timestamp\n")
    capsys.readouterr()
    assert main(["report", "--results", str(out)]) == 0
    assert {name: (out / "report" / name).read_bytes()
            for name in evaluation.REPORT_FILES} == written


def test_report_reads_no_cache_outside_caches(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    (out / "AAA.aligned.csv").write_bytes((out / "caches" / "AAA.aligned.csv").read_bytes())
    results = out / "results.csv"
    results.write_text(results.read_text().replace("\nAAA,", "\n../AAA,"))
    assert main(["report", "--results", str(out)]) == 0
    assert (out / "report" / "scatter.csv").read_text().splitlines() == [
        "asset,coverage,corr_shift0,tr_diff"]


def test_report_names_the_scatter_column_after_its_shift(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert main(["report", "--results", str(out), "--shift", "-2"]) == 0
    lines = (out / "report" / "scatter.csv").read_text().splitlines()
    assert lines[0] == "asset,coverage,corr_shift-2,tr_diff"
    assert len(lines) == 2


def test_report_missing_results_exits_3(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path)]) == 3
    assert "no results file" in capsys.readouterr().err


def test_report_wrong_results_header_exits_3_naming_line_1(tmp_path, capsys):
    (tmp_path / "results.csv").write_text("x,y\n1,2\n")
    assert main(["report", "--results", str(tmp_path)]) == 3
    assert "results.csv:1: bad header" in capsys.readouterr().err


def test_resume_wrong_journal_header_exits_3_naming_line_1(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg), "--limit", "5"]) == 0
    journal = tmp_path / "out" / "results.journal.csv"
    journal.write_bytes(journal.read_bytes().replace(b"trade_count", b"trades", 1))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 3
    assert "results.journal.csv:1: bad header" in capsys.readouterr().err


def test_outputs_land_in_the_config_output_dir_whatever_the_environment(tmp_path,
                                                                        monkeypatch):
    # an ambient variable must not move outputs: output_dir is used as the config says
    root = tmp_path / "rooted"
    monkeypatch.setenv("SENTARL_OUTPUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    cfg = make_workspace(tmp_path, output_dir="relative-out")
    assert load_config(cfg).output_dir == Path("relative-out")
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (tmp_path / "relative-out" / "caches" / "AAA.aligned.csv").exists()
    assert not root.exists()


def test_resume_rejects_a_changed_config(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg), "--limit", "5"]) == 0
    journal = tmp_path / "out" / "results.journal.csv"
    rows = journal.read_bytes()
    config = json.loads(cfg.read_text())
    config["agent"]["lr_actor"] = 1e-3
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 2
    err = capsys.readouterr().err
    assert "agent.lr_actor" in err and "config error" in err
    # the rejected resume leaves the journal as it was and writes no results
    assert journal.read_bytes() == rows
    assert not (tmp_path / "out" / "results.csv").exists()
    # starting over with the new config is allowed
    assert main(["run", "--config", str(cfg)]) == 0


def test_resume_allows_a_changed_worker_count(tmp_path):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg), "--limit", "5"]) == 0
    config = json.loads(cfg.read_text())
    config["workers"] = 2
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--resume", "--workers", "1"]) == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, caplog,
                                                   monkeypatch):
    cfg = make_workspace(tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "cmd_ingest", broken)
    with caplog.at_level(logging.WARNING):
        assert main(["ingest", "--config", str(cfg)]) == cli.EXIT_INTERNAL == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: disk on fire\n"
    assert "Traceback" not in caplog.text
    # at DEBUG the traceback is logged as well
    with caplog.at_level(logging.DEBUG, logger="sentarl"):
        assert main(["ingest", "--config", str(cfg)]) == 1
    assert "Traceback" in caplog.text and "disk on fire" in caplog.text


def test_run_progress_goes_to_stderr_unless_quiet(tmp_path):
    cfg = make_workspace(tmp_path, seeds=[0])
    assert main(["ingest", "--config", str(cfg)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(sentarl.__file__).resolve().parents[1]))
    runs = {}
    for flags in ([], ["--quiet"]):
        proc = subprocess.run([sys.executable, "-m", "sentarl.cli", *flags, "run",
                               "--config", str(cfg)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[bool(flags)] = (proc.stderr, (tmp_path / "out" / "results.csv").read_bytes())
    loud, quiet = runs[False], runs[True]
    # one line per pool task: one lockstep chunk per learning strategy
    assert loud[0].count("INFO sentarl.evaluation: progress: ") == 2
    assert "progress: 6/6 keys done (0 failed)" in loud[0]
    assert "progress" not in quiet[0]
    assert loud[1] == quiet[1]


def test_run_refuses_an_output_dir_another_run_holds(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--limit", "5"]) == 0
    before = {name: (out / name).read_bytes()
              for name in ("results.journal.csv", "config.echo.json")}
    # a second open file description of the lock file holds the lock, as
    # another process would; a run needs it exclusively, so a shared hold
    # refuses it too
    for mode in (fcntl.LOCK_EX, fcntl.LOCK_SH):
        with open(out / ".sentarl.lock", "a+") as holder:
            fcntl.flock(holder, mode | fcntl.LOCK_NB)
            holder.truncate(0)
            holder.write("4242\n")
            holder.flush()
            capsys.readouterr()
            assert main(["run", "--config", str(cfg), "--resume"]) == 2
            assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: ") == 2 and "pid 4242" in err
    assert {name: (out / name).read_bytes() for name in before} == before
    assert not (out / "results.csv").exists()
    # once released, the run goes ahead and leaves its own pid in the file
    assert main(["run", "--config", str(cfg), "--resume"]) == 0
    assert (out / "results.csv").exists()
    assert (out / ".sentarl.lock").read_text() == f"{os.getpid()}\n"


def test_run_sweeps_the_temp_files_of_dead_writers(tmp_path):
    cfg = make_workspace(tmp_path, seeds=[0])
    main(["ingest", "--config", str(cfg)])
    dead = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True).stdout.strip()
    artifacts = tmp_path / "out" / "artifacts"
    artifacts.mkdir(parents=True)
    stale = artifacts / f".AAA_w0.equity.csv.{dead}.tmp"
    live = artifacts / f".AAA_w1.equity.csv.{os.getpid()}.tmp"
    other = tmp_path / "out" / ".notes.tmp"
    for path in (stale, live, other):
        path.write_text("partial")
    assert main(["run", "--config", str(cfg)]) == 0
    assert not stale.exists()
    assert live.exists() and other.exists()


def test_ingest_refuses_an_output_dir_another_run_holds(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    assert main(["ingest", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    cache = out / "caches" / "AAA.aligned.csv"
    before = cache.read_bytes()
    # new prices, so an ingest that went ahead would change the cache
    prices = tmp_path / "prices_AAA.csv"
    lines = prices.read_text().splitlines()
    prices.write_text("\n".join([*lines[:-1], lines[-1].rsplit(",", 1)[0] + ",123.0"]) + "\n")
    with open(out / ".sentarl.lock", "a+") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        holder.truncate(0)
        holder.write("4242\n")
        holder.flush()
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "pid 4242" in err
    assert cache.read_bytes() == before
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert cache.read_bytes() != before


def test_report_refuses_an_output_dir_another_run_holds(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    main(["ingest", "--config", str(cfg)])
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    report = out / "report"
    written = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in report.iterdir()}
    with open(out / ".sentarl.lock", "a+") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        holder.truncate(0)
        holder.write("4242\n")
        holder.flush()
        capsys.readouterr()
        assert main(["report", "--results", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "pid 4242" in err
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in report.iterdir()} == written
    assert main(["report", "--results", str(out)]) == 0
    # a missing results directory is an error that creates nothing
    assert main(["report", "--results", str(tmp_path / "missing")]) == 3
    assert not (tmp_path / "missing").exists()


def test_fresh_run_removes_the_outputs_of_an_earlier_run(tmp_path):
    cfg = make_workspace(tmp_path)  # seeds 0 and 1
    main(["ingest", "--config", str(cfg)])
    out = tmp_path / "out"
    artifacts, report = out / "artifacts", out / "report"
    assert main(["run", "--config", str(cfg)]) == 0
    assert any("_s1_" in p.name for p in artifacts.iterdir())
    # files sentarl does not write stay where they are
    foreign = [artifacts / "notes.txt", artifacts / "AAA.policy.json.bak",
               report / "mine.csv", out / "notes.txt"]
    for path in foreign:
        path.write_text("keep")
    config = json.loads(cfg.read_text())
    config["seeds"] = [0]
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == 0
    straight = {p.name: p.read_bytes() for p in artifacts.iterdir() if "_s0_" in p.name}
    assert not [p.name for p in artifacts.iterdir() if "_s1_" in p.name]
    assert len(straight) == 4 * 4  # 2 windows x 2 learning strategies x 4 files
    assert all(path.read_text() == "keep" for path in foreign)
    # a capped fresh run clears the old report; --resume keeps the first call's files
    assert main(["run", "--config", str(cfg), "--limit", "3"]) == 0
    assert not [name for name in evaluation.REPORT_FILES if (report / name).exists()]
    first = {p.name: p.stat().st_ino for p in artifacts.iterdir() if "_s0_" in p.name}
    assert len(first) == 2 * 4
    assert main(["run", "--config", str(cfg), "--resume"]) == 0
    assert {p.name: p.stat().st_ino for p in artifacts.iterdir() if p.name in first} == first
    assert {p.name: p.read_bytes() for p in artifacts.iterdir() if "_s0_" in p.name} == straight
    assert all(path.read_text() == "keep" for path in foreign)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two or more cores")
def test_the_cli_runs_one_blas_thread_unless_the_caller_sets_a_count():
    code = ("import os, sys, importlib\n"
            "importlib.import_module(sys.argv[1])\n"
            "import numpy\n"
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(sentarl.__file__).resolve().parents[1])

    def child(module, **extra):
        return subprocess.run([sys.executable, "-c", code, module], env=dict(env, **extra),
                              check=True, capture_output=True, text=True,
                              timeout=60).stdout.split()

    assert child("sentarl.cli") == ["1", "1"]
    assert child("sentarl.cli", OPENBLAS_NUM_THREADS="2") == ["2", "2"]
    # a library import of the learner sets nothing in the caller's environment
    assert child("sentarl.evaluation")[1] == "None"
