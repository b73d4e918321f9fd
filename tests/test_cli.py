"""End-to-end command tests driven through main(argv) in process."""

import json
import logging

import numpy as np
import pytest

from conftest import hourly_stamps, write_news_csv, write_price_csv
from sentarl import cli, evaluation
from sentarl.cli import main
from sentarl.config import load_config
from sentarl.data import load_aligned


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


def test_ingest_corrupt_price_exits_3(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    prices_path = tmp_path / "prices_AAA.csv"
    lines = prices_path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-5.0"
    prices_path.write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "prices_AAA.csv:4: non-positive price" in err


def test_ingest_unknown_asset_exits_2(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    assert main(["ingest", "--config", str(cfg), "--asset", "ZZZ"]) == 2
    assert "not in the config" in capsys.readouterr().err


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


def test_report_missing_results_exits_3(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path)]) == 3
    assert "no results file" in capsys.readouterr().err


def test_output_root_env(tmp_path, monkeypatch):
    root = tmp_path / "rooted"
    monkeypatch.setenv("SENTARL_OUTPUT_ROOT", str(root))
    cfg = make_workspace(tmp_path, output_dir="relative-out")
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (root / "relative-out" / "caches" / "AAA.aligned.csv").exists()
    # absolute output dirs are untouched by the root override
    config = load_config(cfg)
    assert str(config.output_dir).startswith(str(root))


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
