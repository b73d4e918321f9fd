"""Rolling windows, metrics, matrix runs with resume, and report aggregation."""

import ast
import csv
import json
import logging
import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_walk_series
import sentarl
from sentarl import config, evaluation, nn
from sentarl.a2c import A2cConfig, EpisodeLog, write_training_log
from sentarl.data import save_aligned
from sentarl.env import EnvConfig, EquityPoint, write_equity_csv
from sentarl.sentiment import CorrelationPulse, write_pulse_csv
from sentarl.nn import Mlp, load_model, save_model
from sentarl.errors import IngestError
from sentarl.evaluation import (RESULTS_HEADER, MatrixResult, TrialKey,
                                TrialResult, WindowSpec, annualized_return,
                                enumerate_keys, make_windows, parse_result_row,
                                read_results_csv, report, result_row,
                                run_buy_and_hold, run_matrix, sharpe,
                                total_return, write_results_csv)

# ---------------------------------------------------------------- windows


def test_make_windows_reference_shape():
    rolling = make_windows(5267)
    assert len(rolling.windows) == 5
    assert rolling.windows[0] == ((20, 3397), (3397, 3771))
    assert rolling.windows[-1] == ((1516, 4893), (4893, 5267))
    # train:test is roughly 0.9:0.1 of each split
    assert 3377 / (3377 + 374) == pytest.approx(0.9, abs=0.001)


def test_make_windows_properties():
    rolling = make_windows(500, train_len=100, test_len=20, stride=30, count=4)
    seen_tests = []
    for (train_start, train_end), (test_start, test_end) in rolling.windows:
        assert train_end - train_start == 100
        assert test_end - test_start == 20
        assert train_end == test_start  # test follows train immediately
        for lo, hi in seen_tests:      # disjoint test ranges
            assert test_start >= hi or test_end <= lo
        seen_tests.append((test_start, test_end))
    assert rolling.windows[-1][1][1] == 500  # anchored to the series end


def test_make_windows_single():
    rolling = make_windows(100, train_len=60, test_len=20, stride=20, count=1)
    assert rolling.windows == (((20, 80), (80, 100)),)


def test_make_windows_errors():
    with pytest.raises(ValueError, match="cannot fit"):
        make_windows(100, train_len=90, test_len=20, stride=20, count=1)
    with pytest.raises(ValueError, match="stride"):
        WindowSpec(train_len=10, test_len=20, stride=10, count=1)
    with pytest.raises(ValueError, match="positive"):
        WindowSpec(train_len=0, test_len=1, stride=1, count=1)


# ---------------------------------------------------------------- metrics


def test_total_return():
    assert total_return([1.0, 0.43, 1.0], 100.0) == pytest.approx(0.0243)
    assert total_return([], 50.0) == 0.0
    with pytest.raises(ValueError):
        total_return([1.0], 0.0)


def test_annualized_return():
    assert annualized_return(0.0, 77) == 0.0
    assert annualized_return(0.5, 365) == pytest.approx(0.5, rel=1e-15)
    # compounding a 77-day return over a year amplifies it
    assert annualized_return(0.0243, 77) > 0.0243
    assert annualized_return(-0.5, 365) == pytest.approx(-0.5, rel=1e-15)
    assert annualized_return(0.1, 77) > annualized_return(0.05, 77)


def test_annualized_return_errors():
    with pytest.raises(ValueError, match="trading_days"):
        annualized_return(0.1, 0)
    with pytest.raises(ValueError, match="tr"):
        annualized_return(-1.0, 77)


def test_sharpe():
    assert sharpe([1.0, 2.0, 3.0]) == 2.0
    assert sharpe([5.0, 5.0, 5.0]) is None
    # constant input whose float mean is inexact must still be undefined
    assert sharpe([0.2, 0.2, 0.2]) is None
    with pytest.raises(ValueError):
        sharpe([1.0])
    base = sharpe([0.1, 0.3, 0.2, 0.5])
    scaled = sharpe([0.4, 1.2, 0.8, 2.0])
    assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------- rows


def test_result_row_round_trip():
    for ar in (0.125, None):
        result = TrialResult("BTC", 3, 2, 0.0025, "sentarl", -0.07, ar, 14)
        again = parse_result_row(result_row(result))
        assert vars(again) == vars(result)


def test_results_csv_round_trip(tmp_path):
    rows = [result_row(TrialResult("B", 0, 1, 0.0, "sentarl", 0.2, 0.5, 3)),
            result_row(TrialResult("A", 1, 0, 0.0, "sentarl", 0.1, None, 2)),
            result_row(TrialResult("A", 0, 0, 0.0, "sentarl", 0.3, 0.9, 1))]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    parsed = read_results_csv(path)
    assert [r.asset for r in parsed] == ["A", "A", "B"]  # sorted on write
    assert parsed[1].ar is None
    (tmp_path / "bad.csv").write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_results_csv(tmp_path / "bad.csv")


def test_enumerate_keys_order_and_dedupe():
    keys = enumerate_keys(["B", "A"], 2, [1, 0, 1], [0.0025, 0.0], ["sentarl"])
    assert len(keys) == 2 * 2 * 2 * 2
    assert keys == sorted(keys)
    assert keys[0] == TrialKey("A", 0, 0, 0.0, "sentarl")


# ---------------------------------------------------------------- trials


def test_run_buy_and_hold_ignores_costs():
    series = random_walk_series(40, seed=21)
    costly = run_buy_and_hold(series, EnvConfig(w=3, l=2, cost_mode="fixed-per-unit"))
    free = run_buy_and_hold(series, EnvConfig(w=3, l=2))
    assert costly == free
    assert costly[2] == 1  # single entry trade


SMALL_WINDOWS = WindowSpec(train_len=30, test_len=10, stride=10, count=2)
SMALL_ENV = EnvConfig(w=3, l=2)
SMALL_AGENT = A2cConfig(episodes=2, hidden_sizes=(4,))


def small_matrix(out_dir, **kwargs):
    series = {"AAA": random_walk_series(60, seed=31, asset="AAA")}
    defaults = dict(window_spec=SMALL_WINDOWS, seeds=[0, 1], tc_rates=[0.0],
                    strategies=list(evaluation.STRATEGIES), env_config=SMALL_ENV,
                    a2c_config=SMALL_AGENT, out_dir=out_dir)
    defaults.update(kwargs)
    return run_matrix(series, **defaults)


def test_run_matrix_cardinality_and_order(tmp_path):
    out = small_matrix(tmp_path)
    assert isinstance(out, MatrixResult)
    assert not out.failures and out.pending == 0
    assert len(out.results) == 2 * 2 * 1 * 3  # windows x seeds x tc x strategies
    keys = [r.key for r in out.results]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_run_matrix_replicates_benchmark(tmp_path):
    out = small_matrix(tmp_path)
    bh = [r for r in out.results if r.strategy == "buy-and-hold"]
    for window in (0, 1):
        rows = [r for r in bh if r.window == window]
        assert len(rows) == 2  # one per seed
        assert len({(r.tr, r.ar, r.trade_count) for r in rows}) == 1


def test_run_matrix_validation(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        small_matrix(tmp_path, seeds=[])
    with pytest.raises(ValueError, match="unknown strategies"):
        small_matrix(tmp_path, strategies=["sentarl", "oracle"])
    with pytest.raises(ValueError, match="limit"):
        small_matrix(tmp_path, limit=-1)


def test_run_matrix_limit_then_resume(tmp_path):
    first = small_matrix(out_dir=tmp_path / "run")
    straight = (tmp_path / "run" / "results.csv").read_bytes()

    resumed_dir = tmp_path / "resumed"
    partial = small_matrix(out_dir=resumed_dir, limit=5)
    assert partial.pending == 12 - 5
    assert not (resumed_dir / "results.csv").exists()
    journal = (resumed_dir / "results.journal.csv").read_text().splitlines()
    assert len(journal) == 1 + 5

    rest = small_matrix(out_dir=resumed_dir)
    assert rest.pending == 0
    assert (resumed_dir / "results.csv").read_bytes() == straight
    assert len(first.results) == len(rest.results)


@pytest.mark.parametrize("keep", ["half", "all-but-terminator"])
def test_run_matrix_resume_drops_torn_journal_line(tmp_path, caplog, keep):
    small_matrix(out_dir=tmp_path / "run")
    straight = (tmp_path / "run" / "results.csv").read_bytes()

    out = tmp_path / "torn"
    small_matrix(out_dir=out, limit=5)
    journal = out / "results.journal.csv"
    data = journal.read_bytes()
    last = data.rstrip(b"\r\n").rfind(b"\n") + 1
    row = data[last:].rstrip(b"\r\n")
    # a kill during the fifth append leaves its row without a terminator,
    # possibly cut mid-field; even a whole row without one is not trusted
    journal.write_bytes(data[:last] + (row[:len(row) // 2] if keep == "half" else row))
    with caplog.at_level(logging.WARNING):
        rest = small_matrix(out_dir=out)
    assert "torn last line" in caplog.text
    assert rest.pending == 0 and not rest.failures
    assert (out / "results.csv").read_bytes() == straight
    assert len(journal.read_bytes().splitlines()) == 1 + 12


def test_run_matrix_malformed_journal_row_names_line(tmp_path):
    small_matrix(out_dir=tmp_path, limit=5)
    journal = tmp_path / "results.journal.csv"
    lines = journal.read_bytes().splitlines(keepends=True)
    lines[2] = b"AAA,0,not-a-seed\r\n"
    journal.write_bytes(b"".join(lines))
    with pytest.raises(IngestError, match=r"results\.journal\.csv:3: malformed row"):
        small_matrix(out_dir=tmp_path)


def test_run_matrix_records_failures(tmp_path, monkeypatch):
    real = evaluation.run_agent_trial

    def flaky(key, *args, **kwargs):
        if key.seed == 1 and key.strategy == "sentarl":
            raise RuntimeError("injected fault")
        return real(key, *args, **kwargs)

    monkeypatch.setattr(evaluation, "run_agent_trial", flaky)
    out = small_matrix(out_dir=tmp_path)
    assert len(out.failures) == 2  # one per window
    assert all("injected fault" in f.error for f in out.failures)
    assert len(out.results) == 12 - 2
    assert not (tmp_path / "results.csv").exists()

    monkeypatch.setattr(evaluation, "run_agent_trial", real)
    healed = small_matrix(out_dir=tmp_path)
    assert not healed.failures
    assert len(healed.results) == 12
    assert (tmp_path / "results.csv").exists()


def test_run_matrix_parallel_matches_sequential(tmp_path):
    seq = small_matrix(out_dir=tmp_path / "seq")
    par = small_matrix(out_dir=tmp_path / "par", workers=2)
    assert (tmp_path / "seq" / "results.csv").read_bytes() == \
        (tmp_path / "par" / "results.csv").read_bytes()
    assert len(seq.results) == len(par.results)


def test_run_matrix_journals_in_completion_order(tmp_path, monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the monkeypatch only when forked")
    real = evaluation.run_agent_trial
    slow = TrialKey("AAA", 0, 0, 0.0, "no-sentiment")  # first agent trial submitted

    def delayed(key, *args, **kwargs):
        if key == slow:
            time.sleep(1.0)
        return real(key, *args, **kwargs)

    monkeypatch.setattr(evaluation, "run_agent_trial", delayed)
    small_matrix(out_dir=tmp_path, workers=2)
    with (tmp_path / "results.journal.csv").open(newline="") as fh:
        agent_keys = [parse_result_row(row).key for row in list(csv.reader(fh))[1:]
                      if row[4] != "buy-and-hold"]
    assert len(agent_keys) == 8
    # trials finishing while the slow one runs are journaled without waiting
    assert agent_keys[0] != slow


def test_agent_test_episodes_never_run_one_by_one(tmp_path, monkeypatch):
    """Agent keys test in stacked episodes, each stack as large as the
    chunk that trained it; buy-and-hold runs no episode."""
    real = evaluation.greedy_episodes
    sizes = []

    def counting(env, policy):
        sizes.append(env.trials)
        return real(env, policy)

    monkeypatch.setattr(evaluation, "greedy_episodes", counting)
    out = small_matrix(tmp_path, tc_rates=[0.0, 0.0025])
    assert not out.failures and len(out.results) == 2 * 2 * 2 * 3
    chunks = evaluation.lockstep_chunks(r.key for r in out.results)
    assert sorted(sizes) == sorted(len(chunk) for chunk in chunks) == [8, 8]


def test_run_matrix_artifacts(tmp_path):
    small_matrix(out_dir=tmp_path, seeds=[0])
    stems = {p.name for p in (tmp_path / "artifacts").iterdir()}
    assert "AAA_w0_s0_tc0.0_sentarl.policy.json" in stems
    assert "AAA_w0_s0_tc0.0_sentarl.equity.csv" in stems
    assert "AAA_w1_s0_tc0.0_no-sentiment.train.csv" in stems
    # benchmark trials produce no artifacts
    assert not any("buy-and-hold" in s for s in stems)


# ---------------------------------------------------------------- reports


def plain_result(asset, window, seed, tc, strategy, tr, ar=None, trades=0):
    return TrialResult(asset, window, seed, tc, strategy, tr, ar, trades)


def test_report_single_benchmark_row():
    results = [plain_result("A", 0, 0, 0.0, "buy-and-hold", 0.05, ar=0.3, trades=1)]
    bundle = report(results)
    assert len(bundle.overall) == 1
    row = bundle.overall[0]
    assert row.strategy == "buy-and-hold"
    assert row.tc is None
    assert row.mean_tr == pytest.approx(0.05)
    assert row.sharpe is None  # one sample, undefined
    assert bundle.by_asset[0].best is None


def test_report_identical_strategies_zero_gap():
    results = []
    for seed, tr in ((0, 0.1), (1, 0.2)):
        results.append(plain_result("A", 0, seed, 0.0, "sentarl", tr))
        results.append(plain_result("A", 0, seed, 0.0, "no-sentiment", tr))
    series = {"A": random_walk_series(40, seed=41, asset="A")}
    bundle = report(results, series_by_asset=series)
    assert len(bundle.scatter) == 1
    assert bundle.scatter[0].tr_diff == 0.0
    assert 0.0 <= bundle.scatter[0].coverage <= 1.0
    for row in bundle.overall:
        assert row.mean_tr == pytest.approx(0.15)


def test_report_groups_by_tc():
    results = []
    for tc, base in ((0.0, 0.1), (0.0025, 0.0)):
        for seed in (0, 1):
            results.append(plain_result("A", 0, seed, tc, "sentarl", base + seed * 0.1))
    bundle = report(results)
    assert [(r.strategy, r.tc) for r in bundle.overall] == \
        [("sentarl", 0.0), ("sentarl", 0.0025)]
    assert bundle.overall[0].mean_tr == pytest.approx(0.15)
    assert bundle.overall[1].mean_tr == pytest.approx(0.05)
    assert len(bundle.by_asset) == 2  # one row per (asset, tc)


def test_report_best_marks_highest_sharpe():
    results = []
    for seed, (good, bad) in ((0, (0.10, 0.10)), (1, (0.30, 0.11))):
        results.append(plain_result("A", 0, seed, 0.0, "sentarl", good))
        results.append(plain_result("A", 0, seed, 0.0, "no-sentiment", bad))
    bundle = report(results)
    row = bundle.by_asset[0]
    assert row.sharpe_by_strategy["no-sentiment"] > row.sharpe_by_strategy["sentarl"]
    assert row.best == "no-sentiment"


def test_report_empty_rejected():
    with pytest.raises(ValueError, match="no results"):
        report([])


def test_report_files(tmp_path):
    results = [plain_result("A", 0, 0, 0.0, "buy-and-hold", 0.05, ar=0.3, trades=1),
               plain_result("A", 0, 0, 0.0, "sentarl", 0.1, ar=0.6, trades=4),
               plain_result("A", 0, 1, 0.0, "sentarl", 0.2, ar=0.9, trades=6)]
    series = {"A": random_walk_series(40, seed=43, asset="A")}
    report(results, series_by_asset=series, out_dir=tmp_path)
    overall = (tmp_path / "overall.csv").read_text().splitlines()
    assert overall[0] == "strategy,tc,mean_tr,mean_ar,sharpe"
    bench = [line for line in overall if line.startswith("buy-and-hold")][0]
    assert bench.split(",")[1] == "-"   # benchmark pays no tc
    assert bench.split(",")[4] == ""    # single sample, sharpe undefined
    by_asset = (tmp_path / "sharpe_by_asset.csv").read_text().splitlines()
    assert by_asset[0] == "asset,tc,sr_buy-and-hold,sr_sentarl,best"
    scatter = (tmp_path / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "asset,coverage,corr_shift0,tr_diff"
    assert scatter[1].endswith(",")     # no ablation rows, tr_diff undefined


# ---------------------------------------------------------------- atomic outputs


class Unprintable:
    """A cell whose text or float conversion fails, so a CSV write raises
    midway."""

    def __str__(self):
        raise RuntimeError("write failed midway")

    __float__ = __str__


def assert_untouched(directory, name, old):
    assert (directory / name).read_bytes() == old
    assert sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp")) == []


def test_results_write_that_raises_midway_keeps_the_old_bytes(tmp_path):
    good = [result_row(TrialResult("B", 0, 0, 0.0, "sentarl", 0.3, 0.9, 1))]
    write_results_csv(good, tmp_path / "results.csv")
    old = (tmp_path / "results.csv").read_bytes()
    # sorted first, so the header is out and the old rows are not
    bad = good + [["A", "1", "0", "0.0", "sentarl", Unprintable(), "", "2"]]
    with pytest.raises(RuntimeError, match="midway"):
        write_results_csv(bad, tmp_path / "results.csv")
    assert_untouched(tmp_path, "results.csv", old)


def test_report_write_that_raises_midway_keeps_the_old_bytes(tmp_path, monkeypatch):
    results = [plain_result("A", 0, 0, 0.0, "sentarl", 0.1, ar=0.6, trades=4),
               plain_result("A", 0, 1, 0.0, "sentarl", 0.2, ar=0.9, trades=6)]
    report(results, out_dir=tmp_path)
    old = {name: (tmp_path / name).read_bytes()
           for name in ("overall.csv", "sharpe_by_asset.csv", "scatter.csv")}
    monkeypatch.setattr(evaluation, "_cell", lambda value: Unprintable())
    with pytest.raises(RuntimeError, match="midway"):
        report(results, out_dir=tmp_path)
    for name, data in old.items():
        assert_untouched(tmp_path, name, data)


def test_model_write_that_raises_keeps_the_old_bytes(tmp_path, monkeypatch):
    net = Mlp.create((3, 2), np.random.default_rng(0))
    save_model(net, tmp_path / "m.json")
    old = (tmp_path / "m.json").read_bytes()

    def failing(net):
        raise RuntimeError("write failed midway")

    monkeypatch.setattr(nn, "serialize", failing)
    with pytest.raises(RuntimeError, match="midway"):
        save_model(Mlp.create((3, 2), np.random.default_rng(1)), tmp_path / "m.json")
    assert_untouched(tmp_path, "m.json", old)
    assert np.array_equal(load_model(tmp_path / "m.json").flat, net.flat)


def test_cache_write_that_raises_midway_keeps_the_old_bytes(tmp_path):
    series = random_walk_series(10)
    save_aligned(series, tmp_path / "A.aligned.csv")
    old = (tmp_path / "A.aligned.csv").read_bytes()
    series.prices = np.array([*series.prices[:4], Unprintable(), *series.prices[5:]],
                             dtype=object)
    with pytest.raises(RuntimeError, match="midway"):
        save_aligned(series, tmp_path / "A.aligned.csv")
    assert_untouched(tmp_path, "A.aligned.csv", old)


def test_pulse_write_that_raises_midway_keeps_the_old_bytes(tmp_path):
    write_pulse_csv(CorrelationPulse([-1, 0, 1], [0.5, None, -0.25]), tmp_path / "A.pulse.csv")
    old = (tmp_path / "A.pulse.csv").read_bytes()
    with pytest.raises(RuntimeError, match="midway"):
        write_pulse_csv(CorrelationPulse([-1, Unprintable(), 1], [0.5, None, -0.25]),
                        tmp_path / "A.pulse.csv")
    assert_untouched(tmp_path, "A.pulse.csv", old)


def test_training_log_write_that_raises_midway_keeps_the_old_bytes(tmp_path):
    log = [EpisodeLog(0, 0.1, -0.2, 0.3, 1.05), EpisodeLog(1, 0.2, -0.1, 0.2, 1.01)]
    write_training_log(log, tmp_path / "k.train.csv")
    old = (tmp_path / "k.train.csv").read_bytes()
    with pytest.raises(RuntimeError, match="midway"):
        write_training_log([log[0], EpisodeLog(Unprintable(), 0.2, -0.1, 0.2, 1.01)],
                           tmp_path / "k.train.csv")
    assert_untouched(tmp_path, "k.train.csv", old)


def test_equity_write_that_raises_midway_keeps_the_old_bytes(tmp_path):
    stamp = np.datetime64("2021-01-04T00:00:00", "s")
    curve = [EquityPoint(t, stamp + t * 3600, 1, 0.5 * t, 0.0, 0.01 * t) for t in range(3)]
    write_equity_csv(curve, tmp_path / "k.equity.csv")
    old = (tmp_path / "k.equity.csv").read_bytes()
    curve[2] = EquityPoint(Unprintable(), stamp, 1, 0.0, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="midway"):
        write_equity_csv(curve, tmp_path / "k.equity.csv")
    assert_untouched(tmp_path, "k.equity.csv", old)


def test_config_echo_write_that_raises_midway_keeps_the_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"assets": {"AAA": {"prices": "p.csv"}},
                                "output_dir": str(tmp_path)}))
    (tmp_path / "p.csv").write_text("")
    run_config = config.load_config(path)
    config.echo_config(run_config, tmp_path / "config.echo.json")
    old = (tmp_path / "config.echo.json").read_bytes()
    # a lone surrogate cannot be encoded, so the write itself fails
    monkeypatch.setattr(config.json, "dumps", lambda obj, **kwargs: '{"torn": "\ud800"}')
    with pytest.raises(UnicodeEncodeError):
        config.echo_config(run_config, tmp_path / "config.echo.json")
    assert_untouched(tmp_path, "config.echo.json", old)


def _file_writes(tree):
    """(line, mode) of each call that writes a file or builds a CSV writer;
    the mode is "?" where it is not a string literal."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield call.lineno, name
        elif name == "writer":
            yield call.lineno, "csv.writer"
        elif name == "open":
            position = 0 if isinstance(func, ast.Attribute) else 1  # Path.open or open
            modes = call.args[position:position + 1]
            modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
            for node in modes:
                literal = isinstance(node, ast.Constant) and isinstance(node.value, str)
                mode = node.value if literal else "?"
                if set(mode) & set("wxa+?"):
                    yield call.lineno, mode


def test_only_the_files_module_writes_files():
    """Every write goes through sentarl.files, atomically; the one
    exception is the journal, which run_matrix appends to."""
    offenders = []
    for source in sorted(Path(sentarl.__file__).parent.glob("*.py")):
        if source.name == "files.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        journal = [node for node in ast.walk(tree) if source.name == "evaluation.py"
                   and isinstance(node, ast.FunctionDef) and node.name == "run_matrix"]
        for line, mode in _file_writes(tree):
            appends = mode in ("a", "csv.writer") and any(
                f.lineno <= line <= f.end_lineno for f in journal)
            if not appends:
                offenders.append(f"{source.name}:{line} {mode}")
    assert offenders == []
