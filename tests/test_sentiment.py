"""Scoring, grouping, fill policies, and the correlation pulse."""

import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import build_series, random_walk_series
from reference import (epoch_seconds, fill_gaps, group_hourly, hour_stamp, pulse_peak,
                       sentiment_window)
import sentarl
from sentarl.config import FILL_POLICIES
from sentarl.data import HeadlineTable
from sentarl.errors import IngestError
from sentarl.sentiment import (CorrelationPulse, bundled_lexicon,
                               correlation_pulse, group_by_hour,
                               lexicon_score, load_lexicon, max_pulse_shift,
                               pearson, score_headlines, series_pulse,
                               write_pulse_csv)


def test_lexicon_score_cases():
    lex = {"profit": 0.5, "soars": 0.7, "loss": -0.5}
    assert lexicon_score("", lex) == 0.0
    assert lexicon_score("profit soars", lex) == pytest.approx(0.6)
    assert lexicon_score("profit loss", lex) == 0.0
    assert lexicon_score("nothing matches here", lex) == 0.0
    # matching is case-insensitive and punctuation-tolerant
    assert lexicon_score("Profit, soars!", lex) == pytest.approx(0.6)


def test_lexicon_score_clamps():
    # weights are bounded, but a defensive clamp keeps the contract explicit
    assert -1.0 <= lexicon_score("profit profit", {"profit": 1.0}) <= 1.0


def test_lexicon_requires_entries():
    with pytest.raises(ValueError):
        lexicon_score("anything", {})


def test_bundled_lexicon_loads():
    lex = bundled_lexicon()
    assert len(lex) > 20
    assert all(-1.0 <= w <= 1.0 for w in lex.values())


def test_load_lexicon_rejects_out_of_range(tmp_path):
    path = tmp_path / "lex.csv"
    path.write_text("word,weight\ngood,2.0\n")
    with pytest.raises(IngestError, match=r"outside \[-1, 1\]"):
        load_lexicon(path)


def test_group_hourly():
    scores = [0.2, -0.5, 0.4]
    assert group_hourly(scores, "min") == -0.5
    assert group_hourly(scores, "mean") == pytest.approx(0.1 / 3)
    assert group_hourly(scores, "max") == 0.4
    assert group_hourly([0.3], "min") == 0.3
    with pytest.raises(ValueError):
        group_hourly([], "min")


def test_grouping_order_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        scores = rng.uniform(-1, 1, rng.integers(1, 8)).tolist()
        lo = group_hourly(scores, "min")
        mid = group_hourly(scores, "mean")
        hi = group_hourly(scores, "max")
        assert lo <= mid + 1e-15
        assert mid <= hi + 1e-15


def headline_table(rows):
    """A HeadlineTable of (timestamp, headline, score or None) rows."""
    return HeadlineTable(
        hours=epoch_seconds(when for when, _, _ in rows) // 3600,
        texts=[text for _, text, _ in rows],
        scores=np.array([np.nan if score is None else score for _, _, score in rows]))


def test_score_headlines_precedence():
    records = headline_table([
        (datetime(2021, 1, 4, tzinfo=timezone.utc), "profit", None),
        (datetime(2021, 1, 4, tzinfo=timezone.utc), "profit", -0.9),
    ])
    _, scores = score_headlines(records, {"profit": 0.5})
    assert scores[0] == 0.5    # the lexicon fills the gap
    assert scores[1] == -0.9   # precomputed score wins


def test_group_by_hour_buckets():
    base = datetime(2021, 1, 4, 9, tzinfo=timezone.utc)
    scored = [
        (base.replace(minute=5), 0.2),
        (base.replace(minute=40), -0.5),
        (base.replace(hour=10), 0.4),
    ]
    hours, values = group_by_hour(
        (epoch_seconds(when for when, _ in scored) // 3600,
         np.array([value for _, value in scored])), "min")
    grouped = [(hour_stamp(hour), value) for hour, value in zip(hours.tolist(), values.tolist())]
    assert grouped == [(base.replace(minute=0), -0.5),
                       (base.replace(hour=10, minute=0), 0.4)]


def test_fill_gaps_policies():
    assert fill_gaps([0.5, None, None], "neutral-zero") == [0.5, 0.0, 0.0]
    assert fill_gaps([0.5, None, None], "forward-fill") == [0.5, 0.5, 0.5]
    assert fill_gaps([None, -0.2], "forward-fill") == [0.0, -0.2]


def test_fill_gaps_preserves_observed():
    values = [None, 0.3, None, -0.1, None]
    for policy in FILL_POLICIES:
        filled = fill_gaps(values, policy)
        assert filled[1] == 0.3
        assert filled[3] == -0.1


def test_sentiment_window_order():
    series = build_series(np.linspace(100, 110, 6),
                          sentiment=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    # newest first per the look-back window definition
    assert sentiment_window(series, 4, 3).tolist() == [0.4, 0.3, 0.2]
    assert sentiment_window(series, 4, 1).tolist() == [0.4]
    assert sentiment_window(series, 4, 5).tolist() == [0.4, 0.3, 0.2, 0.1, 0.0]
    with pytest.raises(ValueError):
        sentiment_window(series, 2, 5)


def test_pearson_basics():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    assert pearson(x, np.full(4, 2.0)) is None


def test_pearson_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, 40)
    y = rng.normal(0, 1, 40)
    base = pearson(x, y)
    assert pearson(2.5 * x + 3, y) == pytest.approx(base)
    assert pearson(x, 0.1 * y - 7) == pytest.approx(base)


def test_correlation_pulse_self():
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, 60)
    pulse = correlation_pulse(x, x, shifts=[0])
    assert pulse.correlations[0] == pytest.approx(1.0)


def test_correlation_pulse_constructed_lag():
    rng = np.random.default_rng(17)
    diffs = rng.normal(0, 1, 120)
    # sentiment at t repeats the diff from 2 hours earlier
    sentiment = np.concatenate([np.zeros(2), diffs[:-2]])
    pulse = correlation_pulse(sentiment, diffs, shifts=range(-10, 4))
    shift, value = pulse_peak(pulse)
    assert shift == -2
    assert value == pytest.approx(1.0, abs=1e-9)


def test_correlation_pulse_constant_undefined():
    diffs = np.random.default_rng(1).normal(0, 1, 50)
    pulse = correlation_pulse(np.zeros(50), diffs, shifts=range(-3, 3))
    assert all(c is None for c in pulse.correlations)


def test_correlation_pulse_default_range_rows():
    rng = np.random.default_rng(23)
    x = rng.normal(0, 1, 80)
    pulse = correlation_pulse(x, rng.normal(0, 1, 80))
    assert len(pulse.shifts) == 14
    assert pulse.shifts[0] == -10 and pulse.shifts[-1] == 3


def test_correlation_pulse_does_not_depend_on_the_blas_thread_count():
    # BLAS may split a long dot product across threads; the pulse must not
    code = ("import numpy as np; from sentarl.sentiment import correlation_pulse; "
            "rng = np.random.default_rng(31); e = rng.normal(0, 1, 20000); "
            "print(repr(correlation_pulse(e, e + rng.normal(0, 30, 20000)).correlations))")
    src = str(Path(sentarl.__file__).resolve().parents[1])
    pulses = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        pulses.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                     capture_output=True, text=True, timeout=60).stdout)
    assert pulses[0] == pulses[1]
    assert pulses[0].count(",") == 13


def test_correlation_pulse_short_overlap_rejected():
    with pytest.raises(ValueError):
        correlation_pulse(np.arange(4.0), np.arange(4.0), shifts=[3])


def test_max_pulse_shift_is_the_widest_shift_series_pulse_takes():
    series = random_walk_series(30, seed=3)
    limit = max_pulse_shift(series)
    assert len(series_pulse(series, shifts=[-limit, limit]).shifts) == 2
    for shift in (-limit - 1, limit + 1):
        with pytest.raises(ValueError, match="fewer than"):
            series_pulse(series, shifts=[shift])


def test_series_pulse_handles_grid_offset():
    # sentiment exactly mirrors the concurrent price diff: e_t = z_t
    rng = np.random.default_rng(29)
    prices = 100 + np.cumsum(rng.normal(0, 1, 80))
    sentiment = np.concatenate([[0.0], np.diff(prices)])
    series = build_series(prices, sentiment)
    pulse = series_pulse(series, shifts=[0])
    assert pulse.correlations[0] == pytest.approx(1.0)


def test_write_pulse_csv(tmp_path):
    pulse = CorrelationPulse(shifts=[-1, 0], correlations=[None, 0.5])
    path = tmp_path / "pulse.csv"
    write_pulse_csv(pulse, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "shift,correlation"
    assert lines[1] == "-1,"
    assert lines[2] == "0,0.5"
