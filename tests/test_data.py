"""Ingestion, alignment, and cache round-trip behavior."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import build_series, hourly_stamps, random_walk_series, write_price_csv
from reference import compute_diffs, epoch_seconds, truncate_to_hour
from sentarl.data import (AlignedSeries, PriceTable, align, coverage, hour_fraction,
                          load_aligned, load_headlines, load_prices,
                          parse_timestamp, save_aligned)
from sentarl.errors import IngestError


def test_parse_timestamp_forms():
    want = datetime(2021, 3, 1, 9, 30, tzinfo=timezone.utc)
    assert parse_timestamp("2021-03-01T09:30:00Z") == want
    assert parse_timestamp("2021-03-01T09:30:00+00:00") == want
    assert parse_timestamp("2021-03-01 09:30:00") == want
    # non-UTC offsets convert to UTC
    assert parse_timestamp("2021-03-01T11:30:00+02:00") == want


def test_truncate_to_hour():
    ts = datetime(2021, 3, 1, 9, 37, 12, tzinfo=timezone.utc)
    assert truncate_to_hour(ts) == datetime(2021, 3, 1, 9, 0, tzinfo=timezone.utc)


def test_load_prices_two_rows(tmp_path):
    path = tmp_path / "p.csv"
    stamps = hourly_stamps(2)
    write_price_csv(path, [(stamps[0], "100.0"), (stamps[1], "101.5")])
    prices = load_prices(path)
    assert prices.closes.tolist() == [100.0, 101.5]


def test_load_prices_rejects_non_positive(tmp_path):
    path = tmp_path / "p.csv"
    stamps = hourly_stamps(2)
    write_price_csv(path, [(stamps[0], "100.0"), (stamps[1], "-1.0")])
    with pytest.raises(IngestError, match=r"p\.csv:3: non-positive price"):
        load_prices(path)


def test_load_prices_reports_a_non_finite_close(tmp_path):
    path = tmp_path / "p.csv"
    stamps = hourly_stamps(3)
    for close in ("nan", "inf", "-inf"):
        write_price_csv(path, [(stamps[0], "100.0"), (stamps[1], close), (stamps[2], "-1")])
        with pytest.raises(IngestError, match=rf"p\.csv:3: non-finite price {close}$"):
            load_prices(path)


def test_load_prices_rejects_duplicates_and_disorder(tmp_path):
    stamps = hourly_stamps(3)
    path = tmp_path / "dup.csv"
    write_price_csv(path, [(stamps[0], "1"), (stamps[0], "2")])
    with pytest.raises(IngestError, match="duplicate timestamp"):
        load_prices(path)
    path = tmp_path / "ooo.csv"
    write_price_csv(path, [(stamps[1], "1"), (stamps[0], "2")])
    with pytest.raises(IngestError, match="non-monotonic"):
        load_prices(path)


def test_load_prices_rejects_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("time,price\n2021-01-04T00:00:00Z,1\n")
    with pytest.raises(IngestError, match="header"):
        load_prices(path)


def test_load_headlines_score_validation(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("timestamp,headline,score\n"
                    "2021-01-04T00:10:00Z,all fine,0.5\n"
                    "2021-01-04T01:10:00Z,unscored,\n")
    headlines = load_headlines(path)
    assert headlines.scores[0] == 0.5
    assert math.isnan(headlines.scores[1])  # no score

    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,headline,score\n2021-01-04T00:10:00Z,x,1.5\n")
    with pytest.raises(IngestError, match=r"outside \[-1, 1\]"):
        load_headlines(bad)


def test_compute_diffs():
    assert compute_diffs([100, 100]).tolist() == [0]
    assert compute_diffs([100, 102, 101]).tolist() == [2, -1]
    with pytest.raises(ValueError):
        compute_diffs([100])


def test_diffs_telescope():
    rng = np.random.default_rng(3)
    prices = 100 + np.cumsum(rng.normal(0, 1, 50))
    diffs = compute_diffs(prices)
    assert np.isclose(diffs.sum(), prices[-1] - prices[0])


def test_align_basic_and_coverage(tmp_path):
    stamps = hourly_stamps(3, start="2021-03-01T01:00:00")
    path = tmp_path / "p.csv"
    write_price_csv(path, [(s, str(100 + i)) for i, s in enumerate(stamps)])
    prices = load_prices(path)
    # news only in the second hour; timestamp mid-hour truncates down
    grouped = hourly([datetime(2021, 3, 1, 2, 37, tzinfo=timezone.utc)], [0.5])
    series = align(prices, grouped, asset="A")
    assert series.has_news.tolist() == [False, True, False]
    assert series.sentiment.tolist() == [0.0, 0.5, 0.0]
    assert coverage(series) == pytest.approx(1 / 3)


def test_align_hour_fraction():
    stamps = hourly_stamps(1, start="2021-03-01T09:00:00")
    series = align(load_prices_rows(stamps, ["100"]), None)
    assert series.hours[0] == pytest.approx(9 / 24)
    assert series.hours[0] == pytest.approx(0.375)


def load_prices_rows(stamps, closes):
    hours = epoch_seconds(truncate_to_hour(parse_timestamp(s)) for s in stamps) // 3600
    return PriceTable(hours, np.array([float(c) for c in closes]))


def hourly(stamps, values):
    """(epoch hour, value) columns, as group_by_hour returns them."""
    return epoch_seconds(stamps) // 3600, np.array(values, dtype=np.float64)


def test_align_forward_fill():
    stamps = hourly_stamps(4)
    prices = load_prices_rows(stamps, ["1", "2", "3", "4"])
    grouped = hourly([parse_timestamp(stamps[1])], [0.5])
    series = align(prices, grouped, fill="forward-fill")
    assert series.sentiment.tolist() == [0.0, 0.5, 0.5, 0.5]
    assert series.has_news.tolist() == [False, True, False, False]


def test_align_drops_off_grid_news():
    stamps = hourly_stamps(3)
    prices = load_prices_rows(stamps, ["1", "2", "3"])
    off_grid = datetime(2030, 1, 1, tzinfo=timezone.utc)
    series = align(prices, hourly([off_grid], [0.9]))
    assert not series.has_news.any()


def test_align_empty_prices_rejected():
    with pytest.raises(ValueError):
        align(load_prices_rows([], []), None)


def bits(values: np.ndarray) -> bytes:
    """An array's bytes, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values).tobytes()


def test_aligned_series_invariants(tmp_path):
    # diffs and hours are derived from prices and timestamps, bit for bit,
    # however a series is made
    constructed = random_walk_series(50, seed=3)
    stamps = hourly_stamps(30, start="2021-03-01T05:00:00")
    aligned = align(load_prices_rows(stamps, [str(100 + i // 2) for i in range(30)]), None)
    save_aligned(constructed, tmp_path / "RND.aligned.csv")
    loaded = load_aligned(tmp_path / "RND.aligned.csv", asset="RND")
    for series in (constructed, aligned, loaded, constructed.slice(7, 31),
                   aligned.slice(1, 2)):
        assert bits(series.diffs) == bits(np.diff(series.prices))
        assert bits(series.hours) == bits(hour_fraction(series.timestamps))
    assert aligned.diffs.tolist() == [0.0, 1.0] * 14 + [0.0]
    assert aligned.hours.tolist() == [(5 + i) % 24 / 24 for i in range(30)]


def test_aligned_series_checks_its_given_channels():
    series = random_walk_series(5)
    given = {"asset": series.asset, "timestamps": series.timestamps,
             "prices": series.prices, "sentiment": series.sentiment,
             "has_news": series.has_news}
    channels = ("prices", "sentiment", "has_news")  # each as long as the timestamps
    with pytest.raises(ValueError, match="^empty series$"):
        AlignedSeries(**{**given, **{name: given[name][:0] for name in ("timestamps", *channels)}})
    for name in channels:
        with pytest.raises(ValueError, match=f"^channel {name} length mismatch$"):
            AlignedSeries(**{**given, name: given[name][:-1]})
    stamps = series.timestamps.copy()
    stamps[3] = stamps[1]
    with pytest.raises(ValueError, match="^duplicate timestamps in grid$"):
        AlignedSeries(**{**given, "timestamps": stamps})


def test_the_grid_check_refuses_any_repeat_and_takes_an_unsorted_grid():
    series = random_walk_series(49)  # 49 hourly points span 3 calendar dates
    given = {"asset": series.asset, "prices": series.prices,
             "sentiment": series.sentiment, "has_news": series.has_news}
    stamps = series.timestamps.copy()
    stamps[4] = stamps[3]  # an adjacent repeat in an otherwise increasing grid
    with pytest.raises(ValueError, match="^duplicate timestamps in grid$"):
        AlignedSeries(**given, timestamps=stamps)
    shuffled = np.random.default_rng(3).permutation(series.timestamps)
    assert (np.diff(shuffled) < np.timedelta64(0, "s")).any()
    unsorted = AlignedSeries(**given, timestamps=shuffled)
    assert np.array_equal(unsorted.timestamps, shuffled)
    assert unsorted.trading_days() == len({str(t)[:10] for t in shuffled}) == 3


def test_slice_rederives_diffs():
    series = random_walk_series(40, seed=5)
    part = series.slice(10, 30)
    assert len(part) == 20
    assert np.array_equal(part.diffs, np.diff(part.prices))
    assert np.array_equal(part.prices, series.prices[10:30])


def test_trading_days():
    series = random_walk_series(49)  # 49 hourly points span 3 calendar dates
    assert series.trading_days() == 3


def test_cache_round_trip(tmp_path):
    series = random_walk_series(60, seed=9, asset="RT")
    path = tmp_path / "RT.aligned.csv"
    save_aligned(series, path)
    loaded = load_aligned(path, asset="RT")
    assert loaded.asset == "RT"
    assert np.array_equal(loaded.prices, series.prices)  # bit-exact
    assert np.array_equal(loaded.diffs, series.diffs)
    assert np.array_equal(loaded.sentiment, series.sentiment)
    assert np.array_equal(loaded.has_news, series.has_news)
    assert np.array_equal(loaded.timestamps, series.timestamps)


def test_coverage_monotone():
    series = random_walk_series(30, seed=2)
    fewer = series.has_news.copy()
    fewer[np.argmax(fewer)] = False
    less = AlignedSeries(series.asset, series.timestamps, series.prices,
                         series.sentiment, fewer)
    assert coverage(less) <= coverage(series)
