"""Property tests of the CSV loaders: generated rows round-trip, and any
malformed row is an IngestError that names its path and line."""

import csv
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_series
from sentarl import data as data_module
from sentarl.data import load_aligned, load_headlines, load_prices, save_aligned
from sentarl.errors import IngestError

START = datetime(2021, 1, 4, tzinfo=timezone.utc)
PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
# per fault kind, which pytest parametrizes so each kind is always drawn
PER_FAULT = settings(PROPERTY, max_examples=8)

prices = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
scores = st.one_of(st.none(), st.floats(min_value=-1.0, max_value=1.0))
headlines = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Blocks of 3 rows, so a generated file spans several blocks and a
    fault can sit on either side of a block boundary."""
    monkeypatch.setattr(data_module, "READ_BLOCK", 3)
    monkeypatch.setattr(data_module, "CACHE_BLOCK", 3)


def stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_rows(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def assert_names_line(path, line, load, message=None):
    with pytest.raises(IngestError) as info:
        load(path)
    assert f"{path}:{line}:" in str(info.value)
    if message is not None:
        assert str(info.value) == f"{path}:{line}: {message}"


@st.composite
def price_rows(draw, min_size=1):
    """Strictly increasing hours, each stamped somewhere inside its hour."""
    gaps = draw(st.lists(st.integers(1, 48), min_size=min_size, max_size=12))
    hours = np.cumsum(gaps).tolist()
    minutes = draw(st.lists(st.integers(0, 3599), min_size=len(hours), max_size=len(hours)))
    closes = draw(st.lists(prices, min_size=len(hours), max_size=len(hours)))
    return [(START + timedelta(hours=h, seconds=m), c) for h, m, c in zip(hours, minutes, closes)]


@PROPERTY
@given(rows=price_rows())
def test_load_prices_round_trips(tmp_path, rows):
    path = tmp_path / "prices.csv"
    write_rows(path, ["timestamp", "close"], [(stamp(ts), repr(c)) for ts, c in rows])
    records = load_prices(path)
    assert [(r.timestamp, r.close) for r in records] == [
        (ts.replace(minute=0, second=0), c) for ts, c in rows]


# what datetime.fromisoformat says of each bad timestamp cell
BAD_STAMPS = {"": "Invalid isoformat string: ''",
              "yesterday": "Invalid isoformat string: 'yesterday'",
              "2021-13-01T00:00:00Z": "month must be in 1..12"}
PRICE_FAULTS = ("extra field", "missing field", "bad timestamp", "bad close",
                "non-positive close", "non-finite close", "repeated hour", "earlier hour")


@pytest.mark.parametrize("fault", PRICE_FAULTS)
@PER_FAULT
@given(rows=price_rows(min_size=2), data=st.data())
def test_load_prices_names_the_malformed_line(tmp_path, fault, rows, data):
    cells = [[stamp(ts), repr(c)] for ts, c in rows]
    i = data.draw(st.integers(1, len(cells) - 1))
    row = cells[i]
    if fault == "extra field":
        row.append("1")
        message = "expected 2 fields, got 3"
    elif fault == "missing field":
        row.pop()
        message = "expected 2 fields, got 1"
    elif fault == "bad timestamp":
        row[0] = data.draw(st.sampled_from(sorted(BAD_STAMPS)))
        message = f"bad timestamp {row[0]!r}: {BAD_STAMPS[row[0]]}"
    elif fault == "bad close":
        row[1] = data.draw(st.sampled_from(["", "abc", "1,5"]))
        message = f"bad close {row[1]!r}"
    elif fault == "non-positive close":
        row[1] = repr(-data.draw(st.floats(0.0, 1e9)))
        message = f"non-positive price {row[1]}"
    elif fault == "non-finite close":
        row[1] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        message = f"non-finite price {row[1]}"
    elif fault == "repeated hour":
        row[0] = cells[i - 1][0]
        message = f"duplicate timestamp {row[0]}"
    else:
        row[0] = stamp(rows[i - 1][0] - timedelta(hours=1))
        message = f"non-monotonic timestamp {row[0]}"
    path = tmp_path / "prices.csv"
    write_rows(path, ["timestamp", "close"], cells)
    assert_names_line(path, i + 2, load_prices, message)


@st.composite
def headline_rows(draw, min_size=0):
    n = draw(st.integers(min_size, 10))
    offsets = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    return [(START + timedelta(seconds=o), draw(headlines), draw(scores)) for o in offsets]


def headline_cells(rows):
    return [[stamp(ts), text, "" if score is None else repr(score)]
            for ts, text, score in rows]


@PROPERTY
@given(rows=headline_rows())
def test_load_headlines_round_trips(tmp_path, rows):
    path = tmp_path / "news.csv"
    write_rows(path, ["timestamp", "headline", "score"], headline_cells(rows))
    records = load_headlines(path)
    assert [(r.timestamp, r.headline, r.score) for r in records] == rows


@pytest.mark.parametrize("fault", ["extra field", "missing field", "bad timestamp",
                                   "bad score", "score out of range"])
@PER_FAULT
@given(rows=headline_rows(min_size=1), data=st.data())
def test_load_headlines_names_the_malformed_line(tmp_path, fault, rows, data):
    cells = headline_cells(rows)
    i = data.draw(st.integers(0, len(cells) - 1))
    row = cells[i]
    if fault == "extra field":
        row.append("x")
        message = "expected 3 fields, got 4"
    elif fault == "missing field":
        row.pop()
        message = "expected 3 fields, got 2"
    elif fault == "bad timestamp":
        row[0] = "noon"
        message = "bad timestamp 'noon': Invalid isoformat string: 'noon'"
    elif fault == "bad score":
        row[2] = data.draw(st.sampled_from(["high", "nan", "0.5.1"]))
        message = ("score nan outside [-1, 1]" if row[2] == "nan"
                   else f"bad score {row[2]!r}")
    else:
        row[2] = repr(data.draw(st.one_of(st.floats(1.0, 1e6, exclude_min=True),
                                          st.floats(-1e6, -1.0, exclude_max=True))))
        message = f"score {row[2]} outside [-1, 1]"
    path = tmp_path / "news.csv"
    write_rows(path, ["timestamp", "headline", "score"], cells)
    assert_names_line(path, i + 2, load_headlines, message)


@st.composite
def aligned_series(draw, min_size=2):
    n = draw(st.integers(min_size, 12))
    closes = draw(st.lists(prices, min_size=n, max_size=n))
    news = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sentiment = [draw(st.floats(-1.0, 1.0)) if flag else 0.0 for flag in news]
    return build_series(np.array(closes), np.array(sentiment), np.array(news))


@PROPERTY
@given(series=aligned_series(min_size=1))
def test_load_aligned_round_trips(tmp_path, series):
    path = tmp_path / "X.aligned.csv"
    save_aligned(series, path)
    back = load_aligned(path)
    assert back.asset == "X"
    for name in ("timestamps", "prices", "diffs", "hours", "sentiment", "has_news"):
        assert np.array_equal(getattr(back, name), getattr(series, name))


CACHE_FAULTS = ("missing field", "bad timestamp", "earlier timestamp", "bad close",
                "non-positive close", "infinite close", "missing diff", "wrong diff",
                "diff on first row", "tau out of range", "non-finite sentiment",
                "bad has_news")

CACHE_MESSAGES = {
    "missing field": "expected 6 fields, got 5",
    "bad timestamp": "bad row: day is out of range for month",
    "earlier timestamp": "timestamp does not follow the previous row's",
    "bad close": "bad row: could not convert string to float: 'close'",
    "non-positive close": "close is not a positive price",
    "infinite close": "close is not a positive price",
    "missing diff": "the diff cell must be empty on the first row only",
    "wrong diff": "diff is not the close difference",
    "diff on first row": "the diff cell must be empty on the first row only",
    "tau out of range": "tau outside [0, 1)",
    "non-finite sentiment": "non-finite sentiment",
}


@pytest.mark.parametrize("fault", CACHE_FAULTS)
@PER_FAULT
@given(series=aligned_series(), data=st.data())
def test_load_aligned_names_the_malformed_line(tmp_path, fault, series, data):
    path = tmp_path / "X.aligned.csv"
    save_aligned(series, path)
    with path.open(newline="", encoding="utf-8") as fh:
        header, *cells = list(csv.reader(fh))
    first = 0 if fault == "diff on first row" else 1
    i = data.draw(st.integers(first, len(cells) - 1))
    row = cells[i]
    message = CACHE_MESSAGES.get(fault)
    if fault == "missing field":
        row.pop()
    elif fault == "bad timestamp":
        row[0] = "2021-02-30T00:00:00Z"
    elif fault == "earlier timestamp":
        row[0] = cells[i - 1][0]
    elif fault == "bad close":
        row[1] = "close"
    elif fault == "non-positive close":
        row[1] = data.draw(st.sampled_from(["0.0", "-3.5"]))
    elif fault == "infinite close":
        row[1] = "inf"
    elif fault == "missing diff":
        row[2] = ""
    elif fault == "wrong diff":
        row[2] = repr(float(row[2]) + max(1.0, abs(float(row[2]))))
    elif fault == "diff on first row":
        row[2] = "0.0" if i == 0 else ""
    elif fault == "tau out of range":
        row[3] = data.draw(st.sampled_from(["1.0", "-0.5", "nan"]))
    elif fault == "non-finite sentiment":
        row[4] = data.draw(st.sampled_from(["nan", "inf"]))
    else:
        row[5] = data.draw(st.sampled_from(["2", "yes", ""]))
        message = f"has_news {row[5]!r} is not 0 or 1"
    write_rows(path, header, cells)
    assert_names_line(path, i + 2, load_aligned, message)
