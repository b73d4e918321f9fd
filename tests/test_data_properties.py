"""Property tests of the CSV loaders: generated rows round-trip, and any
malformed row is an IngestError that names its path and line."""

import csv
import math
from datetime import datetime, timedelta, timezone
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_series
from reference import (align_records, epoch_seconds, group_records, hour_stamp,
                       load_headline_records, load_price_records, score_records,
                       truncate_to_hour)
from sentarl import data as data_module
from sentarl.config import FILL_POLICIES, GROUPINGS
from sentarl.data import (align, decode_timestamps, load_aligned, load_headlines,
                          load_prices, parse_timestamp, save_aligned)
from sentarl.errors import IngestError
from sentarl.sentiment import group_by_hour, score_headlines

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
    prices = load_prices(path)
    assert [(hour_stamp(h), c) for h, c in zip(prices.hours.tolist(), prices.closes.tolist())] == [
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
    table = load_headlines(path)
    # the table keeps each headline's hour, and NaN for an empty score cell
    assert [(hour_stamp(h), text, None if math.isnan(score) else score)
            for h, text, score in zip(table.hours.tolist(), table.texts,
                                      table.scores.tolist())] == [
        (truncate_to_hour(ts), text, score) for ts, text, score in rows]
    # and the whole seconds, through the decoder the loader uses
    seconds, exc = decode_timestamps([stamp(ts) for ts, _, _ in rows])
    assert exc is None
    assert seconds.tolist() == epoch_seconds(ts for ts, _, _ in rows).tolist()


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
    back = load_aligned(path, asset="X")
    assert back.asset == "X"
    for name in ("timestamps", "prices", "diffs", "hours", "sentiment", "has_news"):
        assert np.array_equal(getattr(back, name), getattr(series, name))


CACHE_FAULTS = ("missing field", "bad timestamp", "earlier timestamp", "bad close",
                "non-positive close", "infinite close", "non-finite sentiment",
                "bad has_news")

CACHE_MESSAGES = {
    "missing field": "expected 4 fields, got 3",
    "bad timestamp": "bad row: day is out of range for month",
    "earlier timestamp": "timestamp does not follow the previous row's",
    "bad close": "bad row: could not convert string to float: 'close'",
    "non-positive close": "close is not a positive price",
    "infinite close": "close is not a positive price",
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
    i = data.draw(st.integers(1, len(cells) - 1))
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
    elif fault == "non-finite sentiment":
        row[2] = data.draw(st.sampled_from(["nan", "inf"]))
    else:
        row[3] = data.draw(st.sampled_from(["2", "yes", ""]))
        message = f"has_news {row[3]!r} is not 0 or 1"
    write_rows(path, header, cells)
    assert_names_line(path, i + 2, partial(load_aligned, asset="X"), message)


# ------------------------------------------------------ timestamp decoder

#: Cells at the edges of the canonical YYYY-MM-DDTHH:MM:SSZ form, and the
#: other spellings parse_timestamp accepts or rejects.
EDGE_STAMPS = (
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "0000-06-01T00:00:00Z",
    "1900-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "2023-02-29T00:00:00Z",
    "2024-02-29T23:00:00Z", "2021-04-31T00:00:00Z", "2021-04-30T00:00:00Z",
    "2021-00-10T00:00:00Z", "2021-13-10T00:00:00Z", "2021-01-00T00:00:00Z",
    "2021-01-01T24:00:00Z", "2021-01-01T00:60:00Z", "2021-01-01T00:00:60Z",
    "202\u0661-01-01T00:00:00Z", "2021-01-01T00:00:0\u0661Z",
    "2021-03-01T11:30:00+02:00", "2021-03-01T04:30:00.250-05:00", "2021-03-01 09:30:00",
    "2021-03-01T09:30:00.999999Z", "1969-12-31T23:59:59.5Z", "2021-03-01t09:30:00z",
    " 2021-03-01T09:30:00Z", "2021-03-01T09:30:00Z ", "", "2021",
    "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00",
)
#: A 19-character cell then a 21-character one: joined, they read as two
#: canonical stamps.
MISALIGNED = ["2021-01-01T00:00:00", "Z2021-01-01T00:00:00Z"]
canonical_stamps = st.datetimes(min_value=datetime(1, 1, 1),
                                max_value=datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda ts: f"{ts.year:04d}-{ts:%m-%dT%H:%M:%S}Z")
stamp_blocks = st.lists(canonical_stamps, min_size=1, max_size=7) | st.lists(
    canonical_stamps.map(lambda cell: [cell]) | st.sampled_from(EDGE_STAMPS).map(
        lambda cell: [cell]) | st.just(MISALIGNED), min_size=1, max_size=5).map(
    lambda units: [cell for unit in units for cell in unit])


def reference_seconds(cells):
    """parse_timestamp of each cell, floored to whole seconds, up to the
    first cell it rejects, and that rejection's text."""
    out = []
    for cell in cells:
        try:
            out.append(int(epoch_seconds([parse_timestamp(cell)])[0]))
        except ValueError as exc:
            return out, str(exc)
    return out, None


REJECTED_STAMPS = [cell for cell in EDGE_STAMPS if reference_seconds([cell])[1] is not None]


@settings(PROPERTY, max_examples=200)
@given(cells=stamp_blocks)
def test_decoder_matches_parse_timestamp(cells):
    seconds, exc = decode_timestamps(cells)
    assert seconds.dtype == np.int64
    assert (seconds.tolist(), None if exc is None else str(exc)) == reference_seconds(cells)


def test_canonical_blocks_skip_parse_timestamp(monkeypatch):
    def refuse(text):
        raise AssertionError(f"parse_timestamp({text!r}) on a canonical block")

    cells = ["0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2000-02-29T12:00:00Z",
             "2024-02-29T00:00:00Z", "1969-12-31T23:59:59Z"]
    want = reference_seconds(cells)
    monkeypatch.setattr(data_module, "parse_timestamp", refuse)
    seconds, exc = decode_timestamps(cells)
    assert (seconds.tolist(), exc) == want


@PROPERTY
@given(cells=stamp_blocks)
def test_load_headlines_decodes_as_parse_timestamp(tmp_path, cells):
    path = tmp_path / "news.csv"
    write_rows(path, ["timestamp", "headline", "score"], [[cell, "x", "0.5"] for cell in cells])
    want, error = reference_seconds(cells)
    if error is None:
        assert load_headlines(path).hours.tolist() == [s // 3600 for s in want]
    else:
        bad = cells[len(want)]
        assert_names_line(path, len(want) + 2, load_headlines, f"bad timestamp {bad!r}: {error}")


@PROPERTY
@given(n=st.integers(1, 8), data=st.data())
def test_load_prices_names_a_rejected_stamp(tmp_path, n, data):
    cells = [[stamp(START + timedelta(hours=h)), "1.5"] for h in range(n)]
    i = data.draw(st.integers(0, n - 1))
    bad = cells[i][0] = data.draw(st.sampled_from(REJECTED_STAMPS))
    path = tmp_path / "prices.csv"
    write_rows(path, ["timestamp", "close"], cells)
    error = reference_seconds([bad])[1]
    assert_names_line(path, i + 2, load_prices, f"bad timestamp {bad!r}: {error}")


@pytest.mark.parametrize("load, header, row, message", [
    (load_prices, ["timestamp", "close"], ["1.5"], "bad timestamp {cell!r}: {error}"),
    (load_headlines, ["timestamp", "headline", "score"], ["x", "0.5"],
     "bad timestamp {cell!r}: {error}"),
    (partial(load_aligned, asset="X"),
     ["timestamp", "close", "sentiment", "has_news"],
     ["1.5", "0.0", "0"], "bad row: {error}"),
], ids=["prices", "news", "cache"])
@pytest.mark.parametrize("cell", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_an_offset_stamp_outside_years_1_to_9999_is_a_bad_timestamp(tmp_path, load, header,
                                                                    row, message, cell):
    path = tmp_path / "X.aligned.csv"
    first = [stamp(START), "1.5", "0.0", "0"][:len(header)]
    write_rows(path, header, [first, [cell, *row]])
    assert_names_line(path, 3, load,
                      message.format(cell=cell, error="date value out of range"))


# ------------------------------------------- column chain against records


def spelled(ts: datetime, form: int) -> str:
    """`ts` (UTC) in one of the spellings the loaders accept."""
    if form == 0:
        return stamp(ts)
    if form == 1:
        return (ts + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S+02:00")
    if form == 2:
        return ts.strftime("%Y-%m-%d %H:%M:%S")
    return ts.strftime("%Y-%m-%dT%H:%M:%S.%fZ")


#: Each headline is one word; "news" is not in the lexicon, so it scores 0.0.
LEXICON = {"gain": 0.5, "loss": -0.75, "flat": 0.0, "sink": -0.0, "boom": 1.0}
WORDS = st.sampled_from([*LEXICON, "news"])
#: mostly signed zeros, which only Python's min and max keep in input order
SCORE_CELLS = st.sampled_from(["", "0.0", "-0.0", "0.0", "-0.0", "0.5", "-1"]) | st.floats(
    -1.0, 1.0).map(repr)


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), grouping=st.sampled_from(GROUPINGS),
       fill=st.sampled_from(FILL_POLICIES))
def test_column_chain_matches_the_record_chain(tmp_path, data, grouping, fill):
    forms = st.integers(0, 3)
    rows = data.draw(price_rows())
    # mostly canonical stamps, so that some blocks take the numpy path
    price_cells = [[spelled(ts, data.draw(forms)) if data.draw(st.booleans()) else stamp(ts),
                    repr(close)] for ts, close in rows]
    news_cells = []
    for _ in range(data.draw(st.integers(0, 12))):
        # in a price row's hour or the hour before it, which may be off the grid
        at = truncate_to_hour(rows[data.draw(st.integers(0, len(rows) - 1))][0]) + timedelta(
            microseconds=data.draw(st.integers(-3_600_000_000, 3_599_999_999)))
        news_cells.append([spelled(at, data.draw(forms)), data.draw(WORDS), data.draw(SCORE_CELLS)])
    assert_chains_agree(tmp_path, price_cells, news_cells, grouping, fill)


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_column_chain_keeps_signed_zeros_in_input_order(tmp_path, grouping):
    # Python's min and max keep the first of 0.0 and -0.0; numpy's do not
    news_cells = [["2021-01-04T00:10:00Z", "news", "0.0"], ["2021-01-04T00:20:00Z", "sink", ""],
                  ["2021-01-04T01:10:00Z", "news", "-0.0"], ["2021-01-04T01:50:00Z", "flat", ""]]
    price_cells = [["2021-01-04T00:00:00Z", "1.0"], ["2021-01-04T01:00:00Z", "2.0"]]
    got = assert_chains_agree(tmp_path, price_cells, news_cells, grouping, "neutral-zero")
    assert np.signbit(got.sentiment).tolist() == [False, grouping != "mean"]


def assert_chains_agree(tmp_path, price_cells, news_cells, grouping, fill):
    """Ingest the cells through the column chain and through the record
    chain of reference.py; the two series must hold the same bytes."""
    prices, news = tmp_path / "prices.csv", tmp_path / "news.csv"
    write_rows(prices, ["timestamp", "close"], price_cells)
    write_rows(news, ["timestamp", "headline", "score"], news_cells)
    got = align(load_prices(prices),
                group_by_hour(score_headlines(load_headlines(news), LEXICON), grouping),
                asset="X", fill=fill)
    want = align_records(load_price_records(prices),
                         group_records(score_records(load_headline_records(news), LEXICON),
                                       grouping),
                         asset="X", fill=fill)
    assert got.asset == want.asset
    for name in ("timestamps", "prices", "diffs", "hours", "sentiment", "has_news"):
        # bytes, so that -0.0 and 0.0 differ
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    return got
