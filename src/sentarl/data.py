"""Loading, validation, and hourly alignment of price and headline data.

Prices arrive as a CSV with header ``timestamp,close`` (ISO-8601 UTC
timestamps, ``.`` decimal separator). Headlines arrive as a CSV with header
``timestamp,headline,score`` where the score cell may be empty. The hourly
grid is defined by the price file itself: rows are treated as consecutive
instants and no gap filling or resampling is performed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import IngestError
from .files import read_rows, write_csv

if TYPE_CHECKING:
    from .sentiment import FillPolicy

logger = logging.getLogger(__name__)

PRICE_HEADER = ["timestamp", "close"]
NEWS_HEADER = ["timestamp", "headline", "score"]
CACHE_HEADER = ["timestamp", "close", "diff", "tau", "sentiment", "has_news"]
#: An asset's aligned cache is <output dir>/CACHE_DIR/<asset>CACHE_SUFFIX.
CACHE_DIR, CACHE_SUFFIX = "caches", ".aligned.csv"


@dataclass(frozen=True)
class PriceRecord:
    """One hourly close, timestamp truncated to the hour (UTC)."""

    timestamp: datetime
    close: float


@dataclass(frozen=True)
class HeadlineRecord:
    """One news headline with an optional precomputed sentiment score."""

    timestamp: datetime
    headline: str
    score: float | None = None


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def truncate_to_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def load_prices(path: str | Path) -> list[PriceRecord]:
    """Load and validate an hourly price CSV.

    Timestamps are truncated to the hour and must be strictly increasing;
    closes must be positive. Errors report the offending line number.
    """
    path = Path(path)
    records: list[PriceRecord] = []
    prev: datetime | None = None
    for lineno, row in read_rows(path, PRICE_HEADER):
        if len(row) != 2:
            raise IngestError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            ts = truncate_to_hour(parse_timestamp(row[0]))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: bad timestamp {row[0]!r}: {exc}") from None
        try:
            close = float(row[1])
        except ValueError:
            raise IngestError(f"{path}:{lineno}: bad close {row[1]!r}") from None
        if not np.isfinite(close) or close <= 0:
            raise IngestError(f"{path}:{lineno}: non-positive price {row[1]}")
        if prev is not None:
            if ts == prev:
                raise IngestError(f"{path}:{lineno}: duplicate timestamp {row[0]}")
            if ts < prev:
                raise IngestError(f"{path}:{lineno}: non-monotonic timestamp {row[0]}")
        prev = ts
        records.append(PriceRecord(ts, close))
    logger.info("loaded %d price records from %s", len(records), path)
    return records


def load_headlines(path: str | Path) -> list[HeadlineRecord]:
    """Load a headline CSV; an empty score cell means "score via scorer"."""
    path = Path(path)
    records: list[HeadlineRecord] = []
    for lineno, row in read_rows(path, NEWS_HEADER):
        if len(row) != 3:
            raise IngestError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            ts = parse_timestamp(row[0])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: bad timestamp {row[0]!r}: {exc}") from None
        score: float | None = None
        if row[2].strip():
            try:
                score = float(row[2])
            except ValueError:
                raise IngestError(f"{path}:{lineno}: bad score {row[2]!r}") from None
            if not -1.0 <= score <= 1.0:
                raise IngestError(f"{path}:{lineno}: score {score} outside [-1, 1]")
        records.append(HeadlineRecord(ts, row[1], score))
    logger.info("loaded %d headline records from %s", len(records), path)
    return records


def compute_diffs(prices: Sequence[float] | np.ndarray) -> np.ndarray:
    """Consecutive price differences: element t is ``prices[t+1] - prices[t]``."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 prices to compute differences")
    return np.diff(arr)


@dataclass
class AlignedSeries:
    """Hourly-gridded channels for one asset.

    ``diffs`` has length ``T - 1`` and obeys ``diffs[t] = prices[t+1] -
    prices[t]`` exactly; ``hours`` is the hour of day divided by 24;
    ``sentiment`` carries the grouped per-hour value with ``has_news``
    flagging which slots had at least one headline.
    """

    asset: str
    timestamps: np.ndarray  # datetime64[s], length T
    prices: np.ndarray      # float64, length T
    diffs: np.ndarray       # float64, length T - 1
    hours: np.ndarray       # float64 in [0, 1), length T
    sentiment: np.ndarray   # float64 in [-1, 1], length T
    has_news: np.ndarray = field(default=None)  # bool, length T

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.prices = np.asarray(self.prices, dtype=np.float64)
        self.diffs = np.asarray(self.diffs, dtype=np.float64)
        self.hours = np.asarray(self.hours, dtype=np.float64)
        self.sentiment = np.asarray(self.sentiment, dtype=np.float64)
        if self.has_news is None:
            self.has_news = np.zeros(len(self.prices), dtype=bool)
        self.has_news = np.asarray(self.has_news, dtype=bool)
        n = len(self.timestamps)
        if n == 0:
            raise ValueError("empty series")
        for name in ("prices", "hours", "sentiment", "has_news"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name} length mismatch")
        if len(self.diffs) != n - 1:
            raise ValueError("diffs channel must have length T - 1")
        if n > 1 and not np.array_equal(self.diffs, np.diff(self.prices)):
            raise ValueError("diffs are not exact consecutive price differences")
        if len(np.unique(self.timestamps)) != n:
            raise ValueError("duplicate timestamps in grid")
        if np.any((self.hours < 0.0) | (self.hours >= 1.0)):
            raise ValueError("hour-of-day channel outside [0, 1)")

    def __len__(self) -> int:
        return len(self.timestamps)

    def slice(self, start: int, stop: int) -> "AlignedSeries":
        """Sub-series over grid indices [start, stop); diffs are re-derived
        within the slice, so the first in-slice diff spans its own rows only."""
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad slice [{start}, {stop}) for length {len(self)}")
        return AlignedSeries(
            asset=self.asset,
            timestamps=self.timestamps[start:stop],
            prices=self.prices[start:stop],
            diffs=self.diffs[start:stop - 1],
            hours=self.hours[start:stop],
            sentiment=self.sentiment[start:stop],
            has_news=self.has_news[start:stop],
        )

    def trading_days(self) -> int:
        """Distinct calendar dates covered by the grid (the AR day count)."""
        return len(np.unique(self.timestamps.astype("datetime64[D]")))


def hour_fraction(timestamps: np.ndarray) -> np.ndarray:
    """Hour of day divided by 24 for an array of datetime64 values."""
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    hours = (ts.astype("datetime64[h]") - ts.astype("datetime64[D]")).astype(np.int64)
    return hours.astype(np.float64) / 24.0


def align(
    prices: Sequence[PriceRecord],
    grouped: Sequence[tuple[datetime, float]],
    asset: str = "",
    fill: "FillPolicy | str" = "neutral-zero",
) -> AlignedSeries:
    """Place grouped per-hour sentiment onto the price grid.

    ``grouped`` holds (timestamp, value) pairs; timestamps are truncated to
    the containing hour. Values whose hour is not on the price grid are
    dropped with a logged count. Slots without news get the fill policy's
    value and ``has_news = False``.
    """
    from .sentiment import fill_gaps

    if not prices:
        raise ValueError("empty price series")
    ts = np.array([np.datetime64(p.timestamp.replace(tzinfo=None), "s") for p in prices])
    close = np.array([p.close for p in prices], dtype=np.float64)
    index = {t: i for i, t in enumerate(ts.astype("datetime64[h]"))}

    slots: list[float | None] = [None] * len(prices)
    dropped = 0
    for when, value in grouped:
        if when.tzinfo is not None:
            when = when.astimezone(timezone.utc)
        hour = np.datetime64(truncate_to_hour(when).replace(tzinfo=None), "h")
        i = index.get(hour)
        if i is None:
            dropped += 1
            continue
        slots[i] = float(value)
    if dropped:
        logger.warning("%s: dropped %d grouped sentiment values with no price hour",
                       asset or "series", dropped)

    has_news = np.array([v is not None for v in slots], dtype=bool)
    sentiment = np.asarray(fill_gaps(slots, fill), dtype=np.float64)
    diffs = np.diff(close) if len(close) > 1 else np.empty(0)
    return AlignedSeries(
        asset=asset,
        timestamps=ts,
        prices=close,
        diffs=diffs,
        hours=hour_fraction(ts),
        sentiment=sentiment,
        has_news=has_news,
    )


def coverage(series: AlignedSeries) -> float:
    """Fraction of grid hours with at least one headline."""
    return float(np.count_nonzero(series.has_news)) / len(series)


def save_aligned(series: AlignedSeries, path: str | Path) -> None:
    """Write the aligned cache CSV (column layout in CACHE_HEADER), atomically."""
    stamps = np.datetime_as_string(series.timestamps, unit="s")
    write_csv(path, CACHE_HEADER, ([
        stamps[i] + "Z",
        repr(float(series.prices[i])),
        repr(float(series.diffs[i - 1])) if i > 0 else "",
        repr(float(series.hours[i])),
        repr(float(series.sentiment[i])),
        "1" if series.has_news[i] else "0",
    ] for i in range(len(series))))


def load_aligned(path: str | Path, asset: str | None = None) -> AlignedSeries:
    """Read an aligned cache CSV back; the asset defaults to the file name
    without CACHE_SUFFIX, or else to its stem up to the first '.'.

    Every row is checked as the cache writes it: timestamps increase,
    closes are finite and positive, the diff cell is empty on the first row
    only and otherwise holds the exact close difference, tau lies in
    [0, 1), sentiment is finite and has_news is 0 or 1. The first row that
    fails is an IngestError naming its line.
    """
    path = Path(path)
    lines: list[int] = []
    stamps: list[np.datetime64] = []
    close: list[float] = []
    diffs: list[float] = []
    has_diff: list[bool] = []
    tau: list[float] = []
    sentiment: list[float] = []
    has_news: list[bool] = []
    for lineno, row in read_rows(path, CACHE_HEADER):
        if len(row) != 6:
            raise IngestError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
        try:
            ts = parse_timestamp(row[0])
            stamps.append(np.datetime64(ts.replace(tzinfo=None), "s"))
            close.append(float(row[1]))
            has_diff.append(bool(row[2].strip()))
            if has_diff[-1]:
                diffs.append(float(row[2]))
            tau.append(float(row[3]))
            sentiment.append(float(row[4]))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: bad row: {exc}") from None
        flag = row[5].strip()
        if flag not in ("0", "1"):
            raise IngestError(f"{path}:{lineno}: has_news {row[5]!r} is not 0 or 1")
        has_news.append(flag == "1")
        lines.append(lineno)
    if not stamps:
        raise IngestError(f"{path}: cache holds no rows")
    timestamps, prices, hours, sent = (np.array(a) for a in (stamps, close, tau, sentiment))
    diff_cells = np.array(has_diff)
    diff_of_row = np.full(len(lines), np.nan)
    diff_of_row[diff_cells] = diffs
    with np.errstate(invalid="ignore"):  # inf - inf where a close is infinite
        steps = np.diff(prices, prepend=np.nan)
    problems = (
        (np.r_[False, timestamps[1:] <= timestamps[:-1]],
         "timestamp does not follow the previous row's"),
        (~(np.isfinite(prices) & (prices > 0)), "close is not a positive price"),
        (diff_cells != (np.arange(len(lines)) > 0),
         "the diff cell must be empty on the first row only"),
        (diff_cells & (diff_of_row != steps), "diff is not the close difference"),
        (~((hours >= 0.0) & (hours < 1.0)), "tau outside [0, 1)"),
        (~np.isfinite(sent), "non-finite sentiment"),
    )
    failed = [(int(np.argmax(bad)), order) for order, (bad, _) in enumerate(problems)
              if bad.any()]
    if failed:
        row_index, order = min(failed)
        raise IngestError(f"{path}:{lines[row_index]}: {problems[order][1]}")
    if asset is None:
        asset = (path.name.removesuffix(CACHE_SUFFIX) if path.name.endswith(CACHE_SUFFIX)
                 else path.stem.split(".")[0])
    return AlignedSeries(
        asset=asset,
        timestamps=timestamps,
        prices=prices,
        diffs=np.array(diffs),
        hours=hours,
        sentiment=sent,
        has_news=np.array(has_news),
    )
