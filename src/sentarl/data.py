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
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import FILL_POLICIES, _choice
from .errors import IngestError
from .files import atomic_open, read_rows

logger = logging.getLogger(__name__)

PRICE_HEADER = ["timestamp", "close"]
NEWS_HEADER = ["timestamp", "headline", "score"]
CACHE_HEADER = ["timestamp", "close", "sentiment", "has_news"]
#: Rows the loaders parse, and the cache writer formats, at a time: enough
#: to amortize the numpy calls, few enough that one block's strings stay
#: small next to the arrays they become.
READ_BLOCK, CACHE_BLOCK = 1024, 4096
#: The Unix epoch and one second, for the timestamps parse_timestamp reads.
EPOCH, SECOND = datetime(1970, 1, 1, tzinfo=timezone.utc), timedelta(seconds=1)


@dataclass(frozen=True, eq=False)
class PriceTable:
    """An hourly price file as columns, one entry per row."""

    hours: np.ndarray   # int64 hours since the Unix epoch, strictly increasing
    closes: np.ndarray  # float64, finite and positive

    def __len__(self) -> int:
        return len(self.hours)


@dataclass(frozen=True, eq=False)
class HeadlineTable:
    """A headline file as columns, one entry per row, in file order."""

    hours: np.ndarray   # int64 hours since the Unix epoch (the containing UTC hour)
    texts: list[str]
    scores: np.ndarray  # float64 in [-1, 1]; NaN where the score cell is empty

    def __len__(self) -> int:
        return len(self.hours)


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:  # its UTC form falls outside years 1-9999
        raise ValueError(str(exc)) from None


#: The canonical stamp YYYY-MM-DDTHH:MM:SSZ: the positions of its
#: separators and their bytes, and the positions of its digits.
_SEPARATOR_AT, _SEPARATORS = [4, 7, 10, 13, 16, 19], np.frombuffer(b"--T::Z", np.uint8)
_DIGITS = [i for i in range(20) if i not in _SEPARATOR_AT]


def decode_timestamps(cells: Sequence[str]) -> tuple[np.ndarray, ValueError | None]:
    """Whole seconds since the Unix epoch (floored), as int64, of each cell
    up to the first one parse_timestamp rejects, and its error.

    A block of cells that all read YYYY-MM-DDTHH:MM:SSZ, each field in its
    range, is parsed by numpy's datetime64. Any other block goes through
    parse_timestamp cell by cell, so every spelling it accepts is accepted
    here, with the same value, and every rejection keeps its text.
    """
    seconds = _decode_canonical(cells)
    if seconds is not None:
        return seconds, None
    out: list[int] = []
    try:
        for cell in cells:
            out.append((parse_timestamp(cell) - EPOCH) // SECOND)
    except ValueError as exc:
        return np.array(out, dtype=np.int64), exc
    return np.array(out, dtype=np.int64), None


def _decode_canonical(cells: Sequence[str]) -> np.ndarray | None:
    """The epoch seconds of `cells` if every one is a canonical stamp with
    every field in range, else None."""
    text = "".join(cells)
    # each cell's own length: a joined length alone lets a 19-character
    # cell and a 21-character one pass as two of 20
    if set(map(len, cells)) != {20} or not text.isascii():
        return None
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(cells), 20)
    digits = chars[:, _DIGITS] - np.uint8(ord("0"))  # a non-digit wraps past 9
    # numpy checks each field's range and the day against its month, but
    # reads year 0000, which parse_timestamp rejects
    if not ((digits <= 9).all() and (chars[:, _SEPARATOR_AT] == _SEPARATORS).all()
            and digits[:, :4].any(axis=1).all()):
        return None
    try:  # each row's first 19 bytes, the stamp without its Z
        return np.array(chars[:, :19]).view("S19")[:, 0].astype("datetime64[s]").astype(np.int64)
    except ValueError:
        return None


# The loaders below read a file a block of rows at a time and check each
# block a column at a time. Each fault found is a (row index, message) pair;
# the loader raises the one of the earliest row, a tie going to the check
# listed first, which is the check a row-by-row reader would have failed
# first.


def _read_blocks(path: Path, header: Sequence[str]
                 ) -> Iterator[tuple[list[int], list[Sequence[str]], list[tuple[int, str]]]]:
    """(line numbers, cell columns, faults) for each READ_BLOCK rows of
    `path`. A row whose field count is wrong ends the last block as its
    fault, with its line last in the list."""
    width = len(header)
    lines: list[int] = []
    rows: list[list[str]] = []
    for lineno, row in read_rows(path, header):
        lines.append(lineno)
        if len(row) != width:
            fault = (len(rows), f"expected {width} fields, got {len(row)}")
            yield lines, _columns(rows, width), [fault]
            return
        rows.append(row)
        if len(rows) == READ_BLOCK:
            yield lines, _columns(rows, width), []
            lines, rows = [], []
    if rows:
        yield lines, _columns(rows, width), []


def _columns(rows: list[list[str]], width: int) -> list[Sequence[str]]:
    return list(zip(*rows)) if rows else [()] * width


def _parse_floats(cells: Sequence[str]) -> tuple[np.ndarray, ValueError | None]:
    """The cells as float64, each parsed as float() parses it, up to the
    first cell float() rejects, and its error."""
    try:
        return np.array(cells, dtype=np.float64), None
    except ValueError:
        for k, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError as exc:
                return np.array(cells[:k], dtype=np.float64), exc
        raise


def _raise_first(path: Path, lines: Sequence[int], faults: list[tuple[int, str]]) -> None:
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        raise IngestError(f"{path}:{lines[row]}: {message}")


def _joined(blocks: list[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=dtype)


def load_prices(path: str | Path) -> PriceTable:
    """Load and validate an hourly price CSV.

    Timestamps are truncated to the hour and must be strictly increasing;
    closes must be finite and positive. Errors report the offending line
    number.
    """
    path = Path(path)
    hour_blocks: list[np.ndarray] = []
    close_blocks: list[np.ndarray] = []
    last = np.array([np.iinfo(np.int64).min])  # the previous block's last hour
    for lines, (stamp_cells, close_cells), faults in _read_blocks(path, PRICE_HEADER):
        seconds, exc = decode_timestamps(stamp_cells)
        if exc is not None:
            cell = stamp_cells[len(seconds)]
            faults.append((len(seconds), f"bad timestamp {cell!r}: {exc}"))
        closes, exc = _parse_floats(close_cells)
        if exc is not None:
            faults.append((len(closes), f"bad close {close_cells[len(closes)]!r}"))
        # the row checks below run on the rows before the first unreadable one
        n = min([row for row, _ in faults], default=len(close_cells))
        hours = seconds[:n] // 3600
        closes = closes[:n]
        before = np.r_[last, hours][:n]  # each row's previous hour
        for bad, message in (
            (~np.isfinite(closes), "non-finite price {close}"),
            (closes <= 0, "non-positive price {close}"),
            (hours == before, "duplicate timestamp {stamp}"),
            (hours < before, "non-monotonic timestamp {stamp}"),
        ):
            if bad.any():
                row = int(np.argmax(bad))
                faults.append((row, message.format(close=close_cells[row],
                                                   stamp=stamp_cells[row])))
        _raise_first(path, lines, faults)
        hour_blocks.append(hours)
        close_blocks.append(closes)
        last = hours[-1:]
    prices = PriceTable(_joined(hour_blocks, np.int64), _joined(close_blocks, np.float64))
    logger.info("loaded %d price rows from %s", len(prices), path)
    return prices


def load_headlines(path: str | Path) -> HeadlineTable:
    """Load a headline CSV; an empty score cell means "score via the lexicon"."""
    path = Path(path)
    hour_blocks: list[np.ndarray] = []
    score_blocks: list[np.ndarray] = []
    texts: list[str] = []
    for lines, (stamp_cells, headlines, score_cells), faults in _read_blocks(path, NEWS_HEADER):
        seconds, exc = decode_timestamps(stamp_cells)
        if exc is not None:
            cell = stamp_cells[len(seconds)]
            faults.append((len(seconds), f"bad timestamp {cell!r}: {exc}"))
        scored = np.flatnonzero([bool(cell.strip()) for cell in score_cells])
        values, exc = _parse_floats([score_cells[i] for i in scored.tolist()])
        if exc is not None:
            row = int(scored[len(values)])
            faults.append((row, f"bad score {score_cells[row]!r}"))
        bad = ~((values >= -1.0) & (values <= 1.0))
        if bad.any():
            k = int(np.argmax(bad))
            faults.append((int(scored[k]), f"score {float(values[k])} outside [-1, 1]"))
        _raise_first(path, lines, faults)
        scores = np.full(len(seconds), np.nan)
        scores[scored] = values
        hour_blocks.append(seconds // 3600)
        score_blocks.append(scores)
        texts += headlines
    table = HeadlineTable(_joined(hour_blocks, np.int64), texts,
                          _joined(score_blocks, np.float64))
    logger.info("loaded %d headline rows from %s", len(table), path)
    return table


@dataclass
class AlignedSeries:
    """Hourly-gridded channels for one asset.

    ``sentiment`` carries the grouped per-hour value with ``has_news``
    flagging which slots had at least one headline. ``diffs`` and
    ``hours`` are derived from the given channels: ``diffs[t] =
    prices[t+1] - prices[t]`` (length ``T - 1``) and ``hours`` is each
    timestamp's hour of day divided by 24.
    """

    asset: str
    timestamps: np.ndarray  # datetime64[s], length T
    prices: np.ndarray      # float64, length T
    sentiment: np.ndarray   # float64 in [-1, 1], length T
    has_news: np.ndarray    # bool, length T
    diffs: np.ndarray = field(init=False)  # float64, length T - 1
    hours: np.ndarray = field(init=False)  # float64 in [0, 1), length T

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.prices = np.asarray(self.prices, dtype=np.float64)
        self.sentiment = np.asarray(self.sentiment, dtype=np.float64)
        self.has_news = np.asarray(self.has_news, dtype=bool)
        n = len(self.timestamps)
        if n == 0:
            raise ValueError("empty series")
        for name in ("prices", "sentiment", "has_news"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name} length mismatch")
        # an increasing grid, as every loader gives, needs no sort; np.unique
        # would also import numpy.ma, which each forked pool worker carries
        stamps = self.timestamps
        if not (stamps[1:] > stamps[:-1]).all() and len(np.unique(stamps)) != n:
            raise ValueError("duplicate timestamps in grid")
        self.diffs = np.diff(self.prices)
        self.hours = hour_fraction(self.timestamps)

    def __len__(self) -> int:
        return len(self.timestamps)

    def slice(self, start: int, stop: int) -> "AlignedSeries":
        """Sub-series over grid indices [start, stop); its diffs are derived
        within the slice, so the first in-slice diff spans its own rows only."""
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad slice [{start}, {stop}) for length {len(self)}")
        return AlignedSeries(
            asset=self.asset,
            timestamps=self.timestamps[start:stop],
            prices=self.prices[start:stop],
            sentiment=self.sentiment[start:stop],
            has_news=self.has_news[start:stop],
        )

    def trading_days(self) -> int:
        """Distinct calendar dates covered by the grid (the AR day count)."""
        return len(set(self.timestamps.astype("datetime64[D]").tolist()))


def hour_fraction(timestamps: np.ndarray) -> np.ndarray:
    """Hour of day divided by 24 for an array of datetime64 values."""
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    hours = (ts.astype("datetime64[h]") - ts.astype("datetime64[D]")).astype(np.int64)
    return hours.astype(np.float64) / 24.0


def fill_hours(values: np.ndarray, observed: np.ndarray,
               policy: str = "neutral-zero") -> np.ndarray:
    """`values` where `observed`, and elsewhere the policy's value.

    neutral-zero writes 0.0; forward-fill repeats the last observed value
    (0.0 before any news has been seen).
    """
    values = np.where(observed, values, 0.0)
    if _choice(policy, "fill", FILL_POLICIES, "fill policy") == "forward-fill":
        last = np.maximum.accumulate(np.where(observed, np.arange(len(values)), -1))
        values = np.where(last >= 0, values[np.maximum(last, 0)], 0.0)
    return values


def align(
    prices: PriceTable,
    grouped: tuple[np.ndarray, np.ndarray] | None,
    asset: str = "",
    fill: str = "neutral-zero",
) -> AlignedSeries:
    """Place grouped per-hour sentiment onto the price grid.

    ``prices`` is a PriceTable as load_prices returns it, its hours strictly
    increasing. ``grouped`` holds two equal-length columns, epoch hours and
    their values, one value per hour, as group_by_hour returns them; None
    means no news. Values whose hour is not on the price grid are dropped
    with a logged count. Slots without news get the fill policy's value and
    ``has_news = False``.
    """
    if not len(prices):
        raise ValueError("empty price series")
    grid = prices.hours
    news, values = grouped if grouped is not None else (grid[:0], prices.closes[:0])
    at = np.minimum(np.searchsorted(grid, news), len(grid) - 1)
    hit = grid[at] == news
    if not hit.all():
        logger.warning("%s: dropped %d grouped sentiment values with no price hour",
                       asset or "series", np.count_nonzero(~hit))
    has_news = np.zeros(len(prices), dtype=bool)
    has_news[at[hit]] = True
    observed = np.zeros(len(prices))
    observed[at[hit]] = values[hit]
    return AlignedSeries(
        asset=asset,
        timestamps=(grid * 3600).astype("datetime64[s]"),
        prices=prices.closes,
        sentiment=fill_hours(observed, has_news, fill),
        has_news=has_news,
    )


def coverage(series: AlignedSeries) -> float:
    """Fraction of grid hours with at least one headline."""
    return float(np.count_nonzero(series.has_news)) / len(series)


def save_aligned(series: AlignedSeries, path: str | Path) -> None:
    """Write the aligned cache CSV (column layout in CACHE_HEADER), atomically.

    Floats are written with repr, so they round-trip bit-exactly. No cell
    needs CSV quoting, so rows are joined directly, a block of rows at a
    time, with the CRLF line ends of the csv module.
    """
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CACHE_HEADER) + "\r\n")
        for lo in range(0, len(series), CACHE_BLOCK):
            block = slice(lo, lo + CACHE_BLOCK)
            stamps = np.datetime_as_string(series.timestamps[block], unit="s", timezone="UTC")
            prices, sentiment = (list(map(repr, column[block].astype(np.float64).tolist()))
                                 for column in (series.prices, series.sentiment))
            flags = series.has_news[block].astype(np.uint8).tolist()
            fh.write("".join(map("{},{},{},{}\r\n".format, stamps.tolist(), prices,
                                 sentiment, flags)))


def load_aligned(path: str | Path, asset: str) -> AlignedSeries:
    """Read an aligned cache CSV back as `asset`'s series.

    Every row is checked as the cache writes it: timestamps increase,
    closes are finite and positive, sentiment is finite and has_news is 0
    or 1. The first row with a cell that does not parse is an IngestError
    naming its line; failing that, so is the first row that fails a check.
    """
    path = Path(path)
    lines: list[int] = []
    blocks = []
    for block_lines, columns, faults in _read_blocks(path, CACHE_HEADER):
        stamp_cells, close_cells, sent_cells, flag_cells = columns
        seconds, exc = decode_timestamps(stamp_cells)
        if exc is not None:
            faults.append((len(seconds), f"bad row: {exc}"))
        parsed = []
        for cells in (close_cells, sent_cells):
            values, exc = _parse_floats(cells)
            if exc is not None:
                faults.append((len(values), f"bad row: {exc}"))
            parsed.append(values)
        flags = np.array([cell.strip() for cell in flag_cells], dtype=str)
        has_news = flags == "1"
        bad = ~has_news & (flags != "0")
        if bad.any():
            row = int(np.argmax(bad))
            faults.append((row, f"has_news {flag_cells[row]!r} is not 0 or 1"))
        # a cell that does not parse comes before any check across rows
        _raise_first(path, block_lines, faults)
        lines += block_lines
        blocks.append((seconds, *parsed, has_news))
    if not lines:
        raise IngestError(f"{path}: cache holds no rows")
    seconds, prices, sent, has_news = map(np.concatenate, zip(*blocks))
    timestamps = seconds.astype("datetime64[s]")
    problems = (
        (np.r_[False, timestamps[1:] <= timestamps[:-1]],
         "timestamp does not follow the previous row's"),
        (~(np.isfinite(prices) & (prices > 0)), "close is not a positive price"),
        (~np.isfinite(sent), "non-finite sentiment"),
    )
    _raise_first(path, lines, [(int(np.argmax(bad)), message)
                               for bad, message in problems if bad.any()])
    return AlignedSeries(
        asset=asset,
        timestamps=timestamps,
        prices=prices,
        sentiment=sent,
        has_news=has_news,
    )
