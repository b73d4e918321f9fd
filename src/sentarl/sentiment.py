"""Per-hour sentiment values from headline scores, plus the lagged
correlation-pulse diagnostic.

The heavy sentiment extractor is deliberately out of this package's scope:
its scores go in the news file's score column, and they take precedence
over the configured lexicon, which scores only the rows left empty. The
bundled lexicon is a small baseline stand-in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import GROUPINGS, _choice
from .errors import IngestError
from .files import read_rows, write_csv

if TYPE_CHECKING:
    from .data import AlignedSeries, HeadlineTable

_WORD_RE = re.compile(r"[a-z']+")
#: The correlation pulse's default shifts, -10 through +3.
PULSE_SHIFTS = range(-10, 4)
#: The fewest points a pulse shift's overlap may keep.
MIN_PULSE_OVERLAP = 3


def lexicon_score(headline: str, lexicon: dict[str, float]) -> float:
    """Mean weight of lexicon words found in the headline, clamped to
    [-1, 1]; 0.0 when nothing matches."""
    if not lexicon:
        raise ValueError("empty lexicon")
    hits = [lexicon[w] for w in _WORD_RE.findall(headline.lower()) if w in lexicon]
    if not hits:
        return 0.0
    return float(min(1.0, max(-1.0, sum(hits) / len(hits))))


def load_lexicon(path: str | Path) -> dict[str, float]:
    """Read a ``word,weight`` CSV with weights in [-1, 1], each word one
    that lexicon_score can find in a headline."""
    lexicon: dict[str, float] = {}
    for lineno, row in read_rows(path, ["word", "weight"]):
        if len(row) != 2:
            raise IngestError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            weight = float(row[1])
        except ValueError:
            raise IngestError(f"{path}:{lineno}: bad weight {row[1]!r}") from None
        if not -1.0 <= weight <= 1.0:
            raise IngestError(f"{path}:{lineno}: weight {weight} outside [-1, 1]")
        word = row[0].strip().lower()
        if not _WORD_RE.fullmatch(word):  # the words lexicon_score looks up
            raise IngestError(f"{path}:{lineno}: word {row[0]!r} is not a headline word "
                              f"({_WORD_RE.pattern}), so it never matches")
        lexicon[word] = weight
    if not lexicon:
        raise IngestError(f"{path}: lexicon holds no words")
    return lexicon


def bundled_lexicon() -> dict[str, float]:
    """The small financial polarity list shipped with the package."""
    with resources.as_file(resources.files("sentarl").joinpath("data/lexicon.csv")) as p:
        return load_lexicon(p)


#: Each grouping method's aggregate of one hour's scores, in Python float
#: arithmetic (np.minimum would pick -0.0 over 0.0 where min keeps the first).
AGGREGATES = {
    "min": min,
    "max": max,
    "mean": lambda values: sum(values) / len(values),
}


def score_headlines(
    headlines: "HeadlineTable",
    lexicon: dict[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Each headline's (epoch hour, score) as two columns; precomputed
    scores win, and lexicon_score scores only the unscored rows."""
    scores = headlines.scores.copy()
    todo = np.flatnonzero(np.isnan(scores))
    if todo.size:
        scores[todo] = [lexicon_score(headlines.texts[i], lexicon) for i in todo.tolist()]
    return headlines.hours, scores


def group_by_hour(
    scored: tuple[np.ndarray, np.ndarray],
    method: str = "min",
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse (epoch hour, score) columns to one value per hour: each
    hour's scores are aggregated in input order, and the hours come back
    in time order."""
    aggregate = AGGREGATES[_choice(method, "grouping", GROUPINGS, "grouping method")]
    hours, values = scored
    order = np.argsort(hours, kind="stable")
    hours = hours[order]
    values = np.asarray(values, dtype=np.float64)[order].tolist()
    starts = np.flatnonzero(np.diff(hours, prepend=hours[:1] - 1))  # each hour's first row
    bounds = starts.tolist() + [len(values)]
    return hours[starts], np.array([aggregate(values[lo:hi])
                                    for lo, hi in zip(bounds, bounds[1:])], dtype=np.float64)


@dataclass
class CorrelationPulse:
    """Pearson correlation of sentiment against shifted price differences.

    ``correlations[i]`` pairs with ``shifts[i]``; None marks an undefined
    value (zero variance on the overlap).
    """

    shifts: list[int]
    correlations: list[float | None]


def pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Population-formula Pearson r, or None when either side is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    # einsum, not np.dot: BLAS may split a long dot product across threads,
    # which would make the last bits depend on the thread count
    denom = math.sqrt(float(np.einsum("i,i->", xc, xc)) * float(np.einsum("i,i->", yc, yc)))
    if denom == 0.0:
        return None
    return float(np.einsum("i,i->", xc, yc) / denom)


def correlation_pulse(
    sentiment: np.ndarray,
    diffs: np.ndarray,
    shifts: Sequence[int] = PULSE_SHIFTS,
) -> CorrelationPulse:
    """Correlate sentiment[t] against diffs[t+k] for each shift k.

    Both inputs must be indexed by the same clock; shift 0 pairs equal
    indices, and negative shifts compare sentiment with earlier price
    differences. Each overlap must keep at least MIN_PULSE_OVERLAP points.
    """
    e = np.asarray(sentiment, dtype=np.float64)
    z = np.asarray(diffs, dtype=np.float64)
    correlations: list[float | None] = []
    shift_list = list(shifts)
    for k in shift_list:
        lo = max(0, -k)
        hi = min(len(e) - 1, len(z) - 1 - k)
        if hi - lo + 1 < MIN_PULSE_OVERLAP:
            raise ValueError(f"overlap for shift {k} has fewer than "
                             f"{MIN_PULSE_OVERLAP} points")
        correlations.append(pearson(e[lo:hi + 1], z[lo + k: hi + k + 1]))
    return CorrelationPulse(shift_list, correlations)


def series_pulse(series: "AlignedSeries", shifts: Sequence[int] = PULSE_SHIFTS) -> CorrelationPulse:
    """Pulse for one aligned series.

    The grid's first row has no price difference, so e is taken from index 1
    onward and paired with the diff into the same grid row.
    """
    return correlation_pulse(series.sentiment[1:], series.diffs, shifts)


def max_pulse_shift(series: "AlignedSeries") -> int:
    """The largest |shift| series_pulse takes: shift k pairs T - 1 - |k|
    points, and an overlap needs MIN_PULSE_OVERLAP."""
    return len(series) - 1 - MIN_PULSE_OVERLAP


def write_pulse_csv(pulse: CorrelationPulse, path: str | Path) -> None:
    """Emit ``shift,correlation`` rows atomically; undefined values become
    empty cells."""
    write_csv(path, ["shift", "correlation"],
              ([shift, "" if corr is None else repr(corr)]
               for shift, corr in zip(pulse.shifts, pulse.correlations)))
