"""Per-hour sentiment values from headline scores, plus the lagged
correlation-pulse diagnostic.

The heavy sentiment extractor is deliberately out of this package's scope:
any object with a ``score(headline) -> float`` method plugs in, and
precomputed scores carried in the news file take precedence over the
configured scorer. The bundled lexicon is a small baseline stand-in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

import numpy as np

from .errors import Choice, IngestError
from .files import read_rows, write_csv

if TYPE_CHECKING:
    from .data import AlignedSeries, HeadlineRecord

_WORD_RE = re.compile(r"[a-z']+")
#: The correlation pulse's default shifts, -10 through +3.
PULSE_SHIFTS = range(-10, 4)


class SentimentScorer(Protocol):
    """Anything that maps a headline to a score in [-1, 1]."""

    def score(self, headline: str) -> float: ...


class Grouping(Choice, noun="grouping method"):
    """How the scores of all headlines within one hour collapse to e_t."""

    MIN = "min"
    MEAN = "mean"
    MAX = "max"


class FillPolicy(Choice, noun="fill policy"):
    """Value given to hours with no news."""

    NEUTRAL_ZERO = "neutral-zero"
    FORWARD_FILL = "forward-fill"


def lexicon_score(headline: str, lexicon: dict[str, float]) -> float:
    """Mean weight of lexicon words found in the headline, clamped to
    [-1, 1]; 0.0 when nothing matches."""
    if not lexicon:
        raise ValueError("empty lexicon")
    hits = [lexicon[w] for w in _WORD_RE.findall(headline.lower()) if w in lexicon]
    if not hits:
        return 0.0
    return float(min(1.0, max(-1.0, sum(hits) / len(hits))))


@dataclass(frozen=True)
class LexiconScorer:
    """Deterministic word-polarity scorer backed by a word -> weight map."""

    lexicon: dict[str, float]

    def score(self, headline: str) -> float:
        return lexicon_score(headline, self.lexicon)


def load_lexicon(path: str | Path) -> dict[str, float]:
    """Read a ``word,weight`` CSV with weights in [-1, 1]."""
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
        lexicon[row[0].strip().lower()] = weight
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
    Grouping.MIN: min,
    Grouping.MAX: max,
    Grouping.MEAN: lambda values: sum(values) / len(values),
}


def group_hourly(scores: Iterable[float], method: Grouping | str = Grouping.MIN) -> float:
    """Collapse one hour's scores with the chosen aggregate."""
    values = [float(s) for s in scores]
    if not values:
        raise ValueError("empty score set; apply the fill policy instead")
    return AGGREGATES[Grouping(method)](values)


def score_headlines(
    records: Sequence["HeadlineRecord"],
    scorer: SentimentScorer | None = None,
) -> list[tuple[datetime, float]]:
    """Resolve each record to (timestamp, score); precomputed scores win."""
    out: list[tuple[datetime, float]] = []
    for rec in records:
        if rec.score is not None:
            value = rec.score
        elif scorer is not None:
            value = float(min(1.0, max(-1.0, scorer.score(rec.headline))))
        else:
            raise ValueError(
                f"headline at {rec.timestamp.isoformat()} has no precomputed score "
                "and no scorer is configured")
        out.append((rec.timestamp, value))
    return out


def group_by_hour(
    scored: Iterable[tuple[datetime, float]],
    method: Grouping | str = Grouping.MIN,
) -> list[tuple[datetime, float]]:
    """Bucket scored headlines into their containing UTC hour (naive
    timestamps are UTC) and aggregate each bucket's scores in input order;
    the buckets come back in time order, each stamped with its hour."""
    from .data import epoch_seconds, hour_stamp

    aggregate = AGGREGATES[Grouping(method)]
    pairs = list(scored)
    if not pairs:
        return []
    hours = epoch_seconds(when for when, _ in pairs) // 3600
    order = np.argsort(hours, kind="stable")
    hours = hours[order]
    values = np.array([value for _, value in pairs], dtype=np.float64)[order].tolist()
    del pairs
    starts = np.flatnonzero(np.r_[True, hours[1:] != hours[:-1]]).tolist()
    return [(hour_stamp(hour), aggregate(values[lo:hi]))
            for hour, lo, hi in zip(hours[starts].tolist(), starts, starts[1:] + [len(values)])]


def fill_hours(values: np.ndarray, observed: np.ndarray,
               policy: FillPolicy | str = FillPolicy.NEUTRAL_ZERO) -> np.ndarray:
    """`values` where `observed`, and elsewhere the policy's value.

    neutral-zero writes 0.0; forward-fill repeats the last observed value
    (0.0 before any news has been seen).
    """
    policy = FillPolicy(policy)
    values = np.where(observed, values, 0.0)
    if policy is FillPolicy.FORWARD_FILL:
        last = np.maximum.accumulate(np.where(observed, np.arange(len(values)), -1))
        values = np.where(last >= 0, values[np.maximum(last, 0)], 0.0)
    return values


def fill_gaps(
    grouped: Sequence[float | None],
    policy: FillPolicy | str = FillPolicy.NEUTRAL_ZERO,
) -> list[float]:
    """Replace missing (None) hours per the policy (see fill_hours);
    observed hours are untouched."""
    observed = np.array([value is not None for value in grouped], dtype=bool)
    values = np.array([0.0 if value is None else float(value) for value in grouped],
                      dtype=np.float64)
    return fill_hours(values, observed, policy).tolist()


@dataclass
class CorrelationPulse:
    """Pearson correlation of sentiment against shifted price differences.

    ``correlations[i]`` pairs with ``shifts[i]``; None marks an undefined
    value (zero variance on the overlap).
    """

    shifts: list[int]
    correlations: list[float | None]

    def peak(self) -> tuple[int, float]:
        """(shift, value) of the largest defined correlation."""
        defined = [(s, c) for s, c in zip(self.shifts, self.correlations) if c is not None]
        if not defined:
            raise ValueError("pulse has no defined correlations")
        return max(defined, key=lambda sc: sc[1])


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
    differences. Each overlap must keep at least 3 points.
    """
    e = np.asarray(sentiment, dtype=np.float64)
    z = np.asarray(diffs, dtype=np.float64)
    correlations: list[float | None] = []
    shift_list = list(shifts)
    for k in shift_list:
        lo = max(0, -k)
        hi = min(len(e) - 1, len(z) - 1 - k)
        if hi - lo + 1 < 3:
            raise ValueError(f"overlap for shift {k} has fewer than 3 points")
        correlations.append(pearson(e[lo:hi + 1], z[lo + k: hi + k + 1]))
    return CorrelationPulse(shift_list, correlations)


def series_pulse(series: "AlignedSeries", shifts: Sequence[int] = PULSE_SHIFTS) -> CorrelationPulse:
    """Pulse for one aligned series.

    The grid's first row has no price difference, so e is taken from index 1
    onward and paired with the diff into the same grid row.
    """
    return correlation_pulse(series.sentiment[1:], series.diffs, shifts)


def write_pulse_csv(pulse: CorrelationPulse, path: str | Path) -> None:
    """Emit ``shift,correlation`` rows atomically; undefined values become
    empty cells."""
    write_csv(path, ["shift", "correlation"],
              ([shift, "" if corr is None else repr(corr)]
               for shift, corr in zip(pulse.shifts, pulse.correlations)))
