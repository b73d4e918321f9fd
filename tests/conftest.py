"""Shared synthetic-series builders and the acceptance status reporter."""

import csv
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from sentarl.data import AlignedSeries

GRID_START = np.datetime64("2021-01-04T00:00:00")


def hourly_grid(n: int, start: np.datetime64 = GRID_START) -> np.ndarray:
    return (start + np.arange(n).astype("timedelta64[h]")).astype("datetime64[s]")


def build_series(prices: np.ndarray, sentiment: np.ndarray | None = None,
                 has_news: np.ndarray | None = None, asset: str = "TST",
                 start: np.datetime64 = GRID_START) -> AlignedSeries:
    n = len(prices)
    prices = np.asarray(prices, dtype=float)
    if sentiment is None:
        sentiment = np.zeros(n)
    ts = hourly_grid(n, start)
    hours = (ts.astype("datetime64[h]").astype(int) % 24) / 24.0
    return AlignedSeries(asset=asset, timestamps=ts, prices=prices,
                         diffs=np.diff(prices), hours=hours,
                         sentiment=np.asarray(sentiment, dtype=float),
                         has_news=has_news)


def random_walk_series(n: int, seed: int = 0, asset: str = "RND",
                       news_fraction: float = 0.4, base: float = 100.0,
                       vol: float = 0.5) -> AlignedSeries:
    rng = np.random.default_rng(seed)
    prices = np.maximum(base + np.cumsum(rng.normal(0.0, vol, n)), 1.0)
    sentiment = rng.uniform(-1.0, 1.0, n)
    has_news = rng.random(n) < news_fraction
    sentiment[~has_news] = 0.0
    return build_series(prices, sentiment, has_news, asset=asset)


def sinusoid_series(n: int, asset: str = "SIN", base: float = 100.0,
                    amplitude: float = 10.0, period: int = 24) -> AlignedSeries:
    t = np.arange(n)
    prices = base + amplitude * np.sin(2.0 * np.pi * t / period)
    return build_series(prices, asset=asset)


def write_price_csv(path: Path, rows: list[tuple[str, str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "close"])
        writer.writerows(rows)


def write_news_csv(path: Path, rows: list[tuple[str, str, str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "headline", "score"])
        writer.writerows(rows)


def hourly_stamps(n: int, start: str = "2021-01-04T00:00:00") -> list[str]:
    t0 = datetime.fromisoformat(start).replace(tzinfo=timezone.utc)
    return [(t0 + timedelta(hours=i)).strftime("%Y-%m-%dT%H:%M:%SZ")
            for i in range(n)]


def rel_err(actual, expected) -> float:
    """Largest |actual - expected| over the largest |expected|, taken array by
    array over paired sequences of arrays; the worst array counts."""
    worst = 0.0
    for a, e in zip(actual, expected):
        a, e = np.asarray(a, dtype=float), np.asarray(e, dtype=float)
        assert a.shape == e.shape
        scale = float(np.max(np.abs(e)))
        diff = float(np.max(np.abs(a - e)))
        worst = max(worst, diff / scale if scale else diff)
    return worst


def pytest_runtest_logreport(report):
    """One visible status line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}", flush=True)
