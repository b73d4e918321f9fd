"""The aligned cache that `sentarl ingest` writes, pinned to its sha256.

The price/news pair mixes every timestamp form the loaders accept (`Z`,
`+00:00`, other offsets, space-separated, naive, fractional seconds),
mid-hour stamps, gaps in the price grid, several headlines in one hour,
headlines off the grid, and scored and unscored rows. The digests were
first taken from the row-at-a-time loaders, on a cache that also held the
derived `diff` and `tau` columns; each digest now pinned is the sha256 of
that cache with those two fields (the third and fourth) removed from every
line. Any change to parsing, grouping, alignment or the cache writer that
moves a byte fails here.
"""

import hashlib
import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import write_news_csv, write_price_csv
from sentarl import data
from sentarl.cli import main

START = datetime(2021, 3, 1, 20, tzinfo=timezone.utc)
WORDS = ["profits soar", "shares slump on weak outlook", "company update",
         "record rally lifts growth", "lawsuit fears and losses", "quiet session"]


def stamp(ts: datetime, form: int) -> str:
    """`ts` (UTC) in one of seven accepted spellings."""
    if form == 0:
        return ts.strftime("%Y-%m-%dT%H:%M:%SZ")
    if form == 1:
        return ts.strftime("%Y-%m-%dT%H:%M:%S+00:00")
    if form == 2:
        return (ts + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S+02:00")
    if form == 3:
        return ts.strftime("%Y-%m-%d %H:%M:%S")
    if form == 4:
        return ts.strftime("%Y-%m-%dT%H:%M:%S")
    if form == 5:
        return ts.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return (ts - timedelta(hours=5)).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "-05:00"


def write_pair(tmp_path, seed=5):
    rng = np.random.default_rng(seed)
    hours = [h for h in range(96) if h < 2 or rng.random() > 0.12]  # gaps in the grid
    close = 50.0 + np.cumsum(rng.normal(0.0, 0.7, len(hours)))
    prices = []
    for i, (h, c) in enumerate(zip(hours, close)):
        when = START + timedelta(hours=h, microseconds=int(rng.integers(0, 3_600_000_000)))
        prices.append((stamp(when, i % 7), repr(float(c))))
    write_price_csv(tmp_path / "prices.csv", prices)

    news = []
    for i in range(150):
        # off-grid hours before, between and after the price rows
        when = START + timedelta(microseconds=int(rng.integers(-5, 101) * 3_600_000_000
                                                  + rng.integers(0, 3_600_000_000)))
        for _ in range(int(rng.choice([1, 1, 2, 4]))):  # several in one hour
            scored = rng.random() < 0.5
            score = repr(float(rng.uniform(-1.0, 1.0))) if scored else ""
            news.append((stamp(when, int(rng.integers(0, 7))),
                         WORDS[int(rng.integers(0, len(WORDS)))], score))
            when += timedelta(seconds=int(rng.integers(0, 60)))
    write_news_csv(tmp_path / "news.csv", news)


CACHE_SHA256 = {
    ("min", "neutral-zero"):
        "5026df0f25e2cede7a738376b663882d160f3af843d8939c09a524bcf4d498f6",
    ("min", "forward-fill"):
        "b0df2add7089e5b6b9a27f8cd8ecedd3af5f5c9e6d5e6ab136947dd10bcda0d7",
    ("mean", "neutral-zero"):
        "8b27d45e62ea6b2eecfb767e17d052e1d756139cb90120bc671140d1e0375fd8",
    ("mean", "forward-fill"):
        "97cc64f5a996f7c4757e30805bd76aea09462f66c07b22864ccefda6a0eb709a",
    ("max", "neutral-zero"):
        "c3cf7f31f2d7c472e836717a25195195ea5ed1ffca45c17c84dc63d93391a782",
    ("max", "forward-fill"):
        "d27709bf8215e4e5c3831cb3617de99cc7da96a6341eb30ca4dd9d4757567493",
}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("grouping,fill", sorted(CACHE_SHA256))
def test_ingest_cache_bytes_are_pinned(tmp_path, monkeypatch, grouping, fill, block):
    if block is not None:  # many blocks, as a long file reads and writes
        monkeypatch.setattr(data, "READ_BLOCK", block)
        monkeypatch.setattr(data, "CACHE_BLOCK", block)
    write_pair(tmp_path)
    config = {
        "assets": {"PIN": {"prices": "prices.csv", "news": "news.csv"}},
        "grouping": grouping,
        "fill": fill,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--quiet", "ingest", "--config", str(path)]) == 0
    cache = tmp_path / "out" / "caches" / "PIN.aligned.csv"
    digest = hashlib.sha256(cache.read_bytes()).hexdigest()
    assert digest == CACHE_SHA256[grouping, fill]
