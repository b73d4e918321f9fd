"""The aligned cache that `sentarl ingest` writes, pinned to its sha256.

The price/news pair mixes every timestamp form the loaders accept (`Z`,
`+00:00`, other offsets, space-separated, naive, fractional seconds),
mid-hour stamps, gaps in the price grid, several headlines in one hour,
headlines off the grid, and scored and unscored rows. The digests were
taken from the row-at-a-time loaders this module guards; any change to
parsing, grouping, alignment or the cache writer that moves a byte fails
here.
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
        "61d469ccf861abaac9c104fccdf13691d67745a268e2d20f6a32fe5f54e60eb3",
    ("min", "forward-fill"):
        "674bd785af6e2e2fb7fd2121a6064b941bf4bb6691e2e74ee7fb5dc3ff23f4fc",
    ("mean", "neutral-zero"):
        "f24097644c53ab38b5653b50c874efc0939246dd57f66c65889b03017580a854",
    ("mean", "forward-fill"):
        "590067b80072814a0bd0667d724ad7ee0223ca8aa38f83790e9f216cb724817e",
    ("max", "neutral-zero"):
        "50982ddb7b0dd387320cc0f56781d84e0f6b06dd2ef4bf836f468b9ed02791f3",
    ("max", "forward-fill"):
        "faeed65f3b5bb1a09431a8dde5e2d553a0aebad6efd789c52cc209a3870eafb5",
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
