"""Seeded synthetic inputs for the sentarl benchmark workloads.

Each workload gets a price CSV, a news CSV and a config JSON, all derived
from one integer seed with the standard library's generator, so the same
seed writes the same bytes on any machine. The program under test only
ever reads these files.

    python3 bench/gen.py --workload matrix-paper --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

START = datetime(2019, 1, 1, tzinfo=timezone.utc)
HOUR = timedelta(hours=1)
BASE_PRICE = 30_000.0

# Half of these words are in the bundled lexicon, so lexicon-scored
# headlines get a mix of matched and unmatched words.
WORDS = (
    "bitcoin btc market traders exchange price hour session crypto token "
    "investors analysts futures volume index fund network miners report "
    "gain rally surge jump climb rise record beat upgrade bullish strong "
    "growth profit boom recovery rebound loss fall drop plunge crash slump "
    "tumble decline downgrade bearish weak miss cut lawsuit fraud probe "
    "fear panic selloff warning debt halt"
).split()


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs and of the config the CLI receives."""

    name: str
    hours: int                # price rows
    headlines: int            # news rows (0: one headline on news_share of hours)
    news_share: float         # share of hours with a headline, matrix workloads
    scored_share: float       # share of headlines that carry a precomputed score
    windows: dict | None      # None: the workload does not run the matrix
    seeds: tuple[int, ...]


def span(windows: dict) -> int:
    return windows["train_len"] + windows["test_len"] + (
        windows["count"] - 1) * windows["stride"]


PAPER_WINDOWS = {"train_len": 3377, "test_len": 374, "stride": 374, "count": 2}
SHORT_WINDOWS = {"train_len": 240, "test_len": 72, "stride": 72, "count": 8}

WORKLOADS = {
    w.name: w for w in (
        Workload("matrix-paper", span(PAPER_WINDOWS), 0, 0.4, 1.0,
                 PAPER_WINDOWS, (0, 1)),
        Workload("matrix-short", span(SHORT_WINDOWS), 0, 0.4, 1.0,
                 SHORT_WINDOWS, (0, 1, 2, 3)),
        Workload("ingest-5y", 43_824, 43_824, 0.0, 0.5, None, ()),
    )
}

ASSET = "BTC"
W, L = 20, 5          # price/hour window and sentiment window of the env
TC_RATES = (0.0, 0.0025)
STRATEGIES = ("buy-and-hold", "no-sentiment", "sentarl")


def _stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def price_path(rng: random.Random, hours: int) -> list[str]:
    """Mean-reverting log random walk around BASE_PRICE, as 2-decimal text."""
    log_base = math.log(BASE_PRICE)
    x = log_base
    out = []
    for _ in range(hours):
        out.append(f"{math.exp(x):.2f}")
        x += 0.006 * rng.gauss(0.0, 1.0) - 0.001 * (x - log_base)
    return out


def _headline(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 10)))


def news_rows(rng: random.Random, spec: Workload) -> list[tuple[str, str, str]]:
    """(timestamp, headline, score) rows sorted by time.

    Matrix workloads put one headline in a random minute of news_share of
    the hours. The ingest workload drops `headlines` headlines on random
    minutes of the whole span, so some hours hold several and about
    1 - 1/e of the hours hold at least one.
    """
    if spec.headlines:
        minutes = sorted(rng.randrange(spec.hours * 60)
                         for _ in range(spec.headlines))
    else:
        minutes = [h * 60 + rng.randrange(60) for h in range(spec.hours)
                   if rng.random() < spec.news_share]
    rows = []
    for minute in minutes:
        ts = START + timedelta(minutes=minute)
        score = (f"{rng.uniform(-1.0, 1.0):.4f}"
                 if rng.random() < spec.scored_share else "")
        rows.append((_stamp(ts), _headline(rng), score))
    return rows


def config_for(spec: Workload, out_dir: Path) -> dict:
    """Config JSON; data paths are relative to the config file."""
    cfg: dict = {
        "assets": {ASSET: {"prices": "prices.csv", "news": "news.csv"}},
        "output_dir": str(out_dir),
        "workers": 1,
    }
    if spec.windows is not None:
        cfg.update({
            "env": {"w": W, "l": L},
            "tc_rates": list(TC_RATES),
            "agent": {"episodes": 1, "hidden_sizes": [64, 64],
                      "activation": "tanh", "optimizer": "sgd"},
            "seeds": list(spec.seeds),
            "windows": dict(spec.windows),
            "strategies": list(STRATEGIES),
        })
    return cfg


def write_config(spec: Workload, data_dir: Path, out_dir: Path,
                 name: str = "config.json") -> Path:
    path = data_dir / name
    path.write_text(json.dumps(config_for(spec, out_dir), indent=2) + "\n",
                    encoding="utf-8")
    return path


def generate(spec: Workload, seed: int, data_dir: Path) -> dict:
    """Write prices.csv, news.csv and config.json; return what checks need."""
    rng = random.Random(f"{spec.name}:{seed}")
    data_dir.mkdir(parents=True, exist_ok=True)
    closes = price_path(rng, spec.hours)
    stamps = [_stamp(START + i * HOUR) for i in range(spec.hours)]
    with (data_dir / "prices.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,close\n")
        fh.writelines(f"{s},{c}\n" for s, c in zip(stamps, closes))
    news = news_rows(rng, spec)
    with (data_dir / "news.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,headline,score\n")
        fh.writelines(f"{t},{h},{s}\n" for t, h, s in news)
    write_config(spec, data_dir, data_dir / "out")
    return {"closes": [float(c) for c in closes], "stamps": stamps,
            "headlines": len(news)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    info = generate(WORKLOADS[args.workload], args.seed, args.out)
    print(f"{args.workload} seed {args.seed}: {len(info['closes'])} prices, "
          f"{info['headlines']} headlines in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
