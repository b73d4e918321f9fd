"""Rolling-window experiment orchestration and strategy metrics.

A matrix run enumerates (asset, window, seed, tc, strategy) keys in one
canonical sorted order, computes each trial deterministically, and journals
finished rows to disk as they complete. The attempted seed x tc trials of
one (asset, window, strategy) train together in lockstep, each bit-identical
to its own single run. The canonical results CSV is rewritten from the
journal once nothing is pending, so an interrupted run resumed later
produces byte-identical output.

Buy-and-hold needs no seed and pays no transaction costs; it is computed
once per (asset, window) and its row is replicated across the seed and tc
axes so every key has a comparable benchmark row.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .a2c import A2cConfig, TrainedAgent, greedy_policy, train, write_training_log
from .data import AlignedSeries, coverage
from .env import EnvConfig, TradingEnv, baseline_policy, run_policy, write_equity_csv
from .errors import IngestError
from .nn import save_model
from .sentiment import series_pulse

log = logging.getLogger(__name__)

STRATEGIES = ("buy-and-hold", "no-sentiment", "sentarl")
RESULTS_HEADER = ["asset", "window", "seed", "tc", "strategy", "tr", "ar", "trade_count"]


# ---------------------------------------------------------------- windows


@dataclass(frozen=True)
class WindowSpec:
    """Rolling-split shape; defaults follow the reference study's splits."""

    train_len: int = 3377
    test_len: int = 374
    stride: int = 374
    count: int = 5

    def __post_init__(self) -> None:
        if min(self.train_len, self.test_len, self.stride, self.count) < 1:
            raise ValueError("window parameters must be positive")
        if self.stride < self.test_len:
            raise ValueError("stride must be >= test_len so test ranges stay disjoint")

    @property
    def span(self) -> int:
        return self.train_len + self.test_len + (self.count - 1) * self.stride


@dataclass(frozen=True)
class RollingWindows:
    """Index ranges (half-open) for each forward roll step."""

    windows: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    spec: WindowSpec

    def __len__(self) -> int:
        return len(self.windows)


def make_windows(length: int, train_len: int = 3377, test_len: int = 374,
                 stride: int = 374, count: int = 5) -> RollingWindows:
    """Forward-rolled train/test splits anchored so the last test ends at T.

    Each train range immediately precedes its test range; successive splits
    shift by `stride`. Data before the first train range is unused.
    """
    spec = WindowSpec(train_len, test_len, stride, count)
    if length < spec.span:
        raise ValueError(f"series of length {length} cannot fit {count} windows "
                         f"spanning {spec.span} points")
    anchor = length - spec.span
    pairs = []
    for j in range(count):
        train_start = anchor + j * stride
        train_end = train_start + train_len
        pairs.append(((train_start, train_end), (train_end, train_end + test_len)))
    return RollingWindows(tuple(pairs), spec)


# ---------------------------------------------------------------- metrics


def total_return(rewards: Sequence[float], psi: float) -> float:
    """Sum of per-step profits over the initial wealth."""
    if psi <= 0:
        raise ValueError("psi must be positive")
    return math.fsum(rewards) / psi


def annualized_return(tr: float, trading_days: int) -> float:
    """(1 + TR)^(365/D) - 1.

    The exponent compounds a D-day return to a year; the reference tables
    are reproduced by 365/D, not its reciprocal.
    """
    if trading_days <= 0:
        raise ValueError("trading_days must be positive")
    if tr <= -1:
        raise ValueError("tr must exceed -1 (total loss is not annualizable)")
    return (1.0 + tr) ** (365.0 / trading_days) - 1.0


def sharpe(trs: Sequence[float]) -> float | None:
    """Mean over sample standard deviation (n-1); None when variance is 0.

    Constant inputs are detected by value equality, not by the computed
    std: rounding in the mean can leave a constant series with a tiny
    nonzero std, which would otherwise explode the ratio.
    """
    values = np.asarray(list(trs), dtype=float)
    if len(values) < 2:
        raise ValueError("sharpe needs at least 2 values")
    std = float(np.std(values, ddof=1))
    if std == 0.0 or float(np.max(values)) == float(np.min(values)):
        return None
    return float(np.mean(values)) / std


# ---------------------------------------------------------------- trials


@dataclass(frozen=True, order=True)
class TrialKey:
    asset: str
    window: int
    seed: int
    tc: float
    strategy: str


@dataclass
class TrialResult:
    asset: str
    window: int
    seed: int
    tc: float
    strategy: str
    tr: float
    ar: float | None       # None when TR <= -1 (not annualizable)
    trade_count: int

    @property
    def key(self) -> TrialKey:
        return TrialKey(self.asset, self.window, self.seed, self.tc, self.strategy)


@dataclass
class TrialFailure:
    key: TrialKey
    error: str


@dataclass
class MatrixResult:
    results: list[TrialResult]
    failures: list[TrialFailure]
    pending: int = 0  # keys not attempted this call (hit the `limit` cap)


def result_row(r: TrialResult) -> list[str]:
    return [r.asset, str(r.window), str(r.seed), repr(float(r.tc)), r.strategy,
            repr(float(r.tr)), "" if r.ar is None else repr(float(r.ar)),
            str(r.trade_count)]


def parse_result_row(row: Sequence[str]) -> TrialResult:
    if len(row) != len(RESULTS_HEADER):
        raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(row)}")
    return TrialResult(asset=row[0], window=int(row[1]), seed=int(row[2]),
                       tc=float(row[3]), strategy=row[4], tr=float(row[5]),
                       ar=None if row[6] == "" else float(row[6]),
                       trade_count=int(row[7]))


def _safe_ar(tr: float, days: int) -> float | None:
    if tr <= -1:
        return None
    return annualized_return(tr, days)


def run_buy_and_hold(test_slice: AlignedSeries, env_config: EnvConfig) -> tuple[float, float | None, int]:
    """(TR, AR, trade_count) for holding Long across the test segment, no TC."""
    cfg = dataclasses.replace(env_config, tc_rate=0.0, use_sentiment=False)
    env = TradingEnv(test_slice, cfg)
    result = run_policy(env, baseline_policy("buy-and-hold"))
    days = test_slice.trading_days()
    return result.total_return, _safe_ar(result.total_return, days), result.trade_count


def _artifact_stem(key: TrialKey) -> str:
    return (f"{key.asset}_w{key.window}_s{key.seed}"
            f"_tc{repr(float(key.tc))}_{key.strategy}")


def _trial_configs(key: TrialKey, env_config: EnvConfig,
                   a2c_config: A2cConfig) -> tuple[EnvConfig, A2cConfig]:
    return (dataclasses.replace(env_config, tc_rate=key.tc,
                                use_sentiment=key.strategy == "sentarl"),
            dataclasses.replace(a2c_config, seed=key.seed))


def run_agent_trial(key: TrialKey, train_slice: AlignedSeries,
                    test_slice: AlignedSeries, env_config: EnvConfig,
                    a2c_config: A2cConfig,
                    artifacts_dir: Path | None = None,
                    agent: TrainedAgent | None = None) -> TrialResult:
    """Train on the train slice, evaluate the greedy policy on the test slice.

    An agent already trained for this key skips the training.
    """
    env_cfg, agent_cfg = _trial_configs(key, env_config, a2c_config)
    if agent is None:
        agent = train(train_slice, env_cfg, agent_cfg)
    test_env = TradingEnv(test_slice, env_cfg)
    episode = run_policy(test_env, greedy_policy(agent.policy_net))
    days = test_slice.trading_days()
    tr = episode.total_return
    if artifacts_dir is not None:
        stem = _artifact_stem(key)
        artifacts_dir.mkdir(parents=True, exist_ok=True)
        save_model(agent.policy_net, artifacts_dir / f"{stem}.policy.json")
        save_model(agent.value_net, artifacts_dir / f"{stem}.value.json")
        write_training_log(agent.log, artifacts_dir / f"{stem}.train.csv")
        write_equity_csv(episode.equity, artifacts_dir / f"{stem}.equity.csv")
    return TrialResult(key.asset, key.window, key.seed, key.tc, key.strategy,
                       tr, _safe_ar(tr, days), episode.trade_count)


def _group_worker(args) -> list[tuple[str, TrialKey, object]]:
    """Pool entry point: train one (asset, window, strategy) group's keys in
    lockstep, then test each key. Returns one ('ok', key, result) or
    ('fail', key, message) record per key.

    If the lockstep training raises, each key is retrained alone, so every
    key gets its own result or its own error.
    """
    keys, train_slice, test_slice, env_cfg, a2c_cfg, artifacts_dir = args
    try:
        env_cfgs, agent_cfgs = zip(*(_trial_configs(k, env_cfg, a2c_cfg) for k in keys))
        agents = train(train_slice, env_cfgs, agent_cfgs)
    except Exception as exc:
        log.warning("lockstep training of %d trial(s) failed (%s: %s); "
                    "training them one by one", len(keys), type(exc).__name__, exc)
        agents = [None] * len(keys)
    records = []
    for key, agent in zip(keys, agents):
        try:
            result = run_agent_trial(key, train_slice, test_slice, env_cfg, a2c_cfg,
                                     artifacts_dir, agent=agent)
            records.append(("ok", key, result))
        except Exception as exc:  # per-trial isolation: the matrix continues
            records.append(("fail", key, f"{type(exc).__name__}: {exc}"))
    return records


# ---------------------------------------------------------------- matrix


def enumerate_keys(assets: Iterable[str], window_count: int, seeds: Iterable[int],
                   tc_rates: Iterable[float], strategies: Iterable[str]) -> list[TrialKey]:
    """Canonical execution order: sorted on every axis."""
    keys = []
    for asset in sorted(assets):
        for window in range(window_count):
            for seed in sorted(set(int(s) for s in seeds)):
                for tc in sorted(set(float(t) for t in tc_rates)):
                    for strategy in sorted(strategies):
                        keys.append(TrialKey(asset, window, seed, tc, strategy))
    return keys


def _parse_results(path: Path, text: str) -> list[tuple[TrialResult, list[str]]]:
    """(result, raw row) per data row; a malformed row is an IngestError
    naming path:line."""
    reader = csv.reader(text.splitlines(keepends=True))
    header = next(reader, None)
    if header != RESULTS_HEADER:
        raise ValueError(f"{path}: unexpected header {header}")
    parsed = []
    for row in reader:
        try:
            parsed.append((parse_result_row(row), row))
        except ValueError as exc:
            raise IngestError(f"{path}:{reader.line_num}: malformed row "
                              f"{row!r}: {exc}") from exc
    return parsed


def _read_journal(path: Path) -> dict[TrialKey, list[str]]:
    """Journaled rows by key, after repairing a torn tail.

    A last line without its line terminator is what a kill during an append
    leaves behind. It is cut from the file with a warning, so its trial runs
    again and later appends start on a fresh line. An empty file holds no
    rows; it gets its header on the next append.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    if data and not data.endswith(b"\n"):
        keep = data.rfind(b"\n") + 1
        log.warning("%s:%d: dropping torn last line %r", path,
                    data.count(b"\n") + 1, data[keep:].decode("utf-8", "replace"))
        with path.open("r+b") as fh:
            fh.truncate(keep)
        data = data[:keep]
    if not data:
        return {}
    return {result.key: row for result, row in _parse_results(path, data.decode("utf-8"))}


def read_results_csv(path: str | Path) -> list[TrialResult]:
    path = Path(path)
    return [result for result, _ in _parse_results(path, path.read_text(encoding="utf-8"))]


def write_results_csv(rows: Iterable[Sequence[str]], path: Path) -> None:
    """Canonical results file: rows sorted by key, written verbatim."""
    ordered = sorted(rows, key=lambda r: (r[0], int(r[1]), int(r[2]),
                                          float(r[3]), r[4]))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        writer.writerows(ordered)


def run_matrix(series_by_asset: Mapping[str, AlignedSeries],
               window_spec: WindowSpec,
               seeds: Sequence[int],
               tc_rates: Sequence[float],
               strategies: Sequence[str],
               env_config: EnvConfig,
               a2c_config: A2cConfig,
               out_dir: str | Path | None = None,
               workers: int = 1,
               limit: int | None = None,
               artifacts: bool = False) -> MatrixResult:
    """Run one trial per (asset, window, seed, tc, strategy) key.

    With out_dir set, finished rows are appended to a journal immediately and
    already-journaled keys are skipped, so a killed run picks up where it
    left off; `limit` caps how many pending trials this call attempts (the
    hook used to exercise interrupt/resume). The canonical sorted
    results.csv is (re)written only when nothing remains pending.
    """
    if not series_by_asset or not seeds or not tc_rates or not strategies:
        raise ValueError("assets, seeds, tc_rates, and strategies must be non-empty")
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")

    windows_by_asset = {
        asset: make_windows(len(series), window_spec.train_len, window_spec.test_len,
                            window_spec.stride, window_spec.count)
        for asset, series in series_by_asset.items()
    }
    keys = enumerate_keys(series_by_asset, window_spec.count, seeds, tc_rates,
                          strategies)

    out_path = Path(out_dir) if out_dir is not None else None
    journal_path = out_path / "results.journal.csv" if out_path else None
    done: dict[TrialKey, list[str]] = {}
    if journal_path is not None:
        key_set = set(keys)
        done = {k: v for k, v in _read_journal(journal_path).items() if k in key_set}

    pending = [k for k in keys if k not in done]
    attempt = pending if limit is None else pending[:limit]
    skipped = len(pending) - len(attempt)

    journal_fh = None
    journal_writer = None
    if journal_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        fresh = not journal_path.exists() or journal_path.stat().st_size == 0
        journal_fh = journal_path.open("a", newline="", encoding="utf-8")
        journal_writer = csv.writer(journal_fh)
        if fresh:
            journal_writer.writerow(RESULTS_HEADER)
            journal_fh.flush()

    artifacts_dir = out_path / "artifacts" if (out_path and artifacts) else None
    failures: list[TrialFailure] = []
    bh_cache: dict[tuple[str, int], tuple[float, float | None, int]] = {}

    def record(result: TrialResult) -> None:
        row = result_row(result)
        done[result.key] = row
        if journal_writer is not None:
            journal_writer.writerow(row)
            journal_fh.flush()

    def bh_result(key: TrialKey) -> TrialResult:
        cache_key = (key.asset, key.window)
        if cache_key not in bh_cache:
            (_, test_range) = windows_by_asset[key.asset].windows[key.window]
            test_slice = series_by_asset[key.asset].slice(*test_range)
            bh_cache[cache_key] = run_buy_and_hold(test_slice, env_config)
        tr, ar, trades = bh_cache[cache_key]
        return TrialResult(key.asset, key.window, key.seed, key.tc,
                           key.strategy, tr, ar, trades)

    # attempted agent keys grouped by (asset, window, strategy), in key order
    groups: dict[tuple[str, int, str], list[TrialKey]] = {}
    for key in attempt:
        if key.strategy != "buy-and-hold":
            groups.setdefault((key.asset, key.window, key.strategy), []).append(key)

    def group_args(group: list[TrialKey]):
        first = group[0]
        train_range, test_range = windows_by_asset[first.asset].windows[first.window]
        series = series_by_asset[first.asset]
        return (group, series.slice(*train_range), series.slice(*test_range),
                env_config, a2c_config, artifacts_dir)

    def collect(records: list[tuple[str, TrialKey, object]]) -> None:
        for status, key, payload in records:
            if status == "ok":
                record(payload)
            else:
                failures.append(TrialFailure(key, payload))

    try:
        for key in attempt:
            if key.strategy == "buy-and-hold":
                try:
                    record(bh_result(key))
                except Exception as exc:
                    failures.append(TrialFailure(key, f"{type(exc).__name__}: {exc}"))
        if workers > 1 and len(groups) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_group_worker, group_args(group))
                           for group in groups.values()]
                # journal each group as it finishes, not behind a slower one
                for future in as_completed(futures):
                    collect(future.result())
        else:
            for group in groups.values():
                collect(_group_worker(group_args(group)))
    finally:
        if journal_fh is not None:
            journal_fh.close()

    failures.sort(key=lambda f: f.key)  # completion order varies between runs
    still_pending = skipped + len(failures)
    if out_path is not None and still_pending == 0 and len(done) == len(keys):
        write_results_csv(done.values(), out_path / "results.csv")
    if failures:
        log.warning("%d trial(s) failed; matrix continued", len(failures))

    results = [parse_result_row(done[k]) for k in keys if k in done]
    return MatrixResult(results=results, failures=failures, pending=skipped)


# ---------------------------------------------------------------- reports


@dataclass
class OverallRow:
    strategy: str
    tc: float | None          # None for buy-and-hold (pays no costs)
    mean_tr: float
    mean_ar: float | None
    sharpe: float | None


@dataclass
class AssetSharpeRow:
    asset: str
    tc: float
    sharpe_by_strategy: dict[str, float | None]
    best: str | None


@dataclass
class ScatterRow:
    asset: str
    coverage: float
    corr_shift0: float | None
    tr_diff: float | None     # mean sentarl TR minus mean no-sentiment TR


@dataclass
class ReportBundle:
    overall: list[OverallRow]
    by_asset: list[AssetSharpeRow]
    scatter: list[ScatterRow]


def _sharpe_or_none(trs: Sequence[float]) -> float | None:
    if len(trs) < 2:
        return None
    return sharpe(trs)


def _mean_or_none(values: Sequence[float]) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def _dedupe_bh(results: Sequence[TrialResult]) -> list[TrialResult]:
    """Collapse replicated benchmark rows back to one per (asset, window)."""
    seen: dict[tuple[str, int], TrialResult] = {}
    for r in results:
        seen.setdefault((r.asset, r.window), r)
    return list(seen.values())


def report(results: Sequence[TrialResult],
           series_by_asset: Mapping[str, AlignedSeries] | None = None,
           out_dir: str | Path | None = None,
           scatter_shift: int = 0,
           scatter_tc: float | None = None) -> ReportBundle:
    """Aggregate trial results into the three summary artifacts.

    Overall table: strategy x tc with mean TR, mean AR (average of per-trial
    ARs), and SR over trial TRs. Per-asset table: SR per strategy with the
    best defined SR marked. Scatter data: per asset, news coverage, pulse
    correlation at `scatter_shift`, and the sentiment-minus-ablation mean TR
    difference (optionally restricted to one tc).
    """
    if not results:
        raise ValueError("no results to report")

    bh = _dedupe_bh([r for r in results if r.strategy == "buy-and-hold"])
    agents = [r for r in results if r.strategy != "buy-and-hold"]

    overall: list[OverallRow] = []
    for strategy in sorted({r.strategy for r in agents}):
        for tc in sorted({r.tc for r in agents if r.strategy == strategy}):
            group = [r for r in agents if r.strategy == strategy and r.tc == tc]
            overall.append(OverallRow(
                strategy=strategy, tc=tc,
                mean_tr=float(np.mean([r.tr for r in group])),
                mean_ar=_mean_or_none([r.ar for r in group]),
                sharpe=_sharpe_or_none([r.tr for r in group])))
    if bh:
        overall.append(OverallRow(
            strategy="buy-and-hold", tc=None,
            mean_tr=float(np.mean([r.tr for r in bh])),
            mean_ar=_mean_or_none([r.ar for r in bh]),
            sharpe=_sharpe_or_none([r.tr for r in bh])))

    by_asset: list[AssetSharpeRow] = []
    strategies_present = sorted({r.strategy for r in results})
    assets = sorted({r.asset for r in results})
    tcs = sorted({r.tc for r in agents}) or [0.0]
    for asset in assets:
        for tc in tcs:
            srs: dict[str, float | None] = {}
            for strategy in strategies_present:
                if strategy == "buy-and-hold":
                    trs = [r.tr for r in bh if r.asset == asset]
                else:
                    trs = [r.tr for r in agents
                           if r.asset == asset and r.strategy == strategy
                           and r.tc == tc]
                srs[strategy] = _sharpe_or_none(trs)
            defined = [(s, v) for s, v in srs.items() if v is not None]
            best = max(defined, key=lambda sv: sv[1])[0] if defined else None
            by_asset.append(AssetSharpeRow(asset, tc, srs, best))

    scatter: list[ScatterRow] = []
    if series_by_asset:
        for asset in assets:
            series = series_by_asset.get(asset)
            if series is None:
                continue
            sent = [r.tr for r in agents if r.asset == asset
                    and r.strategy == "sentarl"
                    and (scatter_tc is None or r.tc == scatter_tc)]
            abl = [r.tr for r in agents if r.asset == asset
                   and r.strategy == "no-sentiment"
                   and (scatter_tc is None or r.tc == scatter_tc)]
            tr_diff = None
            if sent and abl:
                tr_diff = float(np.mean(sent)) - float(np.mean(abl))
            pulse = series_pulse(series, shifts=[scatter_shift])
            scatter.append(ScatterRow(asset, coverage(series),
                                      pulse.correlations[0], tr_diff))

    bundle = ReportBundle(overall, by_asset, scatter)
    if out_dir is not None:
        _write_report(bundle, Path(out_dir))
    return bundle


def _cell(value: float | None) -> str:
    """Undefined metrics serialize as an empty cell, never a number."""
    return "" if value is None else repr(float(value))


def _write_report(bundle: ReportBundle, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "overall.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "tc", "mean_tr", "mean_ar", "sharpe"])
        for row in bundle.overall:
            writer.writerow([row.strategy,
                             "-" if row.tc is None else repr(float(row.tc)),
                             repr(float(row.mean_tr)), _cell(row.mean_ar),
                             _cell(row.sharpe)])
    strategies = sorted({s for row in bundle.by_asset
                         for s in row.sharpe_by_strategy})
    with (out_dir / "sharpe_by_asset.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset", "tc", *[f"sr_{s}" for s in strategies], "best"])
        for row in bundle.by_asset:
            writer.writerow([row.asset, repr(float(row.tc)),
                             *[_cell(row.sharpe_by_strategy.get(s)) for s in strategies],
                             row.best or ""])
    with (out_dir / "scatter.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset", "coverage", "corr_shift0", "tr_diff"])
        for row in bundle.scatter:
            writer.writerow([row.asset, repr(float(row.coverage)),
                             _cell(row.corr_shift0), _cell(row.tr_diff)])
