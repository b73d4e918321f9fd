"""Rolling-window experiment orchestration and strategy metrics.

A matrix run enumerates (asset, window, seed, tc, strategy) keys in one
canonical sorted order, computes each trial deterministically, and journals
finished rows to disk as they complete. Each strategy's attempted trials
train together in lockstep chunks of up to LOCKSTEP_CAP, across windows and
assets, each bit-identical to its own single run. The canonical results
CSV is rewritten from the journal once nothing is pending, so an
interrupted run resumed later produces byte-identical output.

Buy-and-hold needs no seed and pays no transaction costs; it is computed
once per (asset, window) and its row is replicated across the seed and tc
axes so every key has a comparable benchmark row.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .a2c import TrainedAgent, greedy_episodes, train, write_training_log
from .config import STRATEGIES, A2cConfig, EnvConfig, WindowSpec
from .data import AlignedSeries, coverage
from .env import TradingEnv, total_return, write_equity_csv
from .errors import IngestError
from .files import read_rows, write_csv
from .nn import Mlp, save_model
from .sentiment import series_pulse

log = logging.getLogger(__name__)

RESULTS_HEADER = ["asset", "window", "seed", "tc", "strategy", "tr", "ar", "trade_count"]
JOURNAL = "results.journal.csv"
#: The files a run writes under artifacts/ (one per suffix per trial) and report/.
ARTIFACT_SUFFIXES = (".policy.json", ".value.json", ".train.csv", ".equity.csv")
REPORT_FILES = ("overall.csv", "sharpe_by_asset.csv", "scatter.csv")


# ---------------------------------------------------------------- windows


def make_windows(length: int,
                 spec: WindowSpec) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """Forward-rolled train/test splits anchored so the last test ends at T,
    as one (train, test) pair of half-open index ranges per split.

    Each train range immediately precedes its test range; successive
    splits shift by `stride`. Data before the first train range is unused.
    """
    if length < spec.span:
        raise ValueError(f"series of length {length} cannot fit {spec.count} windows "
                         f"spanning {spec.span} points")
    first_end = length - spec.span + spec.train_len  # of the first train range
    train_ends = range(first_end, first_end + spec.count * spec.stride, spec.stride)
    return tuple(((end - spec.train_len, end), (end, end + spec.test_len))
                 for end in train_ends)


def window_slices(series: AlignedSeries,
                  spec: WindowSpec) -> list[tuple[AlignedSeries, AlignedSeries]]:
    """The (train, test) slices of each of the series' windows, in order."""
    return [(series.slice(*train), series.slice(*test))
            for train, test in make_windows(len(series), spec)]


# ---------------------------------------------------------------- metrics


def annualized_return(tr: float, trading_days: int) -> float | None:
    """(1 + TR)^(365/D) - 1; None when TR <= -1 (a total loss is not
    annualizable) or when the power leaves the float range.

    The exponent compounds a D-day return to a year; the reference tables
    are reproduced by 365/D, not its reciprocal.
    """
    if trading_days <= 0:
        raise ValueError("trading_days must be positive")
    if tr <= -1:
        return None
    try:
        return (1.0 + tr) ** (365.0 / trading_days) - 1.0
    except OverflowError:
        return None


def sharpe(trs: Sequence[float]) -> float | None:
    """Mean over sample standard deviation (n-1); None below 2 values or
    when the variance is 0.

    Constant inputs are detected by value equality, not by the computed
    std: rounding in the mean can leave a constant series with a tiny
    nonzero std, which would otherwise explode the ratio.
    """
    values = np.asarray(list(trs), dtype=float)
    if len(values) < 2:
        return None
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


@dataclass(frozen=True)
class TrialResult(TrialKey):
    tr: float
    ar: float | None       # None when TR <= -1 or the AR overflows
    trade_count: int

    @property
    def key(self) -> TrialKey:
        return TrialKey(self.asset, self.window, self.seed, self.tc, self.strategy)


@dataclass
class TrialFailure:
    key: TrialKey
    error: str             # "<exception type>: <message>"

    @classmethod
    def of(cls, key: TrialKey, exc: Exception) -> "TrialFailure":
        return cls(key, f"{type(exc).__name__}: {exc}")


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


def run_buy_and_hold(test_slice: AlignedSeries, env_config: EnvConfig) -> tuple[float, float | None, int]:
    """(TR, AR, trade_count) for holding Long across the test segment, no TC.

    Holding Long from t0 earns phi * z_{t+1} each step, so TR is the total
    return of those rewards over the env's psi, with one trade. The env, a
    stack of one, is built for its start index, psi and length check only.
    """
    env = TradingEnv([test_slice], env_config, [0.0], use_sentiment=False)
    tr = total_return(env_config.phi * test_slice.diffs[env.start_index:], float(env.psi[0]))
    return tr, annualized_return(tr, test_slice.trading_days()), 1


def train_and_test(keys: Sequence[TrialKey],
                   pairs: Sequence[tuple[AlignedSeries, AlignedSeries]],
                   env_config: EnvConfig, a2c_config: A2cConfig
                   ) -> tuple[list[TrainedAgent], TradingEnv]:
    """Train the keys' trials in lockstep, then run their greedy test
    episodes as one stack, and return the agents and the test env, which
    holds the episodes; `pairs` holds each key's (train, test) slices.
    The keys share a strategy, which sets the sentiment switch; each key's
    tc and seed are its trial's cost rate and seed.

    When a chunk of several keys raises, the stage that failed is logged
    before the error propagates, and `_chunk_worker` reruns the keys one
    at a time.
    """
    (strategy,) = {k.strategy for k in keys}
    tc_rates, sentiment = [k.tc for k in keys], strategy == "sentarl"
    stage, redo = "lockstep training", "training"
    try:
        train_env = TradingEnv([train_slice for train_slice, _ in pairs], env_config,
                               tc_rates, sentiment)
        agents = train(train_env, a2c_config, [k.seed for k in keys])
        stage, redo = "stacked test episodes", "testing"
        test_env = TradingEnv([test_slice for _, test_slice in pairs], env_config,
                              tc_rates, sentiment)
        greedy_episodes(test_env, Mlp.stack([a.policy_net for a in agents]))
        return agents, test_env
    except Exception as exc:
        if len(keys) > 1:
            log.warning("%s of %d trial(s) failed (%s: %s); %s them one by one",
                        stage, len(keys), type(exc).__name__, exc, redo)
        raise


def run_agent_trial(key: TrialKey, agent: TrainedAgent, test_env: TradingEnv,
                    trial: int, artifacts_dir: Path) -> TrialResult:
    """Write a trained key's ARTIFACT_SUFFIXES files into artifacts_dir and
    return its result row; its test episode is trial `trial` of test_env."""
    tr = total_return(test_env.rewards[trial].tolist(), float(test_env.psi[trial]))
    stem = f"{key.asset}_w{key.window}_s{key.seed}_tc{float(key.tc)!r}_{key.strategy}"
    policy, value, train_log, equity = (artifacts_dir / f"{stem}{suffix}"
                                        for suffix in ARTIFACT_SUFFIXES)
    save_model(agent.policy_net, policy)
    save_model(agent.value_net, value)
    write_training_log(agent.log, train_log)
    write_equity_csv(test_env, trial, equity)
    days = test_env.series[trial].trading_days()
    return TrialResult(*dataclasses.astuple(key), tr, annualized_return(tr, days),
                       int(test_env.trade_counts[trial]))


#: Most trials one lockstep task stacks. Training one 3,377-step episode
#: with 64-64 nets took 244 / 108 / 86 / 70 / 62 ms per trial at K = 1 / 4
#: / 8 / 16 / 32 (best of 5, 2-vCPU host). Past 8 the gain per trial
#: shrinks while a chunk's memory, its share of the pool and the
#: retraining after a fault keep growing with K.
LOCKSTEP_CAP = 8


def lockstep_chunks(keys: Iterable[TrialKey]) -> list[list[TrialKey]]:
    """Each strategy's agent keys, in key order, cut into chunks of at most
    LOCKSTEP_CAP. A chunk may span windows and assets: every train slice
    has train_len rows, so its trials share the env clock."""
    by_strategy: dict[str, list[TrialKey]] = {}
    for key in sorted(keys):
        if key.strategy != "buy-and-hold":
            by_strategy.setdefault(key.strategy, []).append(key)
    return [group[i:i + LOCKSTEP_CAP]
            for _, group in sorted(by_strategy.items())
            for i in range(0, len(group), LOCKSTEP_CAP)]


def _chunk_worker(keys: list[TrialKey],
                  slices: Mapping[tuple[str, int], tuple[AlignedSeries, AlignedSeries]],
                  env_cfg: EnvConfig, a2c_cfg: A2cConfig,
                  artifacts_dir: Path) -> list[TrialResult | TrialFailure]:
    """Pool entry point: train and test one chunk's keys, then write each
    key's files. Returns each key's result or failure, in key order.

    `slices` maps each (asset, window) of the chunk to its (train, test)
    slices. If the chunk's training or stacked test raises, each of its
    keys reruns as a chunk of one, so every key gets its own result or its
    own error.
    """
    pairs = [slices[k.asset, k.window] for k in keys]
    try:
        agents, test_env = train_and_test(keys, pairs, env_cfg, a2c_cfg)
    except Exception as exc:
        if len(keys) == 1:
            return [TrialFailure.of(keys[0], exc)]
        return [outcome for key in keys
                for outcome in _chunk_worker([key], slices, env_cfg, a2c_cfg, artifacts_dir)]
    outcomes: list[TrialResult | TrialFailure] = []
    for trial, (key, agent) in enumerate(zip(keys, agents)):
        try:
            outcomes.append(run_agent_trial(key, agent, test_env, trial, artifacts_dir))
        except Exception as exc:  # per-trial isolation: the matrix continues
            outcomes.append(TrialFailure.of(key, exc))
    return outcomes


# ---------------------------------------------------------------- matrix


def enumerate_keys(assets: Iterable[str], window_count: int, seeds: Iterable[int],
                   tc_rates: Iterable[float], strategies: Iterable[str]) -> list[TrialKey]:
    """Canonical execution order: sorted on every axis, each axis deduped."""
    axes = (sorted(set(assets)), range(window_count), sorted({int(s) for s in seeds}),
            sorted({float(t) for t in tc_rates}), sorted(set(strategies)))
    return [TrialKey(*values) for values in itertools.product(*axes)]


def read_results_csv(path: str | Path) -> list[TrialResult]:
    """The rows of a results file or journal, in file order; a wrong header
    or a malformed row is an IngestError naming path:line."""
    results = []
    for lineno, row in read_rows(path, RESULTS_HEADER):
        try:
            results.append(parse_result_row(row))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: malformed row {row!r}: {exc}") from exc
    return results


def _read_journal(path: Path) -> dict[TrialKey, TrialResult]:
    """Journaled results by key, after repairing a torn tail.

    A last line without its line terminator is what a kill during an append
    leaves behind. It is cut from the file with a warning, so its trial runs
    again and later appends start on a fresh line. An empty file holds no
    rows; it gets its header on the next append.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        log.warning("%s:%d: dropping torn last line %r", path,
                    data.count(b"\n") + 1, data[keep:].decode("utf-8", "replace"))
        os.truncate(path, keep)
    if keep == 0:
        return {}
    return {result.key: result for result in read_results_csv(path)}


def write_results_csv(rows: Iterable[Sequence[str]], path: Path) -> None:
    """Canonical results file: rows sorted by key, written verbatim and
    atomically."""
    write_csv(path, RESULTS_HEADER, sorted(rows, key=lambda row: parse_result_row(row).key))


def remove_outputs(out_dir: Path) -> None:
    """Delete the files an earlier run wrote into out_dir, and no other file."""
    artifacts = [p for s in ARTIFACT_SUFFIXES for p in (out_dir / "artifacts").glob(f"*{s}")]
    for path in [out_dir / JOURNAL, out_dir / "results.csv", *artifacts,
                 *(out_dir / "report" / name for name in REPORT_FILES)]:
        path.unlink(missing_ok=True)


def run_matrix(series_by_asset: Mapping[str, AlignedSeries],
               window_spec: WindowSpec,
               seeds: Sequence[int],
               tc_rates: Sequence[float],
               strategies: Sequence[str],
               env_config: EnvConfig,
               a2c_config: A2cConfig,
               out_dir: str | Path,
               workers: int = 1,
               limit: int | None = None) -> MatrixResult:
    """Run one trial per (asset, window, seed, tc, strategy) key in out_dir.

    Finished rows are appended to out_dir/results.journal.csv immediately
    and already-journaled keys are skipped, so a killed run picks up where
    it left off; `limit` caps how many pending trials this call attempts
    (the hook used to exercise interrupt/resume). Each agent trial writes
    its artifacts under out_dir/artifacts. The canonical sorted
    results.csv is (re)written only when nothing remains pending.
    """
    if not series_by_asset or not seeds or not tc_rates or not strategies:
        raise ValueError("assets, seeds, tc_rates, and strategies must be non-empty")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")

    slices = {(asset, window): pair for asset, series in series_by_asset.items()
              for window, pair in enumerate(window_slices(series, window_spec))}
    keys = enumerate_keys(series_by_asset, window_spec.count, seeds, tc_rates,
                          strategies)

    out_dir = Path(out_dir)
    artifacts_dir = out_dir / "artifacts"
    journal_path = out_dir / JOURNAL
    key_set = set(keys)
    done = {k: v for k, v in _read_journal(journal_path).items() if k in key_set}
    pending = [k for k in keys if k not in done]
    attempt = pending if limit is None else pending[:limit]
    skipped = len(pending) - len(attempt)
    failures: list[TrialFailure] = []
    chunks = lockstep_chunks(attempt)
    agent_total = sum(len(chunk) for chunk in chunks)

    out_dir.mkdir(parents=True, exist_ok=True)
    fresh = not journal_path.exists() or journal_path.stat().st_size == 0
    with journal_path.open("a", newline="", encoding="utf-8") as journal_fh:
        journal = csv.writer(journal_fh)
        if fresh:
            journal.writerow(RESULTS_HEADER)
            journal_fh.flush()

        def record(outcome: TrialResult | TrialFailure) -> None:
            if isinstance(outcome, TrialFailure):
                failures.append(outcome)
                return
            done[outcome.key] = outcome
            journal.writerow(result_row(outcome))
            journal_fh.flush()

        def collect(outcomes: list[TrialResult | TrialFailure]) -> None:
            nonlocal agent_done
            for outcome in outcomes:
                record(outcome)
            agent_done += len(outcomes)
            rate = agent_done / max(time.monotonic() - started, 1e-9)
            log.info("progress: %d/%d keys done (%d failed), %.0f trials/h, ETA %.0f s",
                     len(done), len(keys), len(failures), rate * 3600,
                     (agent_total - agent_done) / rate)

        agent_done = 0
        started = time.monotonic()
        # buy-and-hold runs once per (asset, window), its row copied to every key
        bh: dict[tuple[str, int], tuple[float, float | None, int]] = {}
        for key in attempt:
            if key.strategy == "buy-and-hold":
                where = key.asset, key.window
                try:
                    if where not in bh:
                        bh[where] = run_buy_and_hold(slices[where][1], env_config)
                    record(TrialResult(*dataclasses.astuple(key), *bh[where]))
                except Exception as exc:
                    record(TrialFailure.of(key, exc))
        if workers > 1 and len(chunks) > 1:
            # imported here: every command imports this module, few start a pool
            from concurrent.futures import ProcessPoolExecutor, as_completed

            # a fork pool starts all its workers at the first submit
            with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
                # each task pickles only its own chunk's slices
                futures = [pool.submit(_chunk_worker, chunk,
                                       {(k.asset, k.window): slices[k.asset, k.window]
                                        for k in chunk},
                                       env_config, a2c_config, artifacts_dir)
                           for chunk in chunks]
                # journal each chunk as it finishes, not behind a slower one
                for future in as_completed(futures):
                    collect(future.result())
        else:
            for chunk in chunks:
                collect(_chunk_worker(chunk, slices, env_config, a2c_config, artifacts_dir))

    failures.sort(key=lambda f: f.key)  # completion order varies between runs
    if not skipped and not failures:
        write_results_csv(map(result_row, done.values()), out_dir / "results.csv")
    if failures:
        log.warning("%d trial(s) failed; matrix continued", len(failures))

    return MatrixResult(results=[done[k] for k in keys if k in done], failures=failures,
                        pending=skipped)


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
    corr: float | None        # pulse correlation at the report's shift
    tr_diff: float | None     # mean sentarl TR minus mean no-sentiment TR


@dataclass
class ReportBundle:
    overall: list[OverallRow]
    by_asset: list[AssetSharpeRow]
    scatter: list[ScatterRow]


def _mean_or_none(values: Sequence[float]) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def _overall_row(strategy: str, tc: float | None,
                 group: Sequence[TrialResult]) -> OverallRow:
    """The group's mean TR, mean AR (of the defined per-trial ARs) and SR
    over its TRs."""
    trs = [r.tr for r in group]
    return OverallRow(strategy=strategy, tc=tc, mean_tr=float(np.mean(trs)),
                      mean_ar=_mean_or_none([r.ar for r in group]), sharpe=sharpe(trs))


def _where(results: Sequence[TrialResult], **fields: object) -> list[TrialResult]:
    """The results whose named fields equal the given values, in their given
    order, so a mean over them sums the same sequence every time."""
    return [r for r in results
            if all(getattr(r, name) == value for name, value in fields.items())]


def report(results: Sequence[TrialResult],
           series_by_asset: Mapping[str, AlignedSeries] | None = None,
           out_dir: str | Path | None = None,
           scatter_shift: int = 0) -> ReportBundle:
    """Aggregate trial results into the three summary artifacts.

    Overall table: strategy x tc with mean TR, mean AR (average of per-trial
    ARs), and SR over trial TRs. Per-asset table: SR per strategy with the
    best defined SR marked. Scatter data: per asset, news coverage, pulse
    correlation at `scatter_shift`, and the sentiment-minus-ablation mean TR
    difference over every tc.
    """
    if not results:
        raise ValueError("no results to report")

    # replicated benchmark rows collapse back to the first per (asset, window)
    first: dict[tuple[str, int], TrialResult] = {}
    bh = [r for r in _where(results, strategy="buy-and-hold")
          if first.setdefault((r.asset, r.window), r) is r]
    strategies = sorted({r.strategy for r in results})
    learners = [s for s in strategies if s != "buy-and-hold"]

    overall = [_overall_row(strategy, tc, _where(results, strategy=strategy, tc=tc))
               for strategy in learners
               for tc in sorted({r.tc for r in _where(results, strategy=strategy)})]
    if bh:
        overall.append(_overall_row("buy-and-hold", None, bh))

    by_asset: list[AssetSharpeRow] = []
    assets = sorted({r.asset for r in results})
    tcs = sorted({r.tc for r in results if r.strategy != "buy-and-hold"}) or [0.0]
    for asset in assets:
        for tc in tcs:
            srs = {strategy: sharpe([r.tr for r in (
                       _where(bh, asset=asset) if strategy == "buy-and-hold"
                       else _where(results, asset=asset, strategy=strategy, tc=tc))])
                   for strategy in strategies}
            defined = [(s, v) for s, v in srs.items() if v is not None]
            best = max(defined, key=lambda sv: sv[1])[0] if defined else None
            by_asset.append(AssetSharpeRow(asset, tc, srs, best))

    scatter: list[ScatterRow] = []
    for asset in [asset for asset in assets if asset in (series_by_asset or {})]:
        series = series_by_asset[asset]
        sent, abl = ([r.tr for r in _where(results, asset=asset, strategy=strategy)]
                     for strategy in ("sentarl", "no-sentiment"))
        tr_diff = float(np.mean(sent)) - float(np.mean(abl)) if sent and abl else None
        pulse = series_pulse(series, shifts=[scatter_shift])
        scatter.append(ScatterRow(asset, coverage(series), pulse.correlations[0], tr_diff))

    bundle = ReportBundle(overall, by_asset, scatter)
    if out_dir is not None:
        _write_report(bundle, Path(out_dir), scatter_shift)
    return bundle


def _cell(value: float | None) -> str:
    """Undefined metrics serialize as an empty cell, never a number."""
    return "" if value is None else repr(float(value))


def _write_report(bundle: ReportBundle, out_dir: Path, shift: int) -> None:
    overall, by_asset, scatter = (out_dir / name for name in REPORT_FILES)
    write_csv(overall, ["strategy", "tc", "mean_tr", "mean_ar", "sharpe"],
              ([row.strategy, "-" if row.tc is None else repr(float(row.tc)),
                repr(float(row.mean_tr)), _cell(row.mean_ar), _cell(row.sharpe)]
               for row in bundle.overall))
    strategies = sorted({s for row in bundle.by_asset
                         for s in row.sharpe_by_strategy})
    write_csv(by_asset,
              ["asset", "tc", *[f"sr_{s}" for s in strategies], "best"],
              ([row.asset, repr(float(row.tc)),
                *[_cell(row.sharpe_by_strategy.get(s)) for s in strategies], row.best or ""]
               for row in bundle.by_asset))
    write_csv(scatter, ["asset", "coverage", f"corr_shift{shift}", "tr_diff"],
              ([row.asset, repr(float(row.coverage)), _cell(row.corr),
                _cell(row.tr_diff)] for row in bundle.scatter))
