"""Command-line entry point.

Subcommands, each writing under the config's output directory: `ingest`
builds per-asset aligned caches, `corr-pulse` writes the lagged-correlation
profile to `pulse/`, `train` runs one debug trial into `debug/`, `run`
executes the full experiment matrix and reports, `report` re-aggregates an
existing results file. Only `ingest`, `run` and `report` hold its run lock.

Exit codes: 0 success, 1 internal error (an unexpected exception), 2
configuration/usage error, 3 ingestion or missing data error, 4 one or more
trials failed.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from pathlib import Path

# One BLAS thread, set before `data` imports numpy: the matmuls are too small
# to split, `run` gives each core its own process, and the pool's workers
# inherit the environment. A value the caller set still wins. Library
# importers of other sentarl modules keep their own environment.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from . import data, evaluation, sentiment
from .config import (CACHE_DIR, CACHE_SUFFIX, RESUMABLE_KEYS, RunConfig, _differences, _integer,
                     _number, echo_config, echo_differences, load_config)
from .errors import ConfigError, IngestError, SentarlError
from .files import read_rows, run_lock, write_csv

log = logging.getLogger("sentarl")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_TRIALS = 4

DIGEST_HEADER = ["asset", "sha256"]  # of caches.sha256.csv: the caches a run read


def _lexicon(config: RunConfig) -> dict[str, float]:
    if config.lexicon is not None:
        return sentiment.load_lexicon(config.lexicon)
    return sentiment.bundled_lexicon()


def _ingest_asset(config: RunConfig, name: str) -> data.AlignedSeries:
    spec = config.assets[name]
    prices = data.load_prices(spec.prices)
    grouped = None
    if spec.news is None:
        log.warning("%s: no news file configured; sentiment channel is all zeros", name)
    elif not Path(spec.news).exists():
        log.warning("%s: news file %s not found; sentiment channel is all zeros",
                    name, spec.news)
    else:
        headlines = data.load_headlines(spec.news)
        scored = sentiment.score_headlines(headlines, _lexicon(config))
        del headlines  # one headline table alive at a time keeps the peak RSS down
        grouped = sentiment.group_by_hour(scored, config.grouping)
        del scored
    series = data.align(prices, grouped, asset=name, fill=config.fill)
    cache = config.cache_path(name)
    data.save_aligned(series, cache)
    print(f"{name}: {len(series)} hourly points, "
          f"coverage {data.coverage(series):.4f}, cache {cache}")
    return series


def _known_asset(config: RunConfig, name: str) -> str:
    """`name`, checked against the config's assets before any path is built
    from it."""
    if name not in config.assets:
        raise ConfigError(f"asset {name!r} is not in the config "
                          f"(have: {sorted(config.assets)})")
    return name


def cmd_ingest(config: RunConfig, asset: str | None) -> int:
    names = [_known_asset(config, asset)] if asset else sorted(config.assets)
    with run_lock(config.output_dir):  # a run may be reading the caches
        for name in names:
            _ingest_asset(config, name)
    return EXIT_OK


def _load_cache(config: RunConfig, name: str) -> data.AlignedSeries:
    cache = config.cache_path(_known_asset(config, name))
    if not cache.exists():
        raise IngestError(f"no aligned cache for {name!r} at {cache}; "
                          f"run `sentarl ingest` first")
    return data.load_aligned(cache, asset=name)


def _check_shift(series: data.AlignedSeries, shift: int, flag: str) -> None:
    """Reject a pulse shift that leaves too short an overlap on `series`,
    naming its flag."""
    limit = sentiment.max_pulse_shift(series)
    if limit < 0:
        raise ConfigError(f"{flag}: {series.asset} has {len(series)} hourly points, too few "
                          f"for any pulse shift (it needs {sentiment.MIN_PULSE_OVERLAP + 1})")
    if abs(shift) > limit:
        raise ConfigError(f"{flag}: {shift} is outside [{-limit}, {limit}], the shifts "
                          f"the {len(series)} hourly points of {series.asset} allow")


def cmd_corr_pulse(config: RunConfig, asset: str, min_shift: int,
                   max_shift: int) -> int:
    if min_shift > max_shift:
        raise ConfigError("--min-shift must not exceed --max-shift")
    series = _load_cache(config, asset)
    for flag, shift in (("--min-shift", min_shift), ("--max-shift", max_shift)):
        _check_shift(series, shift, flag)
    pulse = sentiment.series_pulse(series, shifts=range(min_shift, max_shift + 1))
    out = config.output_dir / "pulse" / f"{asset}.pulse.csv"
    sentiment.write_pulse_csv(pulse, out)
    for shift, corr in zip(pulse.shifts, pulse.correlations):
        shown = "undefined" if corr is None else f"{corr:+.6f}"
        print(f"shift {shift:+d}: {shown}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_train(config: RunConfig, asset: str, window: int, seed: int,
              tc: float, strategy: str) -> int:
    _number(tc, "--tc", lo=0)  # both before the cache is read or anything written
    _integer(seed, "--seed", lo=0)
    slices = evaluation.window_slices(_load_cache(config, asset), config.windows)
    if not 0 <= window < len(slices):
        raise ConfigError(f"--window must be in [0, {len(slices) - 1}]")
    key = evaluation.TrialKey(asset, window, seed, tc, strategy)
    (agent,), test_env = evaluation.train_and_test([key], [slices[window]], config.env,
                                                   config.agent)
    result = evaluation.run_agent_trial(key, agent, test_env, 0, config.output_dir / "debug")
    ar = "undefined" if result.ar is None else f"{result.ar:.6f}"
    print(f"{asset} window={window} seed={seed} tc={tc} {strategy}: "
          f"tr={result.tr:.6f} ar={ar} trades={result.trade_count}")
    print(f"artifacts under {config.output_dir / 'debug'}")
    return EXIT_OK


def _print_overall(bundle: evaluation.ReportBundle) -> None:
    for row in bundle.overall:
        tc = "-" if row.tc is None else f"{row.tc:g}"
        ar = "undefined" if row.mean_ar is None else f"{row.mean_ar:.6f}"
        sr = "undefined" if row.sharpe is None else f"{row.sharpe:.4f}"
        print(f"{row.strategy:<14} tc={tc:<8} mean_tr={row.mean_tr:.6f} "
              f"mean_ar={ar} sharpe={sr}")


def cmd_run(config: RunConfig, workers: int | None, resume: bool,
            limit: int | None) -> int:
    for flag, value, lo in (("--limit", limit, 0), ("--workers", workers, 1)):
        if value is not None:  # before anything is written: a typo keeps the old outputs
            _integer(value, flag, lo=lo)
    with run_lock(config.output_dir):
        series_by_asset = {name: _load_cache(config, name)
                           for name in sorted(config.assets)}
        # a series too short for the window shape also fails before anything is written
        for series in series_by_asset.values():
            evaluation.make_windows(len(series), config.windows)
        out = config.output_dir
        echo, journal, sums = (out / "config.echo.json", out / evaluation.JOURNAL,
                               out / "caches.sha256.csv")
        digests = {name: hashlib.sha256(config.cache_path(name).read_bytes()).hexdigest()
                   for name in series_by_asset}
        # journal rows are reused only under the config and the caches that made them
        if resume and echo.exists():
            old = {r[0]: r[-1] for _, r in read_rows(sums, DIGEST_HEADER)} if sums.exists() else {}
            differing = echo_differences(config, echo) + _differences(old, digests, "caches")
            if differing:
                raise ConfigError(
                    f"--resume: the run's echo {echo} and cache digests {sums} differ in "
                    f"{', '.join(differing)} (only {' and '.join(RESUMABLE_KEYS)} may "
                    f"change); rerun without --resume to start over")
        elif resume and journal.exists() and journal.stat().st_size:
            raise ConfigError(f"--resume: the journal {journal} has no config echo {echo} to "
                              f"check it against; rerun without --resume to start over")
        if not resume:  # first, so no old row outlives the new echo and digests
            evaluation.remove_outputs(out)
        echo_config(config, echo)
        write_csv(sums, DIGEST_HEADER, digests.items())
        matrix = evaluation.run_matrix(
            series_by_asset,
            config.windows,
            seeds=config.seeds,
            tc_rates=config.tc_rates,
            strategies=config.strategies,
            env_config=config.env,
            a2c_config=config.agent,
            out_dir=out,
            workers=workers if workers is not None else config.workers,
            limit=limit,
        )
        if matrix.failures:
            for failure in matrix.failures:
                k = failure.key
                print(f"FAILED {k.asset} window={k.window} seed={k.seed} "
                      f"tc={k.tc} {k.strategy}: {failure.error}", file=sys.stderr)
            print(f"{len(matrix.failures)} trial(s) failed; "
                  f"rerun with --resume to retry", file=sys.stderr)
            return EXIT_TRIALS
        if matrix.pending:
            print(f"{matrix.pending} trial(s) still pending (limit reached); "
                  f"rerun with --resume to continue")
            return EXIT_OK
        bundle = evaluation.report(matrix.results, series_by_asset,
                                   out_dir=out / "report")
        print(f"{len(matrix.results)} trials complete; results in {out / 'results.csv'}")
        _print_overall(bundle)
        return EXIT_OK


def cmd_report(results_dir: Path, shift: int) -> int:
    results_path = results_dir / "results.csv"
    if not results_path.exists():  # checked first: the lock would make the directory
        raise IngestError(f"no results file at {results_path}")
    with run_lock(results_dir):  # a run may be writing results.csv or report/
        results = evaluation.read_results_csv(results_path)
        caches_dir = results_dir / CACHE_DIR
        # only the caches of the results' assets, and only under caches/ (the names come
        # from the file); an asset without one has no scatter row
        caches = {asset: caches_dir / f"{asset}{CACHE_SUFFIX}"
                  for asset in sorted({r.asset for r in results})}
        series_by_asset = {asset: data.load_aligned(path, asset=asset)
                           for asset, path in caches.items()
                           if path.parent == caches_dir and path.is_file()}
        for series in series_by_asset.values():
            _check_shift(series, shift, "--shift")  # its scatter column
        bundle = evaluation.report(results, series_by_asset or None,
                                   out_dir=results_dir / "report",
                                   scatter_shift=shift)
    _print_overall(bundle)
    print(f"report files in {results_dir / 'report'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentarl",
        description="Sentiment-aware actor-critic trading research engine")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build aligned per-asset caches")
    p.add_argument("--config", required=True)
    p.add_argument("--asset", help="single asset symbol; default: all configured")

    p = sub.add_parser("corr-pulse", help="sentiment/price-diff correlation profile")
    p.add_argument("--config", required=True)
    p.add_argument("--asset", required=True)
    p.add_argument("--min-shift", type=int, default=sentiment.PULSE_SHIFTS[0])
    p.add_argument("--max-shift", type=int, default=sentiment.PULSE_SHIFTS[-1])

    p = sub.add_parser("train", help="run a single debug trial")
    p.add_argument("--config", required=True)
    p.add_argument("--asset", required=True)
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tc", type=float, default=0.0)
    p.add_argument("--strategy", default="sentarl",
                   choices=["sentarl", "no-sentiment"])

    p = sub.add_parser("run", help="execute the full experiment matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="override the config's worker count")
    p.add_argument("--resume", action="store_true",
                   help="continue from the existing journal instead of starting over")
    p.add_argument("--limit", type=int, default=None,
                   help="attempt at most N pending trials, then stop")

    p = sub.add_parser("report", help="re-aggregate an existing results directory")
    p.add_argument("--results", required=True, help="directory holding results.csv")
    p.add_argument("--shift", type=int, default=0,
                   help="pulse shift used for the scatter correlation column")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "report":
            return cmd_report(Path(args.results), args.shift)
        config = load_config(args.config)
        if args.command == "ingest":
            return cmd_ingest(config, args.asset)
        if args.command == "corr-pulse":
            return cmd_corr_pulse(config, args.asset, args.min_shift, args.max_shift)
        if args.command == "train":
            return cmd_train(config, args.asset, args.window, args.seed,
                             args.tc, args.strategy)
        if args.command == "run":
            return cmd_run(config, args.workers, args.resume, args.limit)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (SentarlError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # anything the handlers above do not map
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        log.debug("traceback of the internal error", exc_info=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
