"""sentarl benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload matrix-paper --seed 1 --seconds 20 --trace 0

The benchmark generates its inputs from --seed (bench/gen.py) and drives the
sentarl CLI from this one process as a closed loop: one command at a time,
each in a fresh interpreter, `run` with min(2, nproc) pool workers. It
repeats the workload's pass at least twice, stopping at the pass end nearest
to --seconds, checks every output, and prints the metrics of BENCHMARK.json:
with --trace 0 the end-to-end ones as medians over passes, with --trace 1
the per-layer ones from a traced in-process run (bench/tracer.py), next to
untraced runs of the same commands. The last stdout line is one
JSON object; every line before it is for people. Timers are wall-clock and
no CPU is pinned. A failed check exits 1, a missing source tree 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKERS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 5  # probes before the passes, and as many after them
PULSE_SHIFTS = 14  # corr-pulse default range -10..+3
BASELINE_WORKLOAD = "matrix-paper"  # the recorded baseline was taken at T=3377
FIRST_STEP = max(gen.W, gen.L - 1)  # first env step: every window is full

# Fresh-process set-up: interpreter start, package import, config parse and,
# for the matrix workloads, reading back every aligned cache.
SETUP_PROBE = """
import sys
import sentarl, sentarl.cli
from sentarl.config import load_config
from sentarl.data import load_aligned
cfg = load_config(sys.argv[1])
if sys.argv[2] == "1":
    for name in sorted(cfg.assets):
        load_aligned(cfg.cache_path(name), asset=name)
print(sentarl.__file__)
"""


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float      # user + sys of the process and every child it waited for
    rss_mb: float     # peak RSS of its largest single process
    stdout: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)
        print(f"CHECK FAILED: {message}")


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env.pop("SENTARL_OUTPUT_ROOT", None)
    return env


def spawn(argv: list[str], work: Path) -> Proc:
    """Run one program process to completion and take its resource usage."""
    log = work / "proc.log"
    with log.open("w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(work / "tmp"), cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, log.read_text(encoding="utf-8"))


def sentarl_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "sentarl.cli", "--quiet", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- checks


def expected_keys(spec: gen.Workload) -> set[tuple]:
    return {(gen.ASSET, w, s, tc, strat)
            for w in range(spec.windows["count"]) for s in spec.seeds
            for tc in gen.TC_RATES for strat in gen.STRATEGIES}


def buy_and_hold_tr(closes: list[float], spec: gen.Workload, window: int) -> float:
    """Independent oracle: long from the first full observation window to the
    end of the test slice, no costs, over the slice's first price."""
    win = spec.windows
    anchor = len(closes) - gen.span(win)
    start = anchor + window * win["stride"] + win["train_len"]
    p = closes[start:start + win["test_len"]]
    return math.fsum(p[t + 1] - p[t] for t in range(FIRST_STEP, len(p) - 1)) / p[0]


def check_results(out_dir: Path, spec: gen.Workload, inputs: dict,
                  tally: Tally) -> str | None:
    """Check results.csv of one matrix run; return its sha256 when present."""
    keys = expected_keys(spec)
    tally.attempted += len(keys)
    results = out_dir / "results.csv"
    if not results.exists():
        journal = out_dir / "results.journal.csv"
        done = len(read_csv(journal)) - 1 if journal.exists() else 0
        tally.fail(f"{results} missing; {done} of {len(keys)} trials journaled",
                   count=max(1, len(keys) - done))
        return None
    rows = read_csv(results)
    body = rows[1:]
    seen: dict[tuple, list[str]] = {}
    for row in body:
        key = (row[0], int(row[1]), int(row[2]), float(row[3]), row[4])
        if key in seen:
            tally.fail(f"duplicate row for {key}")
        seen[key] = row
    missing = keys - set(seen)
    if missing or set(seen) - keys:
        tally.fail(f"results keys differ from the matrix: {len(missing)} missing, "
                   f"{len(set(seen) - keys)} unexpected", count=max(1, len(missing)))
    test_steps = spec.windows["test_len"] - 1 - FIRST_STEP
    for key, row in seen.items():
        tr, trades = float(row[5]), int(row[7])
        if not math.isfinite(tr) or not 0 <= trades <= test_steps:
            tally.fail(f"implausible row {row}")
        if key[4] == "buy-and-hold":
            want = buy_and_hold_tr(inputs["closes"], spec, key[1])
            if abs(tr - want) > 1e-12 * max(1.0, abs(want)) or trades != 1:
                tally.fail(f"buy-and-hold {key}: tr {tr!r} != oracle {want!r}")
    if not (out_dir / "report" / "overall.csv").exists():
        tally.fail("report/overall.csv missing")
    return sha256(results)


def check_cache(cache: Path, inputs: dict, tally: Tally) -> str | None:
    """The ingest cache reloads with one row per price row, in price order."""
    if not cache.exists():
        tally.fail(f"cache {cache} missing")
        return None
    rows = read_csv(cache)[1:]
    stamps = [r[0] for r in rows]
    closes = [float(r[1]) for r in rows]
    if stamps != inputs["stamps"] or closes != inputs["closes"]:
        tally.fail(f"cache holds {len(rows)} rows, not the {len(inputs['stamps'])} "
                   "price rows in order")
    return sha256(cache)


def check_pulse(path: Path, tally: Tally) -> None:
    if not path.exists() or len(read_csv(path)) != PULSE_SHIFTS + 1:
        tally.fail(f"pulse file {path} missing or not {PULSE_SHIFTS} shifts")


def check_rc(proc: Proc, what: str, tally: Tally) -> None:
    if proc.rc != 0:
        tally.fail(f"{what} exited {proc.rc}: {proc.stdout.strip()[-400:]}")


# ---------------------------------------------------------------- workload


class Bench:
    """One benchmark invocation: inputs, passes and their measurements."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.label = f"{workload}-seed{seed}"
        self.spec = gen.WORKLOADS[workload]
        self.matrix = self.spec.windows is not None
        self.work = work
        self.data = work / "data"
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.inputs = gen.generate(self.spec, seed, self.data)
        self.tally = Tally()
        self.hashes: list[str] = []
        self.passes: list[dict] = []
        self._count = 0

    def config(self, out_dir: Path) -> Path:
        self._count += 1
        return gen.write_config(self.spec, self.data, out_dir,
                                name=f"config-{self._count}.json")

    def command(self, argv: list[str], what: str) -> Proc:
        proc = spawn(argv, self.work)
        self.tally.attempted += 1
        check_rc(proc, what, self.tally)
        return proc

    def prepare(self) -> None:
        """Matrix workloads ingest once; every pass starts from these caches."""
        self.prep = self.work / "prep"
        if self.matrix:
            self.command(sentarl_cmd("ingest", "--config", str(self.config(self.prep))),
                         "ingest")
            check_cache(self.prep / "caches" / f"{gen.ASSET}.aligned.csv",
                        self.inputs, self.tally)

    def check_outputs(self, out: Path) -> str | None:
        """Check one output directory; return the sha256 of its product file
        (results.csv of a matrix run, the aligned cache of an ingest run)."""
        if self.matrix:
            return check_results(out, self.spec, self.inputs, self.tally)
        check_pulse(out / "pulse" / f"{gen.ASSET}.pulse.csv", self.tally)
        return check_cache(out / "caches" / f"{gen.ASSET}.aligned.csv",
                           self.inputs, self.tally)

    def setup_s(self) -> list[float]:
        samples = []
        cfg = self.config(self.prep)
        for _ in range(SETUP_REPEATS):
            proc = spawn([sys.executable, "-c", SETUP_PROBE, str(cfg),
                          "1" if self.matrix else "0"], self.work)
            self.tally.attempted += 1
            check_rc(proc, "set-up probe", self.tally)
            origin = Path(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.rc == 0 and origin is not None and SRC not in origin.parents:
                self.tally.fail(f"set-up probe imported sentarl from {origin}, not {SRC}")
            samples.append(proc.wall_s)
        return samples

    def one_pass(self) -> dict:
        out = self.work / f"pass-{len(self.passes)}"
        shutil.rmtree(out, ignore_errors=True)
        cfg = str(self.config(out))
        if self.matrix:
            shutil.copytree(self.prep / "caches", out / "caches")
            run = self.command(sentarl_cmd("run", "--config", cfg,
                                           "--workers", str(WORKERS)), "run")
            procs = [run]
            stats = {"run_s": run.wall_s}
        else:
            ingest = self.command(sentarl_cmd("ingest", "--config", cfg), "ingest")
            pulse = self.command(sentarl_cmd("corr-pulse", "--config", cfg,
                                             "--asset", gen.ASSET), "corr-pulse")
            procs = [ingest, pulse]
            stats = {"ingest_s": ingest.wall_s, "pulse_s": pulse.wall_s}
        product = self.check_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        if product is not None:
            self.hashes.append(product)
        stats.update(wall_s=sum(p.wall_s for p in procs),
                     cpu_s=sum(p.cpu_s for p in procs),
                     rss_mb=max(p.rss_mb for p in procs))
        if self.matrix:
            stats["idle"] = 1 - run.cpu_s / (run.wall_s * WORKERS)
        self.passes.append(stats)
        return stats

    def in_process(self, traced: bool) -> dict:
        """ingest plus the workload's main command in one traced (or not)
        interpreter, run with one worker so every call is seen."""
        name = "traced" if traced else "untraced"
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        cfg = str(self.config(out))
        commands = [["--quiet", "ingest", "--config", cfg]]
        if self.matrix:
            commands.append(["--quiet", "run", "--config", cfg, "--workers", "1"])
        else:
            commands.append(["--quiet", "corr-pulse", "--config", cfg,
                             "--asset", gen.ASSET])
        summary = WORK / "traces" / f"{self.label}-{name}.json"
        summary.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH / "tracer.py"), "--src", str(SRC),
                "--out", str(summary), "--cmd", json.dumps(commands)]
        proc = spawn(argv + ([] if traced else ["--no-trace"]), self.work)
        self.tally.attempted += 1
        check_rc(proc, f"{name} in-process run", self.tally)
        if proc.rc != 0:
            return {}
        result = json.loads(summary.read_text(encoding="utf-8"))
        for argv_, rc in zip(commands, result["rcs"]):
            self.tally.attempted += 1
            if rc != 0:
                self.tally.fail(f"{name} `{' '.join(argv_[1:3])}` returned {rc}")
        result["product"] = self.check_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check_identical(self, hashes: list[str | None], what: str) -> None:
        if len(set(hashes)) != 1 or None in hashes:
            self.tally.fail(f"{what} differ: {hashes}")


# ---------------------------------------------------------------- reporting


def summarize(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    values = sorted(values)
    text = f"median {statistics.median(values):.6g} (n={len(values)}"
    q, pct = tracer.tail_quantile(len(values))
    if pct != 50:
        text += f", p{pct} {values[round(q * (len(values) - 1))]:.6g}"
    return text + ")"


def provenance() -> dict:
    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, env=env,
                             capture_output=True, timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC).as_posix().encode())
            src_hash.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # metadata lookup failures vary by installer
        numpy_version = "unknown"
    return {"git_sha": sha, "src_sha256": src_hash.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "workers": WORKERS, "loadavg_1m_start": os.getloadavg()[0],
            "note": "wall-clock timers, no CPU pinning"}


def end_to_end(bench: Bench, seconds: float) -> dict[str, dict]:
    setup = bench.setup_s()
    start = time.perf_counter()
    while True:
        bench.one_pass()
        elapsed = time.perf_counter() - start
        # Stop at the pass end nearest to `seconds`, after at least two passes.
        if len(bench.passes) >= 2 and elapsed + bench.passes[-1]["wall_s"] / 2 >= seconds:
            break
    setup += bench.setup_s()
    bench.check_identical(bench.hashes, "product files across repeats")
    col = lambda key: [p[key] for p in bench.passes]  # noqa: E731
    measured = {"setup_s": (setup, "s"), "wall_s": (col("wall_s"), "s"),
                "cpu_s": (col("cpu_s"), "s"), "peak_rss_mb": (col("rss_mb"), "MB")}
    for name, (values, unit) in measured.items():
        print(f"{name}: {summarize(values)} {unit}")
    print("pass wall_s: " + " ".join(f"{w:.3f}" for w in col("wall_s")))
    if bench.matrix:
        trials = sum(1 for key in expected_keys(bench.spec) if key[4] != "buy-and-hold")
        print(f"trials_per_hour: {summarize([trials * 3600 / w for w in col('run_s')])} "
              f"trials/h ({trials} agent trials per pass)")
        print(f"pool_idle_share: {summarize(col('idle'))} ratio")
    else:
        rows = len(bench.inputs["closes"]) + bench.inputs["headlines"]
        cache_rows = len(bench.inputs["closes"])
        print(f"ingest_rows_per_s: {summarize([rows / w for w in col('ingest_s')])} rows/s")
        print(f"cache_read_rows_per_s: "
              f"{summarize([cache_rows / w for w in col('pulse_s')])} rows/s")
    return {name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in measured.items()}


def per_layer(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics: medians over alternating untraced and traced
    in-process runs, repeated up to the pair end nearest to `seconds`."""
    bench.one_pass()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.in_process(traced=False))
        traced.append(bench.in_process(traced=True))
        elapsed = time.perf_counter() - start
        if not (untraced[-1] and traced[-1]) or elapsed * (1 + 0.5 / len(traced)) >= seconds:
            break
    bench.check_identical(bench.hashes + [r.get("product") for r in untraced + traced],
                          f"product files of the workers={WORKERS} run and the "
                          "untraced and traced workers=1 runs")
    metrics = {"evaluation.pool_idle_share": bench.passes[0].get("idle", 0.0)}
    if not all(untraced + traced):
        return metrics
    for name in traced[0]["metrics"]:
        metrics[name] = statistics.median(r["metrics"][name] for r in traced)
    traced_s = statistics.median(sum(r["walls"]) for r in traced)
    untraced_s = statistics.median(sum(r["walls"]) for r in untraced)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1
    print(f"trace overhead: {traced_s / untraced_s - 1:+.1%} against untraced workers=1 "
          f"runs (median {traced_s:.3f} s vs {untraced_s:.3f} s, {len(traced)} pairs)")
    last = traced[-1]
    print(f"trace: {last['spans']} spans, {last['trials']} trials, "
          f"absent names: {last['absent'] or 'none'}; spans in {last['spans_file']}")
    if bench.spec.name == BASELINE_WORKLOAD:
        cross_check(metrics)
    return metrics


def cross_check(metrics: dict[str, float]) -> None:
    """Compare traced figures with the recorded baseline of bench/predictions.json."""
    baseline = json.loads((BENCH / "predictions.json").read_text())["baseline"]
    for row in baseline["figures"]:
        measured = metrics.get(row["metric"], 0.0)
        if row.get("invert"):
            measured = 1e6 / measured if measured else 0.0
        if not measured:
            continue
        parts = [f"{measured:.1f} us traced"]
        for source in ("roadmap_us", "recheck_us"):
            if row[source]:
                parts.append(f"{source} {row[source]} ({measured / row[source] - 1:+.0%})")
        print(f"baseline {row['what']}: " + ", ".join(parts))


def main() -> int:
    parser = argparse.ArgumentParser(description="sentarl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "sentarl" / "__init__.py").is_file():
        print(f"error: no sentarl source tree at {SRC}", file=sys.stderr)
        return 2

    prov = provenance()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work)
    bench.prepare()
    if args.trace:
        metrics = per_layer(bench, args.seconds)
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in units}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    else:
        metrics = end_to_end(bench, args.seconds)
    prov["loadavg_1m_end"] = os.getloadavg()[0]
    tally = bench.tally
    correct = not tally.problems
    product = "results.csv" if bench.matrix else "aligned cache"
    print(f"{product} sha256: {bench.hashes[0] if bench.hashes else 'none written'}")
    print(f"error_rate: {tally.failed / max(1, tally.attempted):.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": correct, "attempted": max(1, tally.attempted),
              "failed": tally.failed, "metrics": metrics}
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "problems": tally.problems, **result},
                   indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
