"""Traced in-process runs of the sentarl CLI.

The tracer wraps the public functions of each sentarl module from outside
the package and records a span per call: name, start, end, parent and the
trial it belongs to. Names that run once per step or per learner flush are
kept only as per-name counts, totals and a log-bucketed duration histogram,
so memory stays bounded on long episodes. Self time is a call's duration
minus the time of the wrapped calls made inside it.

Run as a script, it imports sentarl from a source tree, optionally installs
the wrappers, runs CLI commands in-process and writes a JSON summary:

    python3 bench/tracer.py --src src --out trace.json [--no-trace] \\
        --cmd '[["--quiet", "ingest", "--config", "c.json"]]'
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (metric prefix, module, attribute path) for every wrapped public function.
TARGETS = (
    ("cli.main", "sentarl.cli", "main"),
    ("config.load_config", "sentarl.config", "load_config"),
    ("data.load_prices", "sentarl.data", "load_prices"),
    ("data.load_headlines", "sentarl.data", "load_headlines"),
    ("data.align", "sentarl.data", "align"),
    ("data.save_aligned", "sentarl.data", "save_aligned"),
    ("data.load_aligned", "sentarl.data", "load_aligned"),
    ("sentiment.score_headlines", "sentarl.sentiment", "score_headlines"),
    ("sentiment.group_by_hour", "sentarl.sentiment", "group_by_hour"),
    ("sentiment.series_pulse", "sentarl.sentiment", "series_pulse"),
    ("env.step", "sentarl.env", "TradingEnv.step"),
    ("env.to_vector", "sentarl.env", "MarketState.to_vector"),
    ("env.run_policy", "sentarl.env", "run_policy"),
    ("env.write_equity_csv", "sentarl.env", "write_equity_csv"),
    ("nn.forward", "sentarl.nn", "forward"),
    ("nn.backward", "sentarl.nn", "backward"),
    ("nn.apply_update", "sentarl.nn", "apply_update"),
    ("nn.softmax_sample", "sentarl.nn", "softmax_sample"),
    ("nn.save_model", "sentarl.nn", "save_model"),
    ("a2c.train", "sentarl.a2c", "train"),
    ("a2c.advantage", "sentarl.a2c", "advantage"),
    ("a2c.critic_update", "sentarl.a2c", "critic_update"),
    ("a2c.actor_update", "sentarl.a2c", "actor_update"),
    ("a2c.write_training_log", "sentarl.a2c", "write_training_log"),
    ("evaluation.run_matrix", "sentarl.evaluation", "run_matrix"),
    ("evaluation.run_agent_trial", "sentarl.evaluation", "run_agent_trial"),
    ("evaluation.run_buy_and_hold", "sentarl.evaluation", "run_buy_and_hold"),
    ("evaluation.report", "sentarl.evaluation", "report"),
)

# Called once per env step or learner flush: aggregated, never stored as spans.
HOT = frozenset({
    "env.step", "env.to_vector", "nn.forward", "nn.backward", "nn.apply_update",
    "nn.softmax_sample", "a2c.advantage", "a2c.critic_update", "a2c.actor_update",
})
# A call of one of these opens a trial; its descendants share the trial id.
TRIAL_ROOTS = frozenset({"evaluation.run_agent_trial", "evaluation.run_buy_and_hold"})
TRAIN = "a2c.train"
ARTIFACTS = ("nn.save_model", "a2c.write_training_log", "env.write_equity_csv")

# Work counts read from a call's arguments or result, for per-row costs.
ROWS = {
    "data.load_prices": lambda args, result: len(result),
    "data.load_headlines": lambda args, result: len(result),
    "data.align": lambda args, result: len(result),
    "data.load_aligned": lambda args, result: len(result),
    "data.save_aligned": lambda args, result: len(args[0]),
    "sentiment.score_headlines": lambda args, result: len(args[0]),
    "nn.save_model": lambda args, result: os.path.getsize(args[1]),
}

BUCKETS_PER_E = 100  # histogram resolution: 1% of the value


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "hist", "rows", "train_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hist: Counter = Counter()
        self.rows = 0
        self.train_calls = 0

    def quantile(self, q: float) -> float:
        """Duration in ns at quantile q, read from the histogram."""
        if not self.calls:
            return 0.0
        rank = q * (self.calls - 1)
        seen = 0
        for bucket in sorted(self.hist):
            seen += self.hist[bucket]
            if seen > rank:
                return math.exp((bucket + 0.5) / BUCKETS_PER_E)
        raise AssertionError("histogram holds fewer samples than calls")


class Tracer:
    """Span recorder; `install` patches sentarl, `uninstall` restores it."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {name: Stat() for name, _, _ in TARGETS}
        self.spans: list[tuple] = []    # (id, parent, trial, name, start, end)
        self.stack: list[list] = []     # frames: [span id, child ns]
        self.trial = 0
        self._next_span = 1
        self._next_trial = 1
        self._train_depth = 0
        self._episode_ns: dict[int, list[int]] = {}
        self.step_growth: list[float] = []
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn):
        stat = self.stats[name]
        hot = name in HOT
        opens_trial = name in TRIAL_ROOTS
        is_train = name == TRAIN
        is_step = name == "env.step"
        rows = ROWS.get(name)
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = 0
            if not hot:
                span_id = self._next_span
                self._next_span += 1
            saved_trial = self.trial
            if opens_trial and not saved_trial:
                self.trial = self._next_trial
                self._next_trial += 1
            if is_train:
                self._train_depth += 1
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - frame[1]
                stat.hist[int(math.log(dur if dur > 0 else 1) * BUCKETS_PER_E)] += 1
                if self._train_depth:
                    stat.train_calls += 1
                if is_train:
                    self._train_depth -= 1
                if not hot:
                    self.spans.append((span_id, parent, self.trial, name, start, end))
                self.trial = saved_trial
            if rows is not None:
                stat.rows += rows(args, result)
            if is_step and self._train_depth:
                self._record_step(id(args[0]), dur, result.done)
            return result

        return wrapper

    def _record_step(self, env_id: int, dur: int, done: bool) -> None:
        steps = self._episode_ns.setdefault(env_id, [])
        steps.append(dur)
        if done:
            del self._episode_ns[env_id]
            tenth = len(steps) // 10
            if tenth >= 5:
                first = sorted(steps[:tenth])[tenth // 2]
                last = sorted(steps[-tenth:])[tenth // 2]
                self.step_growth.append(last / first)

    def install(self) -> None:
        """Wrap every target present in the loaded sentarl modules.

        A function bound elsewhere by `from ... import` is replaced in every
        sentarl module that holds it, not only where it is defined.
        """
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if owner is not module:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sentarl" and not mod_name.startswith("sentarl."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a layer the run never called reads 0."""
        s = self.stats

        def p(name: str, q: float, scale: float) -> float:
            return s[name].quantile(q) / scale

        def mean(name: str, scale: float) -> float:
            st = s[name]
            return st.total_ns / st.calls / scale if st.calls else 0.0

        def per_row(name: str) -> float:
            st = s[name]
            return st.total_ns / st.rows / 1e3 if st.rows else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        steps = s["env.step"].train_calls
        flushes = s["a2c.critic_update"].train_calls
        train_ns = s[TRAIN].total_ns
        flush_ns = sum(s[n].total_ns for n in
                       ("a2c.advantage", "a2c.critic_update", "a2c.actor_update"))
        trials = s["evaluation.run_agent_trial"]
        artifacts_ns = sum(s[n].total_ns for n in ARTIFACTS)
        tail_q, _ = tail_quantile(trials.calls)
        growth = sorted(self.step_growth)
        return {
            "config.load_config_ms": p("config.load_config", 0.5, 1e6),
            "data.load_prices_us_per_row": per_row("data.load_prices"),
            "data.load_headlines_us_per_row": per_row("data.load_headlines"),
            "data.align_s": mean("data.align", 1e9),
            "data.save_aligned_us_per_row": per_row("data.save_aligned"),
            "data.load_aligned_us_per_row": per_row("data.load_aligned"),
            "sentiment.score_headlines_us_per_row": per_row("sentiment.score_headlines"),
            "sentiment.group_by_hour_s": mean("sentiment.group_by_hour", 1e9),
            "sentiment.series_pulse_ms": mean("sentiment.series_pulse", 1e6),
            "env.step_us_p50": p("env.step", 0.5, 1e3),
            "env.step_us_p99": p("env.step", 0.99, 1e3),
            "env.step_calls": float(s["env.step"].calls),
            "env.step_growth": growth[len(growth) // 2] if growth else 0.0,
            "env.to_vector_us_p50": p("env.to_vector", 0.5, 1e3),
            "nn.forward_us_p50": p("nn.forward", 0.5, 1e3),
            "nn.forward_calls_per_step": ratio(s["nn.forward"].train_calls, steps),
            "nn.backward_us_p50": p("nn.backward", 0.5, 1e3),
            "nn.backward_calls_per_step": ratio(s["nn.backward"].train_calls, steps),
            "nn.apply_update_us_p50": p("nn.apply_update", 0.5, 1e3),
            "nn.apply_update_calls_per_flush": ratio(s["nn.apply_update"].train_calls,
                                                     flushes),
            "nn.softmax_sample_us_p50": p("nn.softmax_sample", 0.5, 1e3),
            "nn.save_model_ms": p("nn.save_model", 0.5, 1e6),
            "nn.save_model_bytes": ratio(s["nn.save_model"].rows, s["nn.save_model"].calls),
            "a2c.train_steps_per_s": ratio(steps * 1e9, train_ns),
            "a2c.train_self_us_per_step": ratio(s[TRAIN].self_ns / 1e3, steps),
            "a2c.critic_update_us_p50": p("a2c.critic_update", 0.5, 1e3),
            "a2c.actor_update_us_p50": p("a2c.actor_update", 0.5, 1e3),
            "a2c.advantage_calls_per_step": ratio(s["a2c.advantage"].train_calls, steps),
            "a2c.flush_us_per_sample": ratio(flush_ns / 1e3, steps),
            "a2c.write_training_log_ms": p("a2c.write_training_log", 0.5, 1e6),
            "evaluation.artifacts_ms_per_trial": ratio(artifacts_ns / 1e6, trials.calls),
            "evaluation.artifacts_share": ratio(artifacts_ns, trials.total_ns),
            "evaluation.run_agent_trial_s_p50": p("evaluation.run_agent_trial", 0.5, 1e9),
            "evaluation.run_agent_trial_s_tail": p("evaluation.run_agent_trial",
                                                   tail_q, 1e9),
            "evaluation.run_buy_and_hold_ms": p("evaluation.run_buy_and_hold", 0.5, 1e6),
            "evaluation.run_matrix_self_s": s["evaluation.run_matrix"].self_ns / 1e9,
            "evaluation.report_s": mean("evaluation.report", 1e9),
        }

    def summary(self) -> dict:
        return {
            "calls": {name: st.calls for name, st in self.stats.items()},
            "self_s": {name: st.self_ns / 1e9 for name, st in self.stats.items()},
            "absent": list(self.absent),
            "spans": len(self.spans),
            "trials": self._next_trial - 1,
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, trial, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "trial": trial,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


def tail_quantile(n: int) -> tuple[float, int]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it;
    the median when no percentile has that many."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct / 100, pct
    return 0.5, 50


def run_commands(commands: list[list[str]], tracer: Tracer | None) -> dict:
    """Run CLI argv lists in this process; sentarl must already be importable."""
    import sentarl.cli

    if tracer is not None:
        tracer.install()
    rcs, walls = [], []
    try:
        for argv in commands:
            start = time.perf_counter()
            rcs.append(sentarl.cli.main(argv))
            walls.append(time.perf_counter() - start)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"rcs": rcs, "walls": walls}


def main() -> int:
    parser = argparse.ArgumentParser(description="run sentarl CLI commands in-process")
    parser.add_argument("--src", required=True, type=Path, help="directory holding sentarl/")
    parser.add_argument("--out", required=True, type=Path, help="summary JSON to write")
    parser.add_argument("--cmd", required=True, help="JSON list of CLI argv lists")
    parser.add_argument("--no-trace", action="store_true", help="run without wrappers")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    start = time.perf_counter()
    import sentarl.cli  # noqa: F401  (the timed import)
    import_s = time.perf_counter() - start
    tracer = None if args.no_trace else Tracer()
    out = run_commands(json.loads(args.cmd), tracer)
    out["import_s"] = import_s
    out["sentarl_file"] = sys.modules["sentarl"].__file__
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        out["metrics"]["cli.import_s"] = import_s
        out.update(tracer.summary())
        spans_path = args.out.with_suffix(".spans.jsonl")
        tracer.write_spans(spans_path)
        out["spans_file"] = str(spans_path)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
