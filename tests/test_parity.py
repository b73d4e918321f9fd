"""The file comparison of `tools/parity.py`, without running the CLI."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)

HEADER = "asset,window,seed,tc,strategy,tr,ar,trade_count\r\n"
ROWS = ["BTC,0,0,0.0,buy-and-hold,0.1,0.5,1\r\n", "BTC,0,0,0.0,sentarl,-0.02,,7\r\n",
        "BTC,1,0,0.0,sentarl,0.03,0.2,4\r\n"]


def write_run(root: Path, rows=ROWS, journal=ROWS,
              echo='{{"output_dir": "{root}/a", "workers": 1}}') -> Path:
    """An output root holding one run; `{root}` in `echo` is the root."""
    (root / "artifacts").mkdir(parents=True)
    (root / "results.csv").write_text(HEADER + "".join(rows), newline="")
    (root / "results.journal.csv").write_text(HEADER + "".join(journal), newline="")
    (root / "config.echo.json").write_text(echo.format(root=root))
    (root / ".sentarl.lock").write_text("123\n")
    (root / "artifacts" / "k.equity.csv").write_bytes(b"t,timestamp\r\n20,2019-01-01\r\n")
    return root


def test_a_one_ulp_change_in_a_results_row_is_flagged(tmp_path):
    base = write_run(tmp_path / "base")
    nudged = repr(math.nextafter(0.1, 1.0))
    assert nudged != "0.1"
    head = write_run(tmp_path / "head", rows=[ROWS[0].replace("0.1", nudged), *ROWS[1:]])
    assert parity.compare_trees(base, head) == ["results.csv"]
    assert parity.compare_trees(base, write_run(tmp_path / "same")) == []


def test_journal_order_lock_and_echo_root_are_not_compared(tmp_path):
    # each echo records its own output root, which the comparison masks
    base = write_run(tmp_path / "base")
    head = write_run(tmp_path / "head", journal=ROWS[::-1])
    (head / ".sentarl.lock").write_text("456\n")
    assert parity.compare_trees(base, head) == []
    # a journal row that differs, rather than moves, still counts
    (head / "results.journal.csv").write_text(HEADER + "".join(ROWS[:2]), newline="")
    assert parity.compare_trees(base, head) == ["results.journal.csv"]


@pytest.mark.parametrize("echo", ['{{"output_dir": "{root}/b", "workers": 1}}',
                                  '{{"output_dir": "{root}/a", "workers": 2}}',
                                  '{{"output_dir": "{root}/a"}}'])
def test_an_echo_that_differs_beyond_its_root_is_flagged(tmp_path, echo):
    base = write_run(tmp_path / "base")
    head = write_run(tmp_path / "head", echo=echo)
    assert parity.compare_trees(base, head) == ["config.echo.json"]


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_file_on_one_side_only_is_flagged(tmp_path, side):
    trees = {name: write_run(tmp_path / name) for name in ("base", "head")}
    (trees[side] / "artifacts" / "extra.train.csv").write_text("episode\r\n")
    assert parity.compare_trees(trees["base"], trees["head"]) == ["artifacts/extra.train.csv"]


def test_every_workload_runs_the_documented_commands():
    short = [" ".join(args[:1]) for _, args in parity.commands("matrix-short")]
    assert short.count("ingest") == 3 and short.count("train") == 2
    assert {"corr-pulse", "run", "report"} <= set(short)
    runs = [args for _, args in parity.commands("matrix-short") if args[0] == "run"]
    assert [run[4:] for run in runs] == [["1"], ["2"], ["2", "--limit", "7"], ["2", "--resume"]]
    assert [args[0] for _, args in parity.commands("ingest-5y")] == ["ingest", "corr-pulse"]
