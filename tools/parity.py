"""Byte parity of the sentarl CLI between a base revision and this tree.

    python tools/parity.py --base <rev>

The base revision's `src/` is taken with `git archive` into a temporary
directory; this tree's `src/` is used as it stands, uncommitted edits
included. Inputs come from `bench/gen.py` for every workload, at seed 1.
Under both trees, each command runs in a fresh interpreter:

- matrix workloads: `ingest` into three output directories, then
  `corr-pulse`, `run --workers 1`, two `train` keys and `report` in the
  first, `run --workers 2` in the second, and `run --workers 2 --limit 7`
  then `run --workers 2 --resume` in the third;
- ingest-5y: `ingest` and `corr-pulse`.

Every output file is compared by sha256. A journal is compared as its
sorted lines, since a pool appends trials in the order they finish, and
`config.echo.json`, which records the output directory, with each side's
output root masked. The run lock (which holds a pid) is left out. Exit
codes and stdout, with the output root masked, must match too. Exits 0
when all match, and 1 listing what differs; a command that fails under
either tree also counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402  (bench/gen.py, found through the path above)

#: Output files that differ between trees by design, by name.
SKIPPED = frozenset({".sentarl.lock"})
JOURNAL, ECHO = "results.journal.csv", "config.echo.json"
#: What each side's output root reads as in compared stdout and echoes.
MASK = "<out>"
#: Input seed of every workload.
SEED = 1
TRAIN_KEYS = (["--window", "1", "--seed", "1", "--tc", "0.0025"],
              ["--window", "0", "--seed", "0", "--tc", "0.0", "--strategy", "no-sentiment"])


def digest(path: Path, root: Path) -> str:
    """sha256 of a file's bytes, of its sorted lines for a journal, or of
    its bytes with the output root `root` masked for a config echo."""
    data = path.read_bytes()
    if path.name == JOURNAL:
        data = b"".join(sorted(data.splitlines(keepends=True)))
    elif path.name == ECHO:
        data = data.replace(str(root).encode(), MASK.encode())
    return hashlib.sha256(data).hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """Each compared file under the output root `directory`, by its
    relative path."""
    return {path.relative_to(directory).as_posix(): digest(path, directory)
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name not in SKIPPED}


def compare_trees(base: Path, head: Path) -> list[str]:
    """The relative paths whose digests differ, or that only one side has."""
    a, b = digests(base), digests(head)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def commands(workload: str) -> list[tuple[str, list[str]]]:
    """(output directory, CLI arguments) of each command, in run order;
    `{cfg}` stands for the directory's config file and `{out}` for the
    directory itself."""
    ingest = ["ingest", "--config", "{cfg}"]
    pulse = ["corr-pulse", "--config", "{cfg}", "--asset", gen.ASSET]
    if gen.WORKLOADS[workload].windows is None:
        return [("a", ingest), ("a", pulse)]
    run = ["run", "--config", "{cfg}", "--workers"]
    train = ["train", "--config", "{cfg}", "--asset", gen.ASSET]
    return [*((d, ingest) for d in "abc"),
            ("a", pulse), ("a", [*run, "1"]),
            *(("a", train + key) for key in TRAIN_KEYS),
            ("a", ["report", "--results", "{out}", "--shift", "-2"]),
            ("b", [*run, "2"]),
            ("c", [*run, "2", "--limit", "7"]), ("c", [*run, "2", "--resume"])]


def run_tree(src: Path, spec: gen.Workload, data: Path, out: Path,
             work: Path) -> list[tuple[str, int, str]]:
    """Run the workload's commands with sentarl imported from `src`; return
    each command's (text, exit code, stdout with the output root masked)."""
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(work))
    env.pop("SENTARL_OUTPUT_ROOT", None)
    done = []
    for name, args in commands(spec.name):
        target = out / name
        cfg = gen.write_config(spec, data, target, name=f"config-{out.name}-{name}.json")
        argv = [arg.format(cfg=cfg, out=target) for arg in args]
        proc = subprocess.run([sys.executable, "-m", "sentarl.cli", "--quiet", *argv],
                              env=env, cwd=work, capture_output=True, text=True)
        text = " ".join([f"[{name}]", *args])
        done.append((text, proc.returncode, proc.stdout.replace(str(out), MASK)))
    return done


def base_src(rev: str, into: Path) -> Path:
    """The base revision's src/ tree, extracted under `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=False)
    if tar.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into)
    return into / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args()
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="sentarl-parity-") as tmp:
        tmp = Path(tmp)
        trees = {"base": base_src(args.base, tmp / "base-tree"), "head": ROOT / "src"}
        for workload in sorted(gen.WORKLOADS):
            spec, data = gen.WORKLOADS[workload], tmp / workload / "inputs"
            gen.generate(spec, SEED, data)
            outs = {side: tmp / workload / side for side in trees}
            ran = {side: run_tree(src, spec, data, outs[side], tmp)
                   for side, src in trees.items()}
            for (text, rc, out), (_, head_rc, head_out) in zip(ran["base"], ran["head"]):
                if rc or head_rc:
                    problems.append(f"{workload}: {text} exited {rc} (base), {head_rc} (head)")
                elif out != head_out:
                    problems.append(f"{workload}: stdout of {text}")
            differing = compare_trees(outs["base"], outs["head"])
            problems += [f"{workload}: {name}" for name in differing]
            print(f"{workload}: {len(ran['head'])} commands, "
                  f"{len(digests(outs['head']))} files compared, {len(differing)} differ")
    for problem in problems:
        print(f"DIFFERS: {problem}")
    print("parity: ok" if not problems else f"parity: {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
