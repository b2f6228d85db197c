#!/usr/bin/env python3
"""Compare the documents two fanetsim source trees emit, byte for byte.

    python3 scripts/compare_documents.py OLD_SRC NEW_SRC --seeds N

OLD_SRC and NEW_SRC are directories that hold a ``fanetsim`` package (for
example ``src`` of two checkouts). Each tree is imported in its own fresh
interpreter, which runs every sweep command and ``fit`` at the default
configuration, as CSV and as JSON, at seeds 0..N-1, and reports the exit
status and sha256 of each document. The differing (command, format, seed)
triples are printed; the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("sweep-power", "sweep-frequency", "sweep-area", "sweep-count", "fit")
FORMATS = ("csv", "json")

# Run by each tree's interpreter: argv[1:] are the seed count, then the commands and formats as JSON.
_EMIT = """
import contextlib, hashlib, io, json, sys
import fanetsim
from fanetsim.cli import main

seeds, commands, formats = int(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3])
documents = {}
for command in commands:
    for fmt in formats:
        for seed in range(seeds):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, "--seed", str(seed), "--format", fmt])
            digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode("utf-8")).hexdigest()
            documents[f"{command} {fmt} {seed}"] = [status, digest]
json.dump({"package": fanetsim.__file__, "documents": documents}, sys.stdout)
"""


def start(tree: Path, seeds: int) -> subprocess.Popen:
    """A fresh interpreter emitting every document of the package in tree."""
    # Run from the tree itself, so that only the tree supplies fanetsim.
    return subprocess.Popen(
        [sys.executable, "-c", _EMIT, str(seeds), json.dumps(COMMANDS), json.dumps(FORMATS)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree)}, stdout=subprocess.PIPE, text=True,
    )


def collect(proc: subprocess.Popen, tree: Path) -> dict[str, list]:
    """(exit status, sha256 of stdout and stderr) per 'command format seed'."""
    stdout, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"emitting the documents of {tree} failed with status {proc.returncode}")
    result = json.loads(stdout)
    if not Path(result["package"]).resolve().is_relative_to(tree):
        raise SystemExit(f"fanetsim was imported from {result['package']}, not from {tree}")
    return result["documents"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, metavar="OLD_SRC")
    parser.add_argument("new", type=Path, metavar="NEW_SRC")
    parser.add_argument("--seeds", type=int, required=True, metavar="N")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    old_tree, new_tree = args.old.resolve(), args.new.resolve()
    for tree in (old_tree, new_tree):
        if not (tree / "fanetsim" / "__init__.py").is_file():
            parser.error(f"{tree} holds no fanetsim package")
    # The two trees emit side by side, each in its own process.
    with start(old_tree, args.seeds) as old_proc, start(new_tree, args.seeds) as new_proc:
        old, new = collect(old_proc, old_tree), collect(new_proc, new_tree)
    differing = [key for key in old if old[key] != new[key]]
    for key in differing:
        print(key)
    print(f"{len(differing)} of {len(old)} documents differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
