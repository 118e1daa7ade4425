"""Alternated pairs of benchmark runs of two checkouts, and whether a gain holds.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in
the PARENT and CHANGE checkouts N times each, the parent first in odd pairs
and the change first in even ones. It prints every run, then, per
end-to-end metric, each side's median and quartiles, the pairs the change
wins (ties count for neither) and whether a gain may be claimed: at least
ten pairs ran, the change wins at least nine tenths of them, and its median
is better than the parent's by more than the distance between the parent's
quartiles. T, the run length, and the metric directions come from the
parent's ``BENCHMARK.json``.

It refuses checkouts whose absolute paths differ in length, since a
worker's peak RSS moves with the directory it runs from, and checkouts that
hold a ``__pycache__`` directory under ``src/`` or ``bench/``, since cached
bytecode there skips the compiling that a fresh checkout pays. No run
imports from elsewhere, such as ``tests/``, where pytest caches
``conftest.py`` before that file can turn bytecode off. The runs set
PYTHONDONTWRITEBYTECODE=1, so they leave none behind. Standard library
only; exits 2 on a refused checkout and 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


class Refused(Exception):
    """The checkouts cannot be compared."""


def check_checkouts(parent: str, change: str) -> None:
    """Raise Refused unless both are checkouts that compare fairly."""
    if len(os.path.abspath(parent)) != len(os.path.abspath(change)):
        raise Refused(
            "checkout paths differ in length: %s, %s"
            % (os.path.abspath(parent), os.path.abspath(change))
        )
    for root in (parent, change):
        if not os.path.isfile(os.path.join(root, "bench", "run.py")):
            raise Refused("%s has no bench/run.py" % root)
        for top in ("src", "bench"):
            for path, dirs, _ in os.walk(os.path.join(root, top)):
                if "__pycache__" in dirs:
                    raise Refused("%s holds %s" % (root, os.path.join(path, "__pycache__")))


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in the checkout ``root``."""
    argv = [
        sys.executable,
        "bench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run in %s failed (exit %d): %s" % (root, done.returncode, done.stderr))
    return json.loads(lines[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(better: str, parent: list, change: list) -> dict:
    """Medians, quartiles, wins and the claim verdict of one metric over
    pairs, parent[k] and change[k] being the k-th pair."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med,) + _quartiles(change),
        "wins": wins,
        "pairs": len(parent),
        "claim": len(parent) >= 10
        and 10 * wins >= 9 * len(parent)
        and sign * (c_med - p_med) > p_q3 - p_q1,
    }


def _fmt(x: float) -> str:
    return "%.4g" % x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        check_checkouts(args.parent, args.change)
    except Refused as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            try:
                # Checked before every run, not only the first.
                check_checkouts(args.parent, args.change)
                result = run_once(root, args.workload, args.seed, seconds)
            except Refused as exc:
                print("refused: %s" % exc, file=sys.stderr)
                return 2
            except RuntimeError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            runs[side].append(result)
            values = " ".join(
                "%s=%s" % (name, _fmt(m["value"])) for name, m in result["metrics"].items()
            )
            print(
                "pair %d %s: correct=%s attempted=%d failed=%d %s"
                % (k + 1, side, result["correct"], result["attempted"], result["failed"], values),
                flush=True,
            )

    print(
        "\n%s seed %d, %d pairs, %s s per run; median [q1, q3]"
        % (args.workload, args.seed, args.pairs, _fmt(seconds))
    )
    row = "%-14s %-6s %-28s %-28s %-8s %s%s"
    print(row % ("metric", "better", "parent", "change", "wins", "claim", ""))
    for name in runs["parent"][0]["metrics"]:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = summarize(better[name], parent, change)
        p_med, c_med = s["parent"][0], s["change"][0]
        delta = " (%+.1f %%)" % (100 * (c_med - p_med) / p_med) if p_med else ""
        print(
            row
            % (
                name,
                better[name],
                "%s [%s, %s]" % tuple(map(_fmt, s["parent"])),
                "%s [%s, %s]" % tuple(map(_fmt, s["change"])),
                "%d/%d" % (s["wins"], s["pairs"]),
                "yes" if s["claim"] else "no",
                delta,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
