"""tools/bench_pairs.py: the checkouts it refuses and the claim rule it applies."""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(path):
    os.makedirs(os.path.join(path, "bench"))
    with open(os.path.join(path, "bench", "run.py"), "w", encoding="utf-8") as handle:
        handle.write("")
    return str(path)


def test_equal_checkouts_are_accepted(tmp_path):
    bench_pairs.check_checkouts(_checkout(tmp_path / "aa"), _checkout(tmp_path / "bb"))


def test_paths_of_different_length_are_refused(tmp_path):
    with pytest.raises(bench_pairs.Refused, match="differ in length"):
        bench_pairs.check_checkouts(_checkout(tmp_path / "aa"), _checkout(tmp_path / "bbb"))


def test_bytecode_caches_are_refused(tmp_path):
    parent, change = _checkout(tmp_path / "aa"), _checkout(tmp_path / "bb")
    os.makedirs(os.path.join(change, "src", "pkg", "__pycache__"))
    with pytest.raises(bench_pairs.Refused, match="__pycache__"):
        bench_pairs.check_checkouts(parent, change)


def test_a_directory_without_the_benchmark_is_refused(tmp_path):
    os.makedirs(tmp_path / "bb")
    with pytest.raises(bench_pairs.Refused, match="no bench/run.py"):
        bench_pairs.check_checkouts(_checkout(tmp_path / "aa"), str(tmp_path / "bb"))


def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 0.82, 1.05]
    s = bench_pairs.summarize("lower", parent, faster)
    assert (s["wins"], s["pairs"], s["claim"]) == (9, 10, True)
    assert s["parent"][0] == pytest.approx(1.0)
    # Eight wins in ten are too few, whatever the gap.
    s = bench_pairs.summarize("lower", parent, faster[:8] + [1.05, 1.05])
    assert (s["wins"], s["claim"]) == (8, False)
    # Ten wins by less than the parent's quartile spread claim nothing.
    s = bench_pairs.summarize("lower", parent, [p - 0.005 for p in parent])
    assert (s["wins"], s["claim"]) == (10, False)
    # Ties count for neither side; "higher" metrics win upwards.
    s = bench_pairs.summarize("higher", [1.0] * 10, [1.0] * 9 + [2.0])
    assert (s["wins"], s["claim"]) == (1, False)


def test_fewer_than_ten_pairs_claim_nothing():
    s = bench_pairs.summarize("lower", [2.0], [1.0])
    assert s["parent"] == (2.0, 2.0, 2.0)
    assert s["change"] == (1.0, 1.0, 1.0)
    assert (s["wins"], s["claim"]) == (1, False)
    s = bench_pairs.summarize("lower", [2.0] * 9, [1.0] * 9)
    assert (s["wins"], s["claim"]) == (9, False)


def test_refused_checkouts_exit_2(tmp_path, capsys):
    argv = ["--workload", "cli", "--seed", "1", "--pairs", "1"]
    code = bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb")] + argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("refused: ")
