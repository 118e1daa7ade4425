"""Test-session settings: the run writes no bytecode, so that a checkout
stays as clean as ``tools/bench_pairs.py`` needs it right after the tests."""

import sys

sys.dont_write_bytecode = True
