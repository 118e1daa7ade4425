"""Test-session settings: the run writes no bytecode, nor do the
interpreters it starts, so that a checkout stays as clean as
``tools/bench_pairs.py`` needs it right after the tests."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
