"""Run the diamond command line as ``python -m diamondlemma``."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
