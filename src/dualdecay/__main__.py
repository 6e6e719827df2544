"""`python -m dualdecay`: the `dualdecay` command line (see dualdecay.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
