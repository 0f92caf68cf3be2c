"""`python -m curesched ...`: the same command line as the `curesched`
console script."""

import sys

from .bench import cli_main

if __name__ == "__main__":
    sys.exit(cli_main())
