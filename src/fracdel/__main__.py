"""``python -m fracdel``: the command-line interface, as the ``fracdel`` console script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
