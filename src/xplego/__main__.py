"""``python -m xplego``: the same command line as the ``xplego`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
