"""``python -m cubicmaps``: the same command-line front end as the ``cubicmaps`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
