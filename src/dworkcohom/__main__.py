"""Entry point for ``python -m dworkcohom``, the same CLI as the
``dworkcohom`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
