"""``python -m projdim``: the command line of :mod:`projdim.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
