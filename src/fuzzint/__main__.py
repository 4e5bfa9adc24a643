"""``python -m fuzzint``: the command line of ``fuzzint.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
