"""``python -m multimeixner``: the command line of ``multimeixner.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
