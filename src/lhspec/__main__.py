"""``python -m lhspec``: the lhspec CLI, for a checkout that is not installed."""

from .cli_io import main

if __name__ == "__main__":
    main()
