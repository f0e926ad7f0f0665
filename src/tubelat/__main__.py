"""``python -m tubelat``: the command-line interface of ``tubelat.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
