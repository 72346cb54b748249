"""`python -m thuemorse`: the command-line interface of `thuemorse.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
