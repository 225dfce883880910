"""Run the command line front end: ``python -m minput --graph FILE``."""

from .cli import main

if __name__ == "__main__":
    main()
