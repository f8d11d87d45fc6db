"""`python -m dsnls`: the dsnls command line."""

from .cli import main

main()
