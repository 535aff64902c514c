"""`python -m opjensen ...`: the same command-line interface as `opjensen`."""

from .harness_cli import main

main()
