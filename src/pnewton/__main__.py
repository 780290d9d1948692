"""``python -m pnewton``: the command-line interface (see :mod:`pnewton.harness.cli`)."""

from .harness.cli import main

main()
