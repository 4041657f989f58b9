"""``python -m slepmoments``: the same executable as the ``slepmoments`` script."""

from .cli import main

main()
