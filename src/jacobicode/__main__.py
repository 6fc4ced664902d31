"""Entry point for ``python -m jacobicode``."""

from .cli import main

main()
