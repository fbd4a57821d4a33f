"""``python -m bmdlimits``: the command-line front end."""

from .cli import main

main()
