"""``python -m oddsym``: the ``oddsym`` command line."""

from .cli import main

raise SystemExit(main())
