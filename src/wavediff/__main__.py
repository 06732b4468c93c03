"""``python -m wavediff``: the ``wavediff`` command line."""
from .cli import main

raise SystemExit(main())
