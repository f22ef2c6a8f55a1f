"""``python -m telegate``: the ``telegate`` command, run from the package."""

import sys

from .cli import main

sys.exit(main())
