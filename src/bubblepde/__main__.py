"""python -m bubblepde: the bubblepde command, run from the package."""

import sys

from .cli import main

sys.exit(main())
