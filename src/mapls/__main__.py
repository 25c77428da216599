"""`python -m mapls <verb> ...`: the `mapls` command line (see cli.py)."""

import sys

from .cli import main

sys.exit(main())
