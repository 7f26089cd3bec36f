"""`python -m nonnef`: the command-line interface of `nonnef.cli`."""

import sys

from .cli import main

sys.exit(main())
