"""``python -m hopsim``: the command-line interface."""

import sys

from . import cli

sys.exit(cli.main())
