"""`python -m pffcert`: the same command line as the `pffcert` script."""

import sys

from .cli import main

sys.exit(main())
