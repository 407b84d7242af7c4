"""``python -m benchmarks.suite``: the same program as ``run.py``."""

import sys
from pathlib import Path

# The suite's modules import each other by plain name, as they do when
# run.py and child.py are started as scripts.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402

sys.exit(main())
