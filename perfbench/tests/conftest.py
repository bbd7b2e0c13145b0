"""Put the repository sources and the benchmark package on ``sys.path``."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _entry in (os.path.join(ROOT, "src"), ROOT):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)
