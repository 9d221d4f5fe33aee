"""Set-up probe: import fusionkit and load every given definition file at
the default depth, as every command does before its own work.

    PYTHONPATH=src python3 bench/probe.py FILE...
"""

import sys

from fusionkit import serialize

for path in sys.argv[1:]:
    serialize.load(path)
