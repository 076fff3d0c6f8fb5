"""`groupreg fit` in a fresh process, with the gauge read throughout.

    python3 perfbench/fit_child.py <gauge.json> fit --config <cfg> --out <dir>

Runs the package's command line (`groupreg.cli.main`) on the arguments
after the first, as `python3 -m groupreg.cli` would, and exits with its
code. The gauge readings taken while it ran, and the seconds they took,
go to <gauge.json>, so the parent can report the process's wall time at
reference speed (gauge.py).
"""

import json
import sys

from gauge import Gauge

if __name__ == "__main__":
    gauge = Gauge()
    try:
        with gauge.measure():
            from groupreg.cli import main
            code = main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as out:
            json.dump({"readings": gauge.readings, "spent": gauge.spent}, out)
    sys.exit(code)
