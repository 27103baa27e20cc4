"""Set-up time of one fresh process, as every CLI call pays it.

    python3 perfbench/setup_probe.py SRC_DIR N [N ...]

Prints the seconds taken to import qloci, build the CLI parser and build
the interval tables for the given quiver sizes.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qloci  # noqa: E402
import qloci.cli  # noqa: E402

qloci.cli.build_parser()
for n in sys.argv[2:]:
    qloci.quiver.interval_table(int(n))
print(repr(time.perf_counter() - t0))
