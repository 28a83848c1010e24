"""Speed of the CLI's CSV tables, as written to BENCH_output.json.

Run from the repository root, naming each source tree to measure::

    python3 scripts/bench_output.py --pairs 5 parent=/path/to/parent/src change=src

Each labelled tree is imported in its own child process.  The children run in
turn, label after label, ``--pairs`` times, so slow spells of a shared machine
hit every label alike; the JSON on standard output holds each label's median
over its runs, with the core count and the Python and numpy versions (the
runner is ``scripts/bench_simulate.py``'s ``main``).

- ``table_values_per_s``: float64 values per second that ``cli._write``, the
  CLI's writer of every output file, writes for a (header, 2-D array) table of
  1e3, 1e4, 1e5 and 2 rows by 5 columns, each value a standard normal times
  10**j, j uniform in -5..5.  ``array_2`` is the size of the tables that
  ``limit`` and ``threshold`` write;
- ``dynamics_s``: one ``coalsim dynamics`` run (``cli.main``, all rows
  k = 0..n) on topheavy n = 1e4 and 1e5 with c2 = 0.01, as perfbench's
  ``analysis`` job runs it at n = 1e4.

Each number is the median of 7 timings after one warm-up call (``bench_bounds``'s
``_median_secs``).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from bench_bounds import _median_secs  # the median of REPEATS timings after a warm-up
from bench_simulate import main  # the labelled-tree runner the bench scripts share


def _child(src: str) -> dict:
    sys.path.insert(0, src)
    from coalsim import cli

    out: dict = {"table_values_per_s": {}, "dynamics_s": {}}
    rng = np.random.default_rng(24)
    header = ["a", "b", "c", "d", "e"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for rows in (1000, 10_000, 100_000, 2):
            table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-5, 6, (rows, 5))
            secs = _median_secs(lambda: cli._write(path, (header, table)))
            out["table_values_per_s"][f"array_{rows}"] = table.size / secs
        for n in (10_000, 100_000):
            config = Path(tmp) / f"topheavy_n{n}.json"
            descriptor = {"family": "topheavy", "n": n, "c2": 0.01}
            config.write_text(json.dumps({"distribution": descriptor}))
            argv = ["dynamics", "--config", str(config), "--out", str(Path(tmp) / "dyn"), "--quiet"]
            out["dynamics_s"][f"topheavy_n{n}"] = _median_secs(lambda: cli.main(argv))
    return out


if __name__ == "__main__":
    main(_child, __doc__, __file__)
