"""Traced entry point: install the layer wrappers, then run ``python -m repro``.

Usage (the benchmark launches it this way; arguments are repro's)::

    PERFBENCH_TRACE_DIR=DIR PYTHONPATH=src python perfbench/boot.py experiment ...
"""

import os
import runpy
import sys
from pathlib import Path

import spans

if __name__ == "__main__":
    spans.install(Path(os.environ[spans.TRACE_DIR_ENV]))
    launched = os.environ.get(spans.LAUNCH_ENV)
    spans.record_import(float(launched) if launched else None)
    sys.argv[0] = "repro"
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
