"""Start-up probe, run in a fresh interpreter: import saddlelab, parse the
command line given as arguments and resolve its config, then exit.

run.py times this whole process to get setup_s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import saddlelab.cli as cli  # noqa: E402

cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:]))
