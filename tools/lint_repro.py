#!/usr/bin/env python
"""Repo static-analysis runner: ``python tools/lint_repro.py src``.

Thin shim that works from a plain checkout (no install needed): it puts
``<repo>/src`` on ``sys.path`` and delegates to the ``ppm check``
front-end (:mod:`repro.verify.check`), which runs the per-file lint
rules PPM001-PPM009 + PPM014 *and* the whole-program concurrency analysis
PPM010-PPM013 over one shared parse.  Exit status 1 when any finding is
reported, 0 when clean, 2 on usage errors.  Run with ``--list-rules``
to see the combined catalogue, ``--strict`` to add the plan/program/
dataflow verification sweeps.

The historic lint-only entry point survives as
``python -m repro.verify.lint`` (same rules, ``--select``/``--ignore``
filters, per-rule timings via ``--list-rules -v``).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.verify.check import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
