"""Optional-numpy shim for the vectorized store read paths.

The simulator itself needs numpy (``sim/workload.py`` draws from its
RNG), but the *read side* -- opening a recorded store and synthesizing
the timing model -- must not: a CI box or a stripped-down analysis
container replaying committed stores should work from the standard
library alone.  Every consumer therefore imports ``np`` from here and
branches on ``np is None``, falling back to the original
``array``/``bisect`` per-row loops (kept byte-identical by the
equivalence suites, which run under both modes).  For the store index
the fallback is its single row consumer over ``walk_rows``, the same
loop that serves v1 segments, small segments and gzip-JSON runs.

``REPRO_NO_NUMPY=1`` force-disables numpy even when importable -- the
hook the CI fallback job (and the no-numpy tests) use to exercise the
fallback loops without uninstalling anything.

Vectorized consumers must treat ``np`` as *this module's attribute*
(``npcompat.np``), not a from-import, so tests can monkeypatch one
symbol to flip implementations.
"""

from __future__ import annotations

import os

if os.environ.get("REPRO_NO_NUMPY"):
    np = None
else:
    try:
        import numpy as np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - image always has numpy
        np = None

#: Window sizes below this stay on the bisect/fold path: the numpy
#: call overhead only amortizes over larger slices (measured on the
#: perf harness; correctness does not depend on the value).
MIN_VECTOR_ROWS = 64
