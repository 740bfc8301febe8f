"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python
twin is the fallback.  ``MULTIMEIXNER_KERNEL`` forces a backend:
``compiled`` (raise if the extension is missing), ``pure``, or ``auto``.
"""

import os

from . import pure

_requested = os.environ.get("MULTIMEIXNER_KERNEL", "auto").strip().lower()

if _requested in ("auto", "", "compiled"):
    try:
        from . import _speedups as _impl

        BACKEND = "compiled"
    except ImportError as exc:
        if _requested == "compiled":
            raise ImportError(
                "MULTIMEIXNER_KERNEL=compiled was requested but the compiled "
                "kernel _speedups is not built; build it, or set "
                "MULTIMEIXNER_KERNEL=pure|auto"
            ) from exc
        _impl = pure
        BACKEND = "pure"
elif _requested in ("pure", "python"):
    _impl = pure
    BACKEND = "pure"
else:
    raise RuntimeError(
        "MULTIMEIXNER_KERNEL must be one of auto|compiled|pure, got %r" % _requested
    )

mul_trunc = _impl.mul_trunc
hyp_sum = _impl.hyp_sum

__all__ = ["BACKEND", "mul_trunc", "hyp_sum", "pure"]
