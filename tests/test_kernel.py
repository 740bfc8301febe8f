"""Backend parity: the compiled kernel must be bit-identical to pure Python."""

from fractions import Fraction as F

import pytest

from multimeixner._kernel import BACKEND, pure

try:
    from multimeixner._kernel import _speedups
except ImportError:
    _speedups = None

needs_compiled = pytest.mark.skipif(
    _speedups is None, reason="compiled extension not built"
)


def random_series_dict(rng, num_vars, cutoff, terms):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, cutoff) for _ in range(num_vars))
        if sum(exps) <= cutoff:
            out[exps] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return {e: c for e, c in out.items() if c}


@needs_compiled
def test_mul_trunc_parity():
    import random

    rng = random.Random(5)
    for num_vars in (1, 2, 3):
        for _ in range(20):
            cutoff = rng.randint(1, 6)
            a = random_series_dict(rng, num_vars, cutoff, 8)
            b = random_series_dict(rng, num_vars, cutoff, 8)
            assert pure.mul_trunc(a, b, cutoff) == _speedups.mul_trunc(a, b, cutoff)


@needs_compiled
def test_hyp_sum_parity():
    from multimeixner.numerics import pochhammer

    beta = F(7, 3)
    u = [F(3, 2), F(-1, 4), F(5, 7), F(2, 9)]
    for (m, n, i, k) in ((2, 1, 3, 2), (0, 4, 1, 5), (3, 3, 3, 3)):
        negm = [pochhammer(-m, t) for t in range(m + 1)]
        negn = [pochhammer(-n, t) for t in range(n + 1)]
        negi = [pochhammer(-i, t) for t in range(min(i, m + n) + 1)]
        negk = [pochhammer(-k, t) for t in range(min(k, m + n) + 1)]
        invb = [1 / pochhammer(beta, t) for t in range(m + n + 1)]
        pows = []
        for idx, bound in enumerate((min(m, i), min(m, k), min(n, i), min(n, k))):
            col = [F(1)]
            for e in range(1, bound + 1):
                col.append(col[-1] * (1 - u[idx]) / e)
            pows.append(col)
        args = (m, n, i, k, negm, negn, negi, negk, invb, pows[0], pows[1], pows[2], pows[3])
        assert pure.hyp_sum(*args) == _speedups.hyp_sum(*args)


def test_backend_reported():
    assert BACKEND in ("compiled", "pure")


def _import_kernel_with(backend):
    """Import the kernel in a child interpreter with MULTIMEIXNER_KERNEL set."""
    import os
    import subprocess
    import sys

    import multimeixner

    # Inherit the environment and change one key; put the directory that
    # holds the imported package first on PYTHONPATH, so the child imports
    # the same copy under test (a relative ``PYTHONPATH=src`` included).
    env = dict(os.environ, MULTIMEIXNER_KERNEL=backend)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(multimeixner.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    code = "import multimeixner._kernel as k; print(k.BACKEND)"
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_env_override_selects_pure():
    out = _import_kernel_with("pure")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"


@pytest.mark.skipif(_speedups is not None, reason="compiled extension is built")
def test_compiled_request_without_extension_names_the_fix():
    out = _import_kernel_with("compiled")
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:")
    assert "_speedups is not built" in last
    assert "MULTIMEIXNER_KERNEL=pure|auto" in last
    assert "circular import" not in last
    # the original import failure stays in the chain
    assert "direct cause" in out.stderr
