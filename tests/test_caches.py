"""No unbounded process-wide caches: every module-level ``functools``
cache in the package keeps a finite ``maxsize``."""

import importlib
import pkgutil

import multimeixner


def _module_caches():
    for info in pkgutil.iter_modules(multimeixner.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"multimeixner.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                yield f"{module.__name__}.{name}", obj.cache_parameters()["maxsize"]


def test_module_level_caches_are_bounded():
    caches = dict(_module_caches())
    # the scan sees the caches it guards
    assert "multimeixner.multivariate._raising_step" in caches
    assert "multimeixner.multivariate._graded_layer" in caches
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert not unbounded
