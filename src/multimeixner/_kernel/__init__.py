"""The exact kernels: truncated series products and the four-index
hypergeometric sum, in pure Python (see ``pure``)."""

from .pure import hyp_sum, mul_trunc

BACKEND = "pure"  # the one kernel; the package reports it as KERNEL_BACKEND

__all__ = ["BACKEND", "mul_trunc", "hyp_sum"]
