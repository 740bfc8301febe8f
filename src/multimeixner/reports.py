"""Structured verification results shared by the checkers and the CLI."""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple, Union

from .numerics import ScalarMode, float_str, rational_str


@dataclass(frozen=True)
class LatticeBox:
    """Rectangular verification window over variables (i, k) and degrees (m, n)."""

    max_i: int
    max_k: int
    max_m: int
    max_n: int

    def __post_init__(self):
        if min(self.max_i, self.max_k, self.max_m, self.max_n) < 0:
            raise ValueError("box bounds must be non-negative")

    def cells(self):
        """Every (m, n, i, k) of the box in lexicographic lattice order."""
        return lattice((self.max_m, self.max_n, self.max_i, self.max_k))


def lattice(top) -> list:
    """Multi-indices with 0 <= idx <= top, in lexicographic order."""
    return list(itertools.product(*(range(t + 1) for t in top)))


@dataclass(frozen=True)
class EvalReport:
    """Outcome of one identity-verification run.

    In exact mode a pass means the maximum discrepancy is literally zero;
    in float mode it means the maximum discrepancy is within `tol`.  The
    counterexample, when present, is the first failing index tuple in
    lexicographic lattice order.
    """

    identity: str
    box: object
    mode: ScalarMode
    max_abs_discrepancy: Union[Fraction, float]
    counterexample: Optional[Tuple] = None
    tol: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.mode is ScalarMode.EXACT:
            return self.max_abs_discrepancy == 0
        return float(self.max_abs_discrepancy) <= self.tol

    def _box_obj(self):
        return asdict(self.box) if isinstance(self.box, LatticeBox) else self.box

    def _disc_str(self) -> str:
        disc = self.max_abs_discrepancy
        return rational_str(disc) if isinstance(disc, Fraction) else float_str(float(disc))

    def to_json_obj(self) -> dict:
        return {
            "suite": self.identity,
            "box": self._box_obj(),
            "mode": self.mode.value,
            "max_discrepancy": self._disc_str(),
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "pass": self.passed,
        }

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [
            f"{status} {self.identity}",
            f"mode={self.mode.value}",
            f"box={self._box_obj()}",
            f"max_discrepancy={self._disc_str()}",
        ]
        if self.tol is not None:
            parts.append(f"tol={float_str(self.tol)}")
        if self.counterexample is not None:
            parts.append(f"counterexample={self.counterexample}")
        return "  ".join(parts)


def exact_report(identity: str, box, cells: Iterable, residuals: Callable) -> EvalReport:
    """Exact report over the cells: the largest discrepancy and the first
    counterexample.

    ``residuals(cell)`` yields (label, residual) pairs; the counterexample
    is the label of the first nonzero residual in cell order, or None.
    """
    max_disc = Fraction(0)
    counter = None
    for cell in cells:
        for label, res in residuals(cell):
            if res:
                max_disc = max(max_disc, abs(res))
                if counter is None:
                    counter = label
    return EvalReport(identity, box, ScalarMode.EXACT, max_disc, counter)


def column_report(identity: str, max_n, max_x, columns, transposed=False) -> EvalReport:
    """Exact report over the degrees n <= max_n and points x <= max_x from
    residual columns: ``columns(s)`` gives, for each degree s (each point
    ``transposed``) in lattice order, one (integer numerators, positive
    denominator) column per relation j over the points y (the degrees) in
    lattice order.

    The counterexample is the least label (*n, *x, j) of a nonzero
    residual, which is the first in lattice order.
    """
    box = {"d": len(max_n), "max_degrees": list(max_n), "max_point": list(max_x)}
    shifted, fixed = lattice(max_n), lattice(max_x)
    if transposed:
        shifted, fixed = fixed, shifted
    found = []  # (least label, largest |residual|) of each nonzero column
    for s in shifted:
        for j, (column, den) in enumerate(columns(s)):
            if any(column):
                y = fixed[next(itertools.compress(itertools.count(), column))]
                label = (*y, *s, j) if transposed else (*s, *y, j)
                found.append((label, Fraction(max(map(abs, column)), den)))
    max_disc = max((res for _, res in found), default=Fraction(0))
    counter = min((label for label, _ in found), default=None)
    return EvalReport(identity, box, ScalarMode.EXACT, max_disc, counter)
