"""System generation and the named verification suites behind the CLI.

The canonical parameter matrix is the dense rotation-boost-rotation
product with parameters (1/2, 2, 2/3); every entry is nonzero, so every
generic formula applies to it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from . import bivariate, multivariate
from .errors import PreconditionError
from .lorentz import PseudoRotation, SubgroupParam, is_generic, product_of
from .numerics import ScalarMode, as_rational, require_tol
from .reports import EvalReport, LatticeBox, scan

CANONICAL_PARAMS = (
    SubgroupParam("rotation", (1, 2), Fraction(1, 2)),
    SubgroupParam("boost", (2, 3), Fraction(2)),
    SubgroupParam("rotation", (1, 2), Fraction(2, 3)),
)


def canonical_lambda() -> PseudoRotation:
    return product_of(CANONICAL_PARAMS, 2)


def canonical_system(beta=2, mode=ScalarMode.EXACT) -> bivariate.MeixnerSystem:
    return bivariate.MeixnerSystem(beta, canonical_lambda(), mode)


def _random_factor(rng: random.Random, d: int, gentle: bool = False) -> SubgroupParam:
    """One boost or rotation with small rational parameter (num, den <= 9).

    The gentle palette keeps boost parameters in (1, 2] and |s| <= 1 so
    the weight parameters of short products stay well inside the unit
    simplex; adaptively truncated sums over such matrices settle quickly.
    """
    kinds = ["boost"] if d == 1 else ["boost", "rotation"]
    kind = rng.choice(kinds)
    if kind == "boost":
        axis = rng.randint(1, d)
        if gentle:
            num = rng.randint(2, 5)
            return SubgroupParam("boost", (axis, d + 1), Fraction(num, num - 1))
        num = rng.randint(2, 9)
        den = rng.choice([q for q in range(1, 10) if q != num])
        return SubgroupParam("boost", (axis, d + 1), Fraction(num, den))
    i = rng.randint(1, d - 1)
    j = rng.randint(i + 1, d)
    if gentle:
        den = rng.randint(2, 9)
        num = rng.randint(1, den - 1)
    else:
        num = rng.randint(1, 9)
        den = rng.randint(1, 9)
    sign = rng.choice([1, -1])
    return SubgroupParam("rotation", (i, j), Fraction(sign * num, den))


def _dense_enough(lam: PseudoRotation, d: int) -> bool:
    # d = 2 additionally needs nonzero interior entries so the
    # nearest-neighbour difference combination is defined.
    if d == 2:
        return all(x != 0 for row in lam.entries for x in row)
    return is_generic(lam)


def random_matrix(
    seed: int, d: int = 2, num_factors: int = 4, gentle: bool = False
) -> PseudoRotation:
    """Deterministic generic product of boosts and rotations."""
    if d < 1:
        raise ValueError(f"--d must be at least 1, got {d}")
    if num_factors < 1:
        raise ValueError(f"need at least one factor, got {num_factors}")
    rng = random.Random(seed)
    for _ in range(1000):
        params = [_random_factor(rng, d, gentle) for _ in range(num_factors)]
        lam = product_of(params, d)
        if _dense_enough(lam, d):
            return lam
    raise RuntimeError(f"no generic product found for seed {seed}")  # pragma: no cover


def random_system(seed: int, d: int = 2, beta=2, num_factors: int = 4, mode=ScalarMode.EXACT):
    """Seeded random system; same seed always yields the same matrix."""
    lam = random_matrix(seed, d, num_factors)
    if d == 2:
        return bivariate.MeixnerSystem(beta, lam, mode)
    return multivariate.MeixnerSystemD(beta, lam, mode)


# ---------------------------------------------------------------------------
# suite configuration and runners


@dataclass
class SuiteConfig:
    """Everything a named suite needs; the CLI builds one from flags."""

    suite: str
    d: int = 2
    beta: Fraction = Fraction(2)
    matrix: Optional[PseudoRotation] = None
    subgroup: Optional[List[SubgroupParam]] = None
    seed: Optional[int] = None
    factors: int = 4
    box: Optional[LatticeBox] = None
    mode: ScalarMode = ScalarMode.EXACT
    tol: Optional[float] = None
    degree_max: Optional[int] = None
    coord_max: Optional[int] = None
    tuples: int = 10

    def __post_init__(self):
        self.beta = as_rational(self.beta)
        self.mode = ScalarMode(self.mode)
        if self.mode is ScalarMode.FLOAT and self.tol is None:
            raise PreconditionError("float mode requires --tol")


DEFAULT_BOX = LatticeBox(max_i=5, max_k=5, max_m=4, max_n=4)


def _resolve_lambda(config: SuiteConfig) -> PseudoRotation:
    if config.matrix is not None:
        return config.matrix
    if config.subgroup:
        return product_of(config.subgroup, config.d)
    seed = config.seed if config.seed is not None else 0
    if config.seed is None and config.d == 2:
        return canonical_lambda()
    return random_matrix(seed, config.d, config.factors)


def _bivariate_system(config: SuiteConfig, mode: ScalarMode) -> bivariate.MeixnerSystem:
    return bivariate.MeixnerSystem(config.beta, _resolve_lambda(config), mode)


def suite_routes(config: SuiteConfig) -> List[EvalReport]:
    """Exact agreement of the raising, generating-function, and
    hypergeometric routes over the box."""
    sys2 = _bivariate_system(config, ScalarMode.EXACT)
    box = config.box or DEFAULT_BOX

    def residuals(cell):
        ref = bivariate.monic_eval_gf(sys2, *cell)
        for route in (bivariate.monic_eval_raising, bivariate.monic_eval_hyp):
            yield (*cell, route.__name__), route(sys2, *cell) - ref

    max_disc, counter = scan(box.cells(), residuals)
    return [
        EvalReport(
            identity="route-equivalence",
            box=box,
            mode=ScalarMode.EXACT,
            max_abs_discrepancy=max_disc,
            counterexample=counter,
        )
    ]


def suite_identity(config: SuiteConfig) -> List[EvalReport]:
    """The exact checker the suite names: recurrence, difference, lowering or duality."""
    check = getattr(bivariate, f"check_{config.suite}")
    return [check(_bivariate_system(config, ScalarMode.EXACT), config.box or DEFAULT_BOX)]


def suite_orthogonality(config: SuiteConfig) -> List[EvalReport]:
    tol = config.tol if config.tol is not None else 1e-8
    box = config.box or LatticeBox(max_i=0, max_k=0, max_m=3, max_n=3)
    sysf = _bivariate_system(config, ScalarMode.FLOAT)
    return [bivariate.check_orthogonality(sysf, box, tol)]


def _expect_pattern(config: SuiteConfig, kinds: Sequence[str], what: str) -> List[SubgroupParam]:
    params = config.subgroup
    if params is None:
        raise PreconditionError(f"suite {config.suite} needs --subgroup with factors {what}")
    if tuple(p.kind for p in params) != tuple(kinds):
        raise PreconditionError(f"suite {config.suite} needs factors {what}")
    return list(params)


def suite_factorization(config: SuiteConfig) -> List[EvalReport]:
    """Closed product form against the oracle for a boost(2,3) boost(1,3) matrix."""
    if config.subgroup is None:
        config.subgroup = [
            SubgroupParam("boost", (2, 3), Fraction(2)),
            SubgroupParam("boost", (1, 3), Fraction(3)),
        ]
    psi, xi = _expect_pattern(config, ("boost", "boost"), "boost:2,3:T boost:1,3:T")
    if psi.plane != (2, 3) or xi.plane != (1, 3):
        raise PreconditionError("factorization expects planes (2,3) then (1,3)")
    lam = product_of(config.subgroup, 2)
    sys2 = bivariate.MeixnerSystem(config.beta, lam, ScalarMode.EXACT)
    box = config.box or DEFAULT_BOX
    max_disc, counter = scan(
        box.cells(),
        lambda cell: [(
            cell,
            bivariate.factorized_eval(config.beta, xi.value, psi.value, *cell)
            - bivariate.monic_eval_gf(sys2, *cell),
        )],
    )
    return [
        EvalReport(
            identity="factorization",
            box=box,
            mode=ScalarMode.EXACT,
            max_abs_discrepancy=max_disc,
            counterexample=counter,
        )
    ]


def suite_dompe3(config: SuiteConfig) -> List[EvalReport]:
    """General single-sum closed form against the oracle for a
    rotation boost(2,3) rotation matrix."""
    if config.subgroup is None:
        config.subgroup = list(CANONICAL_PARAMS)
    chi, psi, theta = _expect_pattern(
        config, ("rotation", "boost", "rotation"), "rotation boost:2,3 rotation"
    )
    if psi.plane != (2, 3):
        raise PreconditionError("the middle boost must act in the (2,3) plane")
    lam = product_of(config.subgroup, 2)
    sys2 = bivariate.MeixnerSystem(config.beta, lam, ScalarMode.EXACT)
    box = config.box or LatticeBox(max_i=4, max_k=4, max_m=3, max_n=3)
    max_disc, counter = scan(
        box.cells(),
        lambda cell: [(
            cell,
            bivariate.general_sum_eval(config.beta, chi.value, psi.value, theta.value, *cell)
            - bivariate.monic_eval_gf(sys2, *cell),
        )],
    )
    return [
        EvalReport(
            identity="general-closed-form",
            box=box,
            mode=ScalarMode.EXACT,
            max_abs_discrepancy=max_disc,
            counterexample=counter,
        )
    ]


def addition_tuples(seed: int, count: int = 10):
    """Deterministic (A, B, i, k, m, n) samples for the addition suite."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a_seed = rng.randint(0, 2**31)
        b_seed = rng.randint(0, 2**31)
        A = random_matrix(a_seed, 2, 3, gentle=True)
        B = random_matrix(b_seed, 2, 3, gentle=True)
        point = tuple(rng.randint(0, 2) for _ in range(4))
        out.append((A, B) + point)
    return out


def suite_addition(config: SuiteConfig) -> List[EvalReport]:
    if config.tuples < 1:
        raise ValueError(f"--tuples must be at least 1, got {config.tuples}")
    tol = config.tol if config.tol is not None else 1e-8
    seed = config.seed if config.seed is not None else 2024
    max_disc = 0.0
    counter = None
    for idx, (A, B, i, k, m, n) in enumerate(addition_tuples(seed, config.tuples)):
        rep = bivariate.check_addition(A, B, config.beta, i, k, m, n, tol)
        disc = float(rep.max_abs_discrepancy)
        if disc > max_disc:
            max_disc = disc
        if not rep.passed and counter is None:
            counter = (idx, i, k, m, n)
    return [
        EvalReport(
            identity="addition",
            box={"tuples": config.tuples, "seed": seed},
            mode=ScalarMode.FLOAT,
            max_abs_discrepancy=max_disc,
            counterexample=counter,
            tol=tol,
        )
    ]


def hyperbolic_column_norm(beta, t, m: int, n: int, first_axis: bool, tol: float) -> float:
    """Adaptively truncated column norm of a one-parameter boost element."""
    require_tol(tol)
    fn = bivariate.hyperbolic_me_xi if first_axis else bivariate.hyperbolic_me_psi
    total = 0.0
    below = 0
    var = 0
    while var <= 10000:
        if first_axis:
            term = fn(beta, t, var, n, m, n) ** 2
        else:
            term = fn(beta, t, m, var, m, n) ** 2
        total += term
        below = below + 1 if term < tol / 100.0 else 0
        if below >= 3 and var > m + n:
            return total
        var += 1
    raise PreconditionError("hyperbolic column norm did not converge")  # pragma: no cover


def elliptic_block_deviation(beta, s, level: int) -> float:
    """Max deviation of the level block from an orthogonal matrix."""
    size = level + 1
    block = [
        [bivariate.elliptic_me(beta, s, i, level - i, m, level - m) for m in range(size)]
        for i in range(size)
    ]
    worst = 0.0
    for a in range(size):
        for b in range(size):
            acc = sum(block[a][c] * block[b][c] for c in range(size))
            worst = max(worst, abs(acc - (1.0 if a == b else 0.0)))
    return worst


def suite_subgroup_unitarity(config: SuiteConfig) -> List[EvalReport]:
    tol_hyp = config.tol if config.tol is not None else 1e-8
    tol_ell = 1e-10
    beta = config.beta
    t = Fraction(2)
    s = Fraction(1, 2)
    worst_hyp = 0.0
    for (m, n) in ((0, 0), (1, 0), (2, 1), (0, 3)):
        for first_axis in (True, False):
            norm = hyperbolic_column_norm(beta, t, m, n, first_axis, tol_hyp)
            worst_hyp = max(worst_hyp, abs(norm - 1.0))
    worst_ell = max(elliptic_block_deviation(beta, s, level) for level in range(5))
    return [
        EvalReport(
            identity="subgroup-unitarity-hyperbolic",
            box={"t": str(t), "degrees": "(0,0),(1,0),(2,1),(0,3)"},
            mode=ScalarMode.FLOAT,
            max_abs_discrepancy=worst_hyp,
            counterexample=None,
            tol=tol_hyp,
        ),
        EvalReport(
            identity="subgroup-unitarity-elliptic",
            box={"s": str(s), "levels": "0..4"},
            mode=ScalarMode.FLOAT,
            max_abs_discrepancy=worst_ell,
            counterexample=None,
            tol=tol_ell,
        ),
    ]


def suite_multivariate(config: SuiteConfig) -> List[EvalReport]:
    """Exact route agreement plus float orthogonality in d variables, on
    ``config.matrix`` when given, else on a seeded d = 3 (or ``config.d``)
    matrix."""
    if config.matrix is not None:
        lam = config.matrix
        d = lam.d
        if config.d not in (2, d):
            raise ValueError(f"--d {config.d} disagrees with the d = {d} matrix")
    else:
        d = config.d if config.d != 2 else 3
        seed = config.seed if config.seed is not None else 31
        lam = random_matrix(seed, d, max(config.factors, 5))
    sys_exact = multivariate.MeixnerSystemD(config.beta, lam, ScalarMode.EXACT)
    degree_max = config.degree_max if config.degree_max is not None else 3
    coord_max = config.coord_max if config.coord_max is not None else 3

    degrees = [
        n
        for total in range(degree_max + 1)
        for n in sorted(multivariate._simplex_lattice(degree_max, d))
        if sum(n) == total
    ]
    points = [
        x
        for x in sorted(multivariate._simplex_lattice(coord_max * d, d))
        if max(x) <= coord_max
    ]
    max_disc, counter = scan(
        itertools.product(degrees, points),
        lambda cell: [(
            cell,
            multivariate.monic_eval_raising_d(sys_exact, *cell)
            - multivariate.monic_eval_gf_d(sys_exact, *cell),
        )],
    )
    exact_report = EvalReport(
        identity="multivariate-route-equivalence",
        box={"d": d, "max_total_degree": degree_max, "coord_max": coord_max},
        mode=ScalarMode.EXACT,
        max_abs_discrepancy=max_disc,
        counterexample=counter,
    )
    tol = config.tol if config.tol is not None else 1e-7
    sys_float = multivariate.MeixnerSystemD(config.beta, lam, ScalarMode.FLOAT)
    float_report = multivariate.check_orthogonality_d(sys_float, min(degree_max, 2), tol)
    return [exact_report, float_report]


SUITES = {
    "orthogonality": suite_orthogonality,
    "recurrence": suite_identity,
    "difference": suite_identity,
    "lowering": suite_identity,
    "duality": suite_identity,
    "routes": suite_routes,
    "factorization": suite_factorization,
    "dompe3": suite_dompe3,
    "addition": suite_addition,
    "subgroup-unitarity": suite_subgroup_unitarity,
    "multivariate": suite_multivariate,
}


def run_suite(config: SuiteConfig) -> List[EvalReport]:
    try:
        runner = SUITES[config.suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {config.suite!r}; choose from {sorted(SUITES)}"
        ) from None
    return runner(config)
