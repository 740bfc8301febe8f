"""System generation and the named verification suites behind the CLI.

The canonical parameter matrix is the dense rotation-boost-rotation
product with parameters (1/2, 2, 2/3); every entry is nonzero, so every
generic formula applies to it.  ``SUITES`` is the one record of what each
suite runs, in which mode and on which inputs; ``resolve_matrix`` is the
one rule that turns --matrix, --seed or --subgroup into a matrix.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import bivariate, multivariate
from .errors import MatrixValidationError, NonConvergence, PreconditionError
from .lorentz import PseudoRotation, SubgroupParam, is_generic, product_of
from .numerics import ScalarMode, as_rational, require_tol
from .reports import EvalReport, LatticeBox, exact_report, lattice

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


def _joins_all_axes(params: Sequence[SubgroupParam], d: int) -> bool:
    """Whether the factor planes connect all d + 1 axes.

    Each factor mixes only the two axes of its plane, so a product whose
    planes leave an axis apart from the last one is block diagonal and
    keeps a zero in its last row and column.
    """
    root = list(range(d + 2))  # union-find over the axes 1..d+1

    def find(axis):
        while root[axis] != axis:
            axis = root[axis]
        return axis

    for param in params:
        i, j = param.plane
        root[find(i)] = find(j)
    return len({find(axis) for axis in range(1, d + 2)}) == 1


# factors of a --seed product when --factors is not given
DEFAULT_FACTORS = 4


def random_matrix(
    seed: int, d: int = 2, num_factors: int = DEFAULT_FACTORS, gentle: bool = False
) -> PseudoRotation:
    """Deterministic generic product of boosts and rotations."""
    if d < 1:
        raise ValueError(f"--d must be at least 1, got {d}")
    # a tree joining the d + 1 axes has d edges, one per factor plane
    if num_factors < d:
        raise ValueError(f"--factors must be at least d = {d}, got {num_factors}")
    rng = random.Random(seed)
    for _ in range(1000):
        params = [_random_factor(rng, d, gentle) for _ in range(num_factors)]
        if not _joins_all_axes(params, d):
            continue  # not generic; skipping it saves the product
        lam = product_of(params, d)
        if _dense_enough(lam, d):
            return lam
    raise ValueError(
        f"no generic product of {num_factors} factors found for seed {seed}; raise --factors"
    )


def random_system(
    seed: int, d: int = 2, beta=2, num_factors: int = DEFAULT_FACTORS, mode=ScalarMode.EXACT
):
    """Seeded random system; same seed always yields the same matrix."""
    lam = random_matrix(seed, d, num_factors)
    if d == 2:
        return bivariate.MeixnerSystem(beta, lam, mode)
    return multivariate.MeixnerSystemD(beta, lam, mode)


# ---------------------------------------------------------------------------
# matrix sources and closed forms


MATRIX_SOURCES = ("matrix", "seed", "subgroup")


def resolve_matrix(
    d: int,
    matrix: Optional[PseudoRotation] = None,
    seed: Optional[int] = None,
    subgroup: Optional[Sequence[SubgroupParam]] = None,
    factors: Optional[int] = None,
    default_seed: Optional[int] = None,
) -> PseudoRotation:
    """The d-variable matrix named by at most one of --matrix, --seed and
    --subgroup.

    With none of them it is the canonical matrix when d = 2 and no
    ``default_seed`` is given, else the product of at least 5 and at
    least d factors drawn from ``default_seed`` (0 when not given).  Only a
    drawn matrix reads ``factors`` (--factors, ``DEFAULT_FACTORS`` when not
    given); any other rejects it.
    """
    if sum(source is not None for source in (matrix, seed, subgroup)) > 1:
        raise MatrixValidationError("give at most one of --matrix, --seed, --subgroup")
    if matrix is not None:
        if matrix.d != d:
            raise MatrixValidationError(f"--matrix has d = {matrix.d}, but the run is at --d {d}")
        check_reads("a matrix given by --matrix", (), factors=factors)
        return matrix
    if subgroup is not None:
        check_reads("a matrix given by --subgroup", (), factors=factors)
        return product_of(subgroup, d)
    if seed is None and default_seed is None and d == 2:
        check_reads("the canonical matrix", (), factors=factors)
        return canonical_lambda()
    if factors is None:
        factors = DEFAULT_FACTORS
    if seed is not None:
        return random_matrix(seed, d, factors)
    return random_matrix(default_seed or 0, d, max(factors, 5, d))


def check_reads(who: str, reads: Sequence[str], **given):
    """Reject a flag given to ``who`` (a keyword whose value is not None)
    that it does not read."""
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"{who} does not read --{name.replace('_', '-')}")


# factor patterns of the closed forms: (kind, plane), with plane None where
# any plane is allowed
TRATNIK_PATTERN = (("boost", (2, 3)), ("boost", (1, 3)))
DOMPE3_PATTERN = (("rotation", None), ("boost", (2, 3)), ("rotation", None))


def _expect_pattern(route: str, params, pattern) -> List[SubgroupParam]:
    shape = [(p.kind, p.plane if plane else None) for p, (_, plane) in zip(params or (), pattern)]
    if params is None or len(params) != len(pattern) or shape != list(pattern):
        spec = " ".join(
            f"{kind}:{'%d,%d' % plane if plane else 'i,j'}:value" for kind, plane in pattern
        )
        raise PreconditionError(f"the {route} closed form needs --subgroup '{spec}'")
    return list(params)


def closed_form(route: str, beta, subgroup) -> Callable[..., Fraction]:
    """The closed form ``route`` for these factors as a function of
    (m, n, i, k): "tratnik", the product form of boost(2,3) boost(1,3), or
    "dompe3", the single sum of rotation boost(2,3) rotation.  beta must be
    positive, as for a system."""
    beta = as_rational(beta)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if route == "tratnik":
        psi, xi = _expect_pattern(route, subgroup, TRATNIK_PATTERN)
        return functools.partial(bivariate.factorized_eval, beta, xi.value, psi.value)
    chi, psi, theta = _expect_pattern(route, subgroup, DOMPE3_PATTERN)
    return functools.partial(
        bivariate.general_sum_eval, beta, chi.value, psi.value, theta.value
    )


# ---------------------------------------------------------------------------
# suite configuration and runners


@dataclass
class SuiteConfig:
    """Everything a named suite reads; the CLI builds one from flags.

    ``d`` and ``mode`` left as None take the suite's own; ``run_suite``
    rejects what the suite's entry in ``SUITES`` does not allow.
    """

    suite: str
    d: Optional[int] = None
    beta: Fraction = Fraction(2)
    matrix: Optional[PseudoRotation] = None
    subgroup: Optional[List[SubgroupParam]] = None
    seed: Optional[int] = None
    factors: Optional[int] = None
    box: Optional[LatticeBox] = None
    mode: Optional[ScalarMode] = None
    tol: Optional[float] = None
    degree_max: Optional[int] = None
    coord_max: Optional[int] = None
    tuples: Optional[int] = None

    def __post_init__(self):
        self.beta = as_rational(self.beta)
        if self.mode is not None:
            self.mode = ScalarMode(self.mode)


DEFAULT_BOX = LatticeBox(max_i=5, max_k=5, max_m=4, max_n=4)


def _bivariate_system(config: SuiteConfig, mode: ScalarMode) -> bivariate.MeixnerSystem:
    lam = resolve_matrix(2, config.matrix, config.seed, config.subgroup, config.factors)
    return bivariate.MeixnerSystem(config.beta, lam, mode)


def _oracle_report(identity: str, box, cells, oracle, candidates) -> EvalReport:
    """Exact report on ``route(*cell) - oracle(*cell)`` over the cells for
    each (name, route) candidate; a counterexample is the cell, followed by
    the route's name when it has one."""

    def residuals(cell):
        ref = oracle(*cell)
        for name, route in candidates:
            yield (cell if name is None else (*cell, name)), route(*cell) - ref

    return exact_report(identity, box, cells, residuals)


def suite_routes(config: SuiteConfig) -> List[EvalReport]:
    """Exact agreement of the raising, generating-function, and
    hypergeometric routes over the box."""
    sys2 = _bivariate_system(config, ScalarMode.EXACT)
    box = config.box or DEFAULT_BOX
    candidates = [
        (route.__name__, functools.partial(route, sys2))
        for route in (bivariate.monic_eval_raising, bivariate.monic_eval_hyp)
    ]
    oracle = functools.partial(bivariate.monic_eval_gf, sys2)
    return [_oracle_report("route-equivalence", box, box.cells(), oracle, candidates)]


def suite_identity(config: SuiteConfig) -> List[EvalReport]:
    """The exact checker the suite names: recurrence, difference, lowering or duality."""
    check = getattr(bivariate, f"check_{config.suite}")
    return [check(_bivariate_system(config, ScalarMode.EXACT), config.box or DEFAULT_BOX)]


def suite_orthogonality(config: SuiteConfig) -> List[EvalReport]:
    tol = config.tol if config.tol is not None else 1e-8
    box = config.box or LatticeBox(max_i=0, max_k=0, max_m=3, max_n=3)
    sysf = _bivariate_system(config, ScalarMode.FLOAT)
    return [bivariate.check_orthogonality(sysf, box, tol)]


FACTORIZATION_PARAMS = (
    SubgroupParam("boost", (2, 3), Fraction(2)),
    SubgroupParam("boost", (1, 3), Fraction(3)),
)
# suite: (closed form, default factors, report identity, default box)
CLOSED_FORM_SUITES = {
    "factorization": ("tratnik", FACTORIZATION_PARAMS, "factorization", DEFAULT_BOX),
    "dompe3": ("dompe3", CANONICAL_PARAMS, "general-closed-form", LatticeBox(4, 4, 3, 3)),
}


def suite_closed_form(config: SuiteConfig) -> List[EvalReport]:
    """The suite's closed form against the generating-function oracle, on
    the --subgroup factors or else on the suite's default factors."""
    route, params, identity, box = CLOSED_FORM_SUITES[config.suite]
    if config.subgroup is not None:
        params = config.subgroup
    form = closed_form(route, config.beta, params)
    lam = resolve_matrix(2, subgroup=params)
    oracle = functools.partial(
        bivariate.monic_eval_gf, bivariate.MeixnerSystem(config.beta, lam, ScalarMode.EXACT)
    )
    box = config.box or box
    return [_oracle_report(identity, box, box.cells(), oracle, [(None, form)])]


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
    tuples = config.tuples if config.tuples is not None else 10
    if tuples < 1:
        raise ValueError(f"--tuples must be at least 1, got {tuples}")
    tol = config.tol if config.tol is not None else 1e-8
    seed = config.seed if config.seed is not None else 2024
    max_disc = 0.0
    counter = None
    for idx, (A, B, i, k, m, n) in enumerate(addition_tuples(seed, tuples)):
        rep = bivariate.check_addition(A, B, config.beta, i, k, m, n, tol)
        disc = float(rep.max_abs_discrepancy)
        if disc > max_disc:
            max_disc = disc
        if not rep.passed and counter is None:
            counter = (idx, i, k, m, n)
    box = {"tuples": tuples, "seed": seed}
    return [EvalReport("addition", box, ScalarMode.FLOAT, max_disc, counter, tol)]


def hyperbolic_column_norm(beta, t, m: int, n: int, first_axis: bool, tol: float) -> float:
    """Adaptively truncated column norm of a one-parameter boost element."""
    require_tol(tol)
    fn = bivariate.hyperbolic_me_xi if first_axis else bivariate.hyperbolic_me_psi
    cap = multivariate.SHELL_CAP
    total = 0.0
    below = 0
    for var in range(cap + 1):
        if first_axis:
            term = fn(beta, t, var, n, m, n) ** 2
        else:
            term = fn(beta, t, m, var, m, n) ** 2
        total += term
        below = below + 1 if term < tol / 100.0 else 0
        if below >= 3 and var > m + n:
            return total
    raise NonConvergence(f"hyperbolic column norm did not settle within {cap} terms")


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
    hyp_box = {"t": str(t), "degrees": "(0,0),(1,0),(2,1),(0,3)"}
    ell_box = {"s": str(s), "levels": "0..4"}
    return [
        EvalReport("subgroup-unitarity-hyperbolic", hyp_box, ScalarMode.FLOAT, worst_hyp,
                   None, tol_hyp),
        EvalReport("subgroup-unitarity-elliptic", ell_box, ScalarMode.FLOAT, worst_ell,
                   None, tol_ell),
    ]


def suite_multivariate(config: SuiteConfig) -> List[EvalReport]:
    """Exact route agreement plus float orthogonality in d variables.

    d is --d, else the d of --matrix, else 3; the default matrix is seed 31,
    and --seed draws as many factors as the default, at least 5 and at
    least d.
    """
    degree_max = config.degree_max if config.degree_max is not None else 3
    coord_max = config.coord_max if config.coord_max is not None else 3
    # a negative bound leaves no degree or no point to compare
    if degree_max < 0:
        raise ValueError(f"--degree-max must be non-negative, got {degree_max}")
    if coord_max < 0:
        raise ValueError(f"--coord-max must be non-negative, got {coord_max}")
    if config.d is not None:
        d = config.d
    else:
        d = config.matrix.d if config.matrix is not None else 3
    factors = config.factors
    if config.seed is not None:
        factors = max(DEFAULT_FACTORS if factors is None else factors, 5, d)
    lam = resolve_matrix(d, config.matrix, config.seed, config.subgroup, factors, default_seed=31)
    sys_exact = multivariate.MeixnerSystemD(config.beta, lam, ScalarMode.EXACT)

    degrees = list(multivariate._simplex_lattice(degree_max, d))
    points = lattice((coord_max,) * d)
    exact_report = _oracle_report(
        "multivariate-route-equivalence",
        {"d": d, "max_total_degree": degree_max, "coord_max": coord_max},
        itertools.product(degrees, points),
        functools.partial(multivariate.monic_eval_gf_d, sys_exact),
        [
            (name, functools.partial(getattr(multivariate, name), sys_exact))
            for name in ("monic_eval_raising_d", "monic_eval_hyp_d")
        ],
    )
    tol = config.tol if config.tol is not None else 1e-7
    sys_float = multivariate.MeixnerSystemD(config.beta, lam, ScalarMode.FLOAT)
    float_report = multivariate.check_orthogonality_d(sys_float, min(degree_max, 2), tol)
    return [exact_report, float_report]


@dataclass(frozen=True)
class Suite:
    """A suite's contract: its runner, the mode of its reports (None: exact
    and float both), the ``SuiteConfig`` flags it reads of ``FLAGS``, and
    the one d it runs at (None: any d >= 1)."""

    runner: Callable[[SuiteConfig], List[EvalReport]]
    mode: Optional[ScalarMode]
    reads: Tuple[str, ...]
    d: Optional[int] = 2


# the flags a run may leave unset; a suite must read every one it is given
FLAGS = (*MATRIX_SOURCES, "factors", "box", "tol", "tuples", "degree_max", "coord_max")
# a suite that resolves its matrix from these also reads --factors, which
# ``resolve_matrix`` accepts only for a drawn matrix
MATRIX_FLAGS = (*MATRIX_SOURCES, "factors")
MATRIX_AND_BOX = (*MATRIX_FLAGS, "box")
SUITES = {
    "orthogonality": Suite(suite_orthogonality, ScalarMode.FLOAT, (*MATRIX_AND_BOX, "tol")),
    "recurrence": Suite(suite_identity, ScalarMode.EXACT, MATRIX_AND_BOX),
    "difference": Suite(suite_identity, ScalarMode.EXACT, MATRIX_AND_BOX),
    "lowering": Suite(suite_identity, ScalarMode.EXACT, MATRIX_AND_BOX),
    "duality": Suite(suite_identity, ScalarMode.EXACT, MATRIX_AND_BOX),
    "routes": Suite(suite_routes, ScalarMode.EXACT, MATRIX_AND_BOX),
    "factorization": Suite(suite_closed_form, ScalarMode.EXACT, ("subgroup", "box")),
    "dompe3": Suite(suite_closed_form, ScalarMode.EXACT, ("subgroup", "box")),
    "addition": Suite(suite_addition, ScalarMode.FLOAT, ("seed", "tol", "tuples")),
    "subgroup-unitarity": Suite(suite_subgroup_unitarity, ScalarMode.FLOAT, ("tol",)),
    "multivariate": Suite(
        suite_multivariate, None, (*MATRIX_FLAGS, "tol", "degree_max", "coord_max"), d=None
    ),
}


def run_suite(config: SuiteConfig) -> List[EvalReport]:
    """Run the named suite once the config keeps the suite's contract."""
    try:
        suite = SUITES[config.suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {config.suite!r}; choose from {sorted(SUITES)}"
        ) from None
    who = f"suite {config.suite}"
    if config.mode is not None and suite.mode not in (None, config.mode):
        raise ValueError(
            f"{who} runs in {suite.mode.value} mode only; drop --mode {config.mode.value}"
        )
    check_reads(who, suite.reads, **{name: getattr(config, name) for name in FLAGS})
    if config.d is not None and (config.d < 1 or suite.d not in (None, config.d)):
        raise ValueError(f"{who} cannot run at --d {config.d}")
    return suite.runner(config)
