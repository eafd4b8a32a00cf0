"""Regularity criteria for closed points, and base-change verdicts.

One matrix and one check.  For a presented variety X and a triangular
point x, ``generalized_jacobian`` runs steps 1 and 2 and ``check_point``
step 3:

1. validate and divide: the point must match X, and each relation f_i is
   divided once through the triangular system, f_i = sum_j h_ij g_j + r_i.
   The relation vanishes at x when r_i = 0 (field base) or every
   coefficient of r_i is divisible by p (over ZZ, where r_i = p*w_i).  The
   generators' derivative matrix must be invertible at the point, so the g_i
   cut out m_x/m_x^2 independently; it is ranked unless the tower is proven
   a field, where it is triangular with separable derivatives on the diagonal.
2. reduce: the h_ij reduced into the residue field form the
   derivative-with-respect-to-generators matrix J, and the w_i form the
   extra column.
3. rank: regularity is rank J = n - dim (field base) or rank of the
   augmented matrix = n + 1 - dim (over ZZ at a prime).

Every computed matrix is re-checked against its defining property
(d f_i/d t_j)(x) = J * (d g_i/d t_j)(x) before it is used, so a division
bug cannot silently corrupt a verdict.  ``base_change_verdict`` and
``special_fiber_verdict`` answer the base-change questions from the same
check over ZZ.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    GeneratorsNotIndependent,
    InternalConsistencyError,
    InvalidPoint,
    OracleResourceError,
    PointNotOnVariety,
    PointNotRegular,
)
from .groebner import ideal_dimension
from .linalg import FieldMatrix
from .poly import (
    MultiPoly,
    TriangularPoint,
    _remainder_in_ideal,
    lift_int,
    partial_derivative,
    reduce_mod,
    triangular_divide,
)
from .record import FrozenRecord, Record
from .rings import ZZ, PrimeField
from .tower import ResidueTower, residue_field, tower_reduce

USER_SUPPLIED = "user-supplied"
ORACLE_GLOBAL = "oracle-global-dimension"

# The derivative identity forms r*n(n+1)/2 tower products for r relations
# in n variables, and the generator matrix's rank, run only on towers not
# proven a field, up to n^3.  The (r + n)*n^2 charge is kept as it was, so
# the same jobs are refused, until ROADMAP item 3 re-derives it: a job over
# the limit is refused before any division, and a job file before any
# polynomial is parsed.
MAX_RANK_WORK = 600_000


class PresentedVariety(FrozenRecord):
    """An affine variety given by relations in named variables over ZZ, QQ,
    or a prime field.  r = 0 (no relations) presents affine space."""

    def __init__(self, vars: tuple, ring: object, relations: tuple):
        self.__dict__.update(vars=tuple(vars), ring=ring, relations=tuple(relations))
        if not self.vars or len(set(self.vars)) != len(self.vars):
            raise ValueError("variables must be nonempty and distinct")
        for f in self.relations:
            if f.vars != self.vars or f.ring != self.ring:
                raise ValueError("relation disagrees with the declared ring or variables")

    @property
    def n(self):
        return len(self.vars)


class RegularityReport(Record):
    def __init__(
        self, tower: ResidueTower, jacobian: FieldMatrix, extra_column: list | None,
        rank: int, local_dimension: int, dimension_provenance: str, regular: bool,
    ):
        self.tower = tower
        self.jacobian = jacobian          # r x n, entries over the tower
        self.extra_column = extra_column  # arithmetic case: r entries, else None
        self.rank = rank                  # of the augmented matrix in the arithmetic case
        self.local_dimension = local_dimension
        self.dimension_provenance = dimension_provenance
        self.regular = regular


class BaseChangeVerdict(Record):
    def __init__(
        self, ramified: bool, system_solvable: bool | None, fiber_regular: bool,
        witness: list | None, report: RegularityReport,
    ):
        self.ramified = ramified
        self.system_solvable = system_solvable  # ramified case only
        self.fiber_regular = fiber_regular
        self.witness = witness
        self.report = report  # the upstairs check this verdict rests on


class SpecialFiberReport(Record):
    def __init__(
        self, ramified: bool, upstairs: RegularityReport, fiber: list,
        regular_after_base_change: bool,
    ):
        self.ramified = ramified
        self.upstairs = upstairs
        self.fiber = fiber  # (point, RegularityReport) pairs
        self.regular_after_base_change = regular_after_base_change


# ---- the derivative-with-respect-to-generators matrix -----------------


def check_rank_work(relations: int, n: int) -> None:
    """Refuse a job whose rank path would form more than MAX_RANK_WORK tower
    products: (relations + n)*n^2 for n variables."""
    work = (relations + n) * n**2
    if work > MAX_RANK_WORK:
        raise OracleResourceError(
            "the rank path forms up to %d tower products, above the limit of %d"
            % (work, MAX_RANK_WORK)
        )


def generalized_jacobian(X: PresentedVariety, point: TriangularPoint):
    """(J, extra): J is the r x n matrix of derivatives of the relations with
    respect to the point generators, over the residue tower ``J.field``;
    extra is the column of relation remainders divided by the prime over
    ZZ, and None over a field.

    The point is validated first: it must match X, every relation must
    vanish at it, and the generators must be independent there.  Every
    entry is re-checked against the defining identity."""
    if point.vars != X.vars:
        raise InvalidPoint(
            "point variables (%s) do not match the variety's (%s)"
            % (", ".join(point.vars), ", ".join(X.vars))
        )
    if point.ring != X.ring:
        raise InvalidPoint("point generators are not over the variety's base ring")
    n = X.n
    check_rank_work(len(X.relations), n)
    divisions = []
    for f in X.relations:
        quotients, rem = triangular_divide(f, point)
        if not _remainder_in_ideal(rem, point.prime):
            raise PointNotOnVariety("relation %s does not vanish at the point" % f)
        divisions.append((quotients, rem))
    tower = residue_field(point)
    gmat = [  # g_k involves x_1..x_k only, so G is lower triangular
        [tower_reduce(partial_derivative(g, j), tower) if j <= k else tower.zero() for j in range(n)]
        for k, g in enumerate(point.generators)
    ]
    if tower.proven < n and FieldMatrix(tower, gmat).rank() < n:
        raise GeneratorsNotIndependent(
            "the generators' derivative matrix is singular at the point, so "
            "they are dependent modulo the square of the ideal; choose "
            "different generators"
        )
    if tower.proven == n and any(gmat[k][k].is_zero() for k in range(n)):
        # each level is separable over the proven field below it
        raise InternalConsistencyError(
            "the generators' derivative matrix is singular over a proven residue field"
        )
    p = point.prime
    rows = []
    extra = None if p is None else []
    for f, (quotients, rem) in zip(X.relations, divisions):
        if p is not None:
            w = MultiPoly(ZZ, f.vars, {e: c // p for e, c in rem.terms.items()})
            extra.append(tower_reduce(w, tower))
        row = [tower_reduce(h, tower) for h in quotients]
        for j in range(n):
            lhs = tower_reduce(partial_derivative(f, j), tower)
            rhs = tower.zero()
            for k in range(j, n):
                rhs = rhs + row[k] * gmat[k][j]
            if lhs != rhs:
                raise InternalConsistencyError(
                    "derivative identity failed for relation %s at column %d"
                    % (f, j + 1)
                )
        rows.append(row)
    return FieldMatrix(tower, rows), extra


# ---- dimension supplier -----------------------------------------------


def default_dimension(X: PresentedVariety, point: TriangularPoint) -> int:
    """Global ideal dimension of the presented variety; over ZZ, one plus
    the dimension of the fiber ideal modulo the point's prime.

    The global dimension agrees with the local one at the point whenever
    the component through the point has maximal dimension; reports carry
    the provenance so a user override can correct the other cases."""
    p = point.prime
    rels = [f if p is None else reduce_mod(f, PrimeField(p)) for f in X.relations]
    rels = [f for f in rels if not f.is_zero()]
    return (p is not None) + (ideal_dimension(rels) if rels else X.n)


# ---- regularity checks ------------------------------------------------


def _check(X, point, dim, provenance=USER_SUPPLIED):
    """Rank J over a field base, or J with the extra column appended over
    ZZ, and compare the cotangent dimension with the local dimension (the
    default dimension when dim is None)."""
    jac, extra = generalized_jacobian(X, point)
    if extra is None:
        rank = jac.rank()
        cotangent = X.n - rank
    else:
        rank = FieldMatrix(jac.field, [row + [e] for row, e in zip(jac.rows, extra)]).rank()
        cotangent = X.n + 1 - rank
    if dim is None:
        dim, provenance = default_dimension(X, point), ORACLE_GLOBAL
    elif dim < 0:
        raise ValueError("a local dimension cannot be negative")
    if cotangent < dim:
        raise DimensionMismatch(
            "cotangent dimension %d is below the local dimension %d (%s)"
            % (cotangent, dim, provenance)
        )
    return RegularityReport(
        tower=jac.field,
        jacobian=jac,
        extra_column=extra,
        rank=rank,
        local_dimension=dim,
        dimension_provenance=provenance,
        regular=cotangent == dim,
    )


def check_point(
    X: PresentedVariety, point: TriangularPoint, dim_override: int | None = None
) -> RegularityReport:
    """Regularity at the point: over a field base, regular iff rank = n - dim;
    over ZZ at the point's prime, iff the augmented rank = n + 1 - dim."""
    return _check(X, point, dim_override)


# ---- base change ------------------------------------------------------


def base_change_verdict(
    X: PresentedVariety,
    point: TriangularPoint,
    ramified: bool,
    dim_override: int | None = None,
) -> BaseChangeVerdict:
    """Does regularity at the point survive base change to an extension of
    the integers at the prime?

    Unramified extensions always preserve it.  For a ramified extension the
    fiber point is regular exactly when J v = extra-column is solvable over
    the residue field; the verdict does not depend on which extension is
    taken, only on the ramified flag."""
    if point.prime is None:
        raise ValueError("base change needs a point with a prime")
    return _base_change(_check(X, point, dim_override), ramified)


def _base_change(report, ramified):
    if not report.regular:
        raise PointNotRegular(
            "base-change analysis is only defined at a regular point; this "
            "one is singular (rank %d, dimension %d)"
            % (report.rank, report.local_dimension)
        )
    if not ramified:
        return BaseChangeVerdict(
            ramified=False,
            system_solvable=None,
            fiber_regular=True,
            witness=None,
            report=report,
        )
    witness = report.jacobian.solve(report.extra_column)
    solvable = witness is not None
    return BaseChangeVerdict(
        ramified=True,
        system_solvable=solvable,
        fiber_regular=solvable,
        witness=witness,
        report=report,
    )


# ---- the special-fiber route ------------------------------------------


def special_fiber_verdict(
    X: PresentedVariety,
    point: TriangularPoint,
    fiber_points,
    ramified: bool,
    dim_override: int | None = None,
) -> SpecialFiberReport:
    """Decide base-change regularity through the special fiber.

    The variety must be regular at the supplied arithmetic point and at the
    lift of every fiber point.  Ramified case: regularity after base change
    over the audited locus holds iff the reduction modulo p is regular at
    every supplied fiber point; each fiber verdict is cross-checked against
    the direct solvability route at the lifted point and the two must agree.
    Unramified case: regularity is preserved outright, and fiber verdicts
    are reported for information only.

    The local dimension, supplied or defaulted, is computed once, at the
    arithmetic point.  Every lifted point shares X and p with it and takes
    the same dimension.  The fiber is a hypersurface section of the
    arithmetic model, so its dimension is the upstairs one minus one, with
    the same provenance."""
    if point.prime is None:
        raise ValueError("the special-fiber route needs a point with a prime")
    upstairs = _check(X, point, dim_override)
    if not upstairs.regular:
        raise PointNotRegular(
            "the special-fiber route assumes the variety is regular at the "
            "supplied point; this one is singular"
        )
    dim, provenance = upstairs.local_dimension, upstairs.dimension_provenance
    p = point.prime
    field = PrimeField(p)
    fiber_relations = tuple(reduce_mod(f, field) for f in X.relations)
    X_fiber = PresentedVariety(X.vars, field, fiber_relations)
    entries = []
    all_regular = True
    for fp in fiber_points:
        if fp.ring is not field:
            raise InvalidPoint(
                "fiber points must be given over GF(%d), the residue field of "
                "the prime" % p
            )
        freport = _check(X_fiber, fp, dim - 1, provenance)
        if ramified:
            lifted = TriangularPoint(
                tuple(lift_int(g) for g in fp.generators), prime=p
            )
            direct = _base_change(_check(X, lifted, dim, provenance), True)
            if direct.fiber_regular != freport.regular:
                raise InternalConsistencyError(
                    "fiber-route and solvability-route verdicts disagree at a "
                    "fiber point"
                )
        if not freport.regular:
            all_regular = False
        entries.append((fp, freport))
    return SpecialFiberReport(
        ramified=ramified,
        upstairs=upstairs,
        fiber=entries,
        regular_after_base_change=all_regular if ramified else True,
    )
