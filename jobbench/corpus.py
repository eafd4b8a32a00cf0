"""Seeded job corpora for the three benchmark workloads.

Every job is built so that its answer is known from the construction, not
from running regulus:

* Points are triangular systems whose residue field is a tower of square
  roots.  A *chain* adjoins t1^2 = c, t2^2 = t1, t3^2 = t2, ... (with
  ti = xi - si for small shifts si), so the field is K(c^(1/2^m)).  Over QQ
  t^(2^m) - c is Eisenstein for a prime c.  Over GF(p) it is irreducible
  when c is a primitive root mod p and 4 divides p - 1 (Capelli), which
  holds for p = 5, 13, 101 and the radicands below.  A *biquadratic*
  adjoins square roots of distinct primes (QQ only).  Degree-1 levels
  xi - h(earlier) may sit between the quadratic ones.
* Relations are ideal members built from rows with a chosen anchor
  variable i:
    - "lin":  c*g_i + sum_{j<i} h_j*g_j (+ p*w over ZZ), with h_j in the
      variables up to x_i and of x_i-degree below deg g_i;
    - "sq":   c*g_i^2, whose derivative row vanishes;
    - "p":    g_i^2 + p*c (over ZZ only), which contributes only to the
      extra column.
  Anchors are distinct, so the derivative matrix is block triangular with
  constant diagonal on the "lin" anchors: its rank is the number of "lin"
  rows.  Each row is monic in its anchor with coefficients in earlier
  variables, so the quotient is integral over the unanchored variables and
  the variety has dimension n - r (n + 1 - r over ZZ) at the point and
  globally.  The rows are then mixed by a unimodular integer matrix, which
  keeps the ideal and makes every derivative entry a general tower
  element.

So rank, dimension, regularity (no "sq" row), solvability of the ramified
base-change system (no "p" row) and the cotangent dimension are all
predicted here and checked against the reports.

Job cost is bounded by structure only: variable count, number of rows,
multiplier degree and tower degree.  Nothing is timed or rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARS = ("x", "y", "z", "w", "u")
QQ_RADICANDS = (2, 3, 5, 7, 11)
# primitive roots that are also prime, so the same chain is irreducible
# over QQ (Eisenstein) and modulo the prime
CHAIN_RADICANDS = {5: (2, 3), 13: (2, 7, 11), 101: (2, 3, 7, 11)}

# the README number-ring fixture; its pretty report is printed in README.md
NUMBER_RING_JOB = """\
# order of Z[x]/(x^3 + x + 3) at the prime above 3
[ring]
vars = x
base = ZZ
relations = x^3 + x + 3

[point]
prime = 3
generators = x^2 + 1

[task]
kind = check
"""

# README.md prints this report (pretty) for NUMBER_RING_JOB; this is its
# compact form, the bytes regulus must write to stdout
NUMBER_RING_REPORT = (
    '{"task":"check","ring":{"base":"ZZ","vars":["x"],"relations":["x^3 + x + 3"]},'
    '"point":{"prime":3,"generators":["x^2 + 1"]},"residue_field":"GF(3)[a]/(a^2+1)",'
    '"jacobian":[["a"]],"extra_column":["1"],"rank":1,"dimension":1,'
    '"dimension_provenance":"oracle-global-dimension","regular":true,"warnings":'
    '["dimension defaulted to the variety\'s global ideal dimension; if the component '
    'through the point has smaller dimension, supply dim to override"]}\n'
)


@dataclass
class JobSpec:
    name: str
    kind: str           # the task kind
    text: str           # the job file
    expect: dict        # exit code and verdict predicted by the construction
    oracle: bool = False  # cross-check the rank against cotangent_dimension
    fiber_points: int = 0


# ---- integer polynomials as {exponent tuple: coefficient} -------------


def _var(n, i):
    return {tuple(1 if k == i else 0 for k in range(n)): 1}


def _const(n, c):
    return {(0,) * n: c} if c else {}


def _add(*polys):
    out = {}
    for f in polys:
        for e, c in f.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _scale(f, c):
    return {e: c * v for e, v in f.items() if c * v}


def _mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _reduce(f, modulus):
    """Coefficients into the symmetric range mod p (GF(p) jobs only)."""
    if modulus is None:
        return f
    half = modulus // 2
    out = {}
    for e, c in f.items():
        c %= modulus
        if c > half:
            c -= modulus
        if c:
            out[e] = c
    return out


def poly_text(f, names):
    if not f:
        return "0"
    items = sorted(f.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    out = []
    for k, (e, c) in enumerate(items):
        mono = "*".join(
            v if p == 1 else "%s^%d" % (v, p) for v, p in zip(names, e) if p
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else ("%d*%s" % (mag, mono) if mono else str(mag))
        if k == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _nonzero(rng, lo, hi, modulus=None):
    while True:
        c = rng.randint(lo, hi)
        if c and (modulus is None or c % modulus):
            return c


def _random_poly(rng, n, allowed, max_deg, caps, terms, modulus=None):
    """Random polynomial with ``terms`` monomials in the variables
    ``allowed``, each of degree ``max_deg`` where the per-variable exponent
    caps allow it.  Fixed degrees keep the cost of jobs in one stratum
    close together."""
    f = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(max_deg):
            room = [i for i in allowed if e[i] + 1 < caps.get(i, max_deg + 1)]
            if not room:
                break
            e[rng.choice(room)] += 1
        f = _add(f, {tuple(e): _nonzero(rng, -3, 3, modulus)})
    return f


# ---- points -----------------------------------------------------------


def make_point(rng, n, shape, radicand, modulus=None):
    """Triangular generators for a point whose residue field is a chain
    ("Q" levels continue the chain from t^2 = radicand) or a biquadratic
    ("B" levels adjoin the square root of a fresh prime, QQ only), with "L"
    levels linear.  ``modulus`` is p for GF(p) jobs.

    Returns (generators, level degrees)."""
    gens, degrees = [], []
    prev_q = None
    radicands = list(QQ_RADICANDS)
    rng.shuffle(radicands)
    for i, kind in enumerate(shape):
        shift = rng.choice((-2, -1, 1, 2))
        t = _add(_var(n, i), _const(n, -shift))
        if kind == "L":
            h = _random_poly(rng, n, list(range(i)), 2, {}, 2, modulus) if i else {}
            g = _add(t, _scale(h, -1))
            degrees.append(1)
        elif kind == "Q":
            if prev_q is None:
                inner = _const(n, radicand)
            else:
                j, sj = prev_q
                inner = _add(_var(n, j), _const(n, -sj))
            g = _add(_mul(t, t), _scale(inner, -1))
            prev_q = (i, shift)
            degrees.append(2)
        elif kind == "B":
            g = _add(_mul(t, t), _const(n, -radicands.pop()))
            degrees.append(2)
        else:
            raise ValueError(kind)
        gens.append(_reduce(g, modulus))
    return gens, degrees


def _unimodular(rng, r):
    """Integer matrix of determinant 1 with every entry nonzero: L*U with
    unit diagonals and +-1 off the diagonal, drawn again while an entry
    cancels to zero, then rows shuffled.  Dense mixing keeps the shape of
    the relations, and so the cost of a job, the same across draws."""
    while True:
        low = [[1 if i == j else (rng.choice((-1, 1)) if j < i else 0) for j in range(r)] for i in range(r)]
        up = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(r)] for i in range(r)]
        prod = [[sum(low[i][k] * up[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
        if all(all(row) for row in prod):
            rng.shuffle(prod)
            return prod


def make_relations(rng, n, gens, degrees, rows, mult_deg, mult_terms, prime=None, modulus=None):
    """Relations from (kind, anchor) rows, mixed by a unimodular matrix."""
    plain = []
    for kind, i in rows:
        g = gens[i]
        if kind == "lin":
            f = _scale(g, _nonzero(rng, 1, 4, prime or modulus))
            for j in range(i):
                caps = {i: degrees[i]}
                h = _random_poly(rng, n, list(range(i + 1)), mult_deg, caps, mult_terms, modulus)
                f = _add(f, _mul(h, gens[j]))
            if prime is not None:
                w = _random_poly(rng, n, list(range(n)), 1, {}, 2)
                f = _add(f, _scale(w, prime))
        elif kind == "sq":
            f = _scale(_mul(g, g), _nonzero(rng, 1, 4, prime or modulus))
        elif kind == "p":
            f = _add(_mul(g, g), _const(n, prime * _nonzero(rng, 1, prime - 1, prime)))
        else:
            raise ValueError(kind)
        plain.append(f)
    mix = _unimodular(rng, len(plain))
    return [
        _reduce(_add(*(_scale(f, a) for f, a in zip(plain, row))), modulus)
        for row in mix
    ]


# ---- job text ---------------------------------------------------------


def job_text(title, n, base, relations, gens, prime, task_lines):
    names = VARS[:n]
    lines = ["# " + title, "[ring]", "vars = " + ", ".join(names), "base = " + base]
    lines += ["relations = " + poly_text(f, names) for f in relations]
    lines += ["", "[point]"]
    if prime is not None:
        lines.append("prime = %d" % prime)
    lines.append("generators = " + ", ".join(poly_text(g, names) for g in gens))
    lines += ["", "[task]"] + task_lines
    return "\n".join(lines) + "\n"


def _expect_ranks(rows, n, arithmetic):
    lin = sum(1 for k, _ in rows if k == "lin")
    has_p = any(k == "p" for k, _ in rows)
    has_sq = any(k == "sq" for k, _ in rows)
    rank = lin + (1 if has_p else 0)
    dim = (n + 1 if arithmetic else n) - len(rows)
    return rank, dim, not has_sq, not has_p


def _rows(n, lin, sq=0, p=0):
    """Rows on distinct anchors, the trailing variables: "sq" and "p" rows
    first, then the "lin" rows, so every "lin" row has earlier generators
    to multiply.  A fixed layout keeps the cost of a stratum's jobs close
    together."""
    kinds = ["sq"] * sq + ["p"] * p + ["lin"] * lin
    return list(zip(kinds, range(n - len(kinds), n)))


def point_job(rng, name, *, n, shape, base, kind, rows, mult_deg=2, mult_terms=2,
              prime=None, ramified=None, supply_dim=True, oracle=False):
    """One check / base-change / oracle-crosscheck job with its expected
    verdict; ``rows`` is (lin, sq, p), the number of rows of each kind."""
    arithmetic = base == "ZZ"
    modulus = int(base[3:-1]) if base.startswith("GF(") else None
    field_p = prime if arithmetic else modulus
    radicand = rng.choice(CHAIN_RADICANDS[field_p] if field_p else QQ_RADICANDS)
    gens, degrees = make_point(rng, n, shape, radicand, modulus)
    rows = _rows(n, *rows)
    rels = make_relations(rng, n, gens, degrees, rows, mult_deg, mult_terms,
                          prime if arithmetic else None, modulus)
    rank, dim, regular, solvable = _expect_ranks(rows, n, arithmetic)
    task = ["kind = " + kind]
    if ramified is not None:
        task.append("ramified = %s" % ("true" if ramified else "false"))
    if supply_dim:
        task.append("dim = %d" % dim)
    title = "%s: %s n=%d levels=%s rows=%s" % (
        name, base if not arithmetic else "ZZ at %d" % prime, n, shape,
        ",".join("%s@%s" % (k, VARS[i]) for k, i in rows),
    )
    expect = {"exit": 0, "rank": rank, "dimension": dim, "regular": regular,
              "supplied_dim": supply_dim}
    if kind == "base-change":
        expect["solvable"] = solvable if ramified else None
        expect["fiber_regular"] = solvable if ramified else True
    if kind == "oracle-crosscheck":
        expect["cotangent"] = (n + 1 if arithmetic else n) - rank
    text = job_text(title, n, base, rels, gens, prime if arithmetic else None, task)
    return JobSpec(name, kind, text, expect, oracle=oracle)


def theorem_f_job(rng, name, *, prime, quad_x):
    """theorem-f on the graph X: y = psi(x), z = phi(x, y) over ZZ (plus
    multiples of p), at a point above p and three fiber points over GF(p).

    X is smooth over ZZ, so every fiber point is regular and the ramified
    base change keeps regularity.  The relations are monic in y and z, so
    the fiber has dimension 1 and X has dimension 2."""
    n = 3
    psi = _random_poly(rng, n, [0], 2, {}, 2)
    phi = _random_poly(rng, n, [0, 1], 2, {}, 3)
    f_y = _add(_var(n, 1), _scale(psi, -1))
    f_z = _add(_var(n, 2), _scale(phi, -1))
    plain = [
        _add(f_y, _scale(_random_poly(rng, n, [0, 1, 2], 1, {}, 2), prime)),
        _add(f_z, _scale(_random_poly(rng, n, [0, 1, 2], 1, {}, 2), prime)),
    ]
    mix = _unimodular(rng, 2)
    rels = [_add(*(_scale(f, a) for f, a in zip(plain, row))) for row in mix]
    # the point above p: x^2 - c (c a non-residue) or x - a, then the graph
    if quad_x:
        c = rng.choice(CHAIN_RADICANDS[prime])
        gx = _add(_mul(_var(n, 0), _var(n, 0)), _const(n, -c))
    else:
        gx = _add(_var(n, 0), _const(n, -rng.randint(0, prime - 1)))
    gens = [gx, f_y, f_z]
    fibers = []
    for x0 in rng.sample(range(prime), 3):
        y0 = _eval(psi, (x0, 0, 0)) % prime
        z0 = _eval(phi, (x0, y0, 0)) % prime
        fibers.append(", ".join(
            poly_text(_reduce(_add(_var(n, k), _const(n, -v)), prime), VARS[:n])
            for k, v in enumerate((x0, y0, z0))
        ))
    task = ["kind = theorem-f", "ramified = true"] + ["fiber_points = " + fp for fp in fibers]
    title = "%s: theorem-f over ZZ at %d, graph of (psi, phi), 3 fiber points" % (name, prime)
    text = job_text(title, n, "ZZ", rels, gens, prime, task)
    expect = {"exit": 0, "rank": 2, "dimension": 2, "regular": True, "supplied_dim": False,
              "fiber_rank": 2, "fiber_dimension": 1, "fiber_regular": True,
              "regular_after_base_change": True}
    return JobSpec(name, "theorem-f", text, expect, oracle=True, fiber_points=3)


def _eval(f, point):
    total = 0
    for e, c in f.items():
        term = c
        for v, k in zip(point, e):
            term *= v ** k
        total += term
    return total


# ---- workloads --------------------------------------------------------

# One stratum per row.  A corpus is a number of cycles through a
# workload's strata, each job a fresh random draw, so every whole cycle has
# the workload's mix; the cycle count is sized so that a run at today's
# speed rarely repeats a job.  Stratum costs are grouped so that the median
# and the 90th percentile of job time fall inside a group of strata of
# similar cost, not in a gap between two groups, where they would move with
# the draw of jobs from one seed to the next.

TOWER_RANK = [
    dict(n=3, shape="QQQ", base="QQ", kind="check", rows=(2, 0, 0), oracle=True),
    dict(n=4, shape="BBBB", base="QQ", kind="check", rows=(3, 0, 0)),
    dict(n=4, shape="QQQQ", base="GF(101)", kind="check", rows=(2, 1, 0)),
    dict(n=3, shape="QQQ", base="ZZ", prime=101, kind="base-change", ramified=True, rows=(2, 0, 0), oracle=True),
    dict(n=5, shape="QQQQQ", base="QQ", kind="check", rows=(2, 0, 0)),
    dict(n=4, shape="QQQQ", base="ZZ", prime=101, kind="base-change", ramified=False, rows=(3, 0, 0), oracle=True),
    dict(n=4, shape="QQQQ", base="GF(101)", kind="check", rows=(3, 0, 0)),
    dict(n=3, shape="BBB", base="QQ", kind="check", rows=(1, 1, 0), oracle=True),
    dict(n=4, shape="QQQQ", base="ZZ", prime=101, kind="base-change", ramified=True, rows=(2, 0, 1), oracle=True),
    dict(n=5, shape="QQQQQ", base="GF(101)", kind="check", rows=(2, 0, 0)),
    dict(n=4, shape="QQQQ", base="QQ", kind="check", rows=(3, 0, 0)),
    dict(n=3, shape="QQQ", base="ZZ", prime=101, kind="base-change", ramified=True, rows=(1, 0, 1), oracle=True),
    # the costliest stratum twice, so that job_p90_ms falls inside it
    dict(n=5, shape="QQQQQ", base="QQ", kind="check", rows=(2, 0, 0)),
]

DIMENSION_DEFAULT = [
    dict(n=3, shape="QLQ", base="QQ", kind="check", supply_dim=False, oracle=True, rows=(2, 0, 0), mult_deg=1),
    dict(n=3, shape="QQL", base="GF(101)", kind="check", supply_dim=False, oracle=True, rows=(2, 0, 0), mult_terms=3),
    dict(n=3, shape="LQQ", base="ZZ", prime=101, kind="check", supply_dim=False, oracle=True, rows=(2, 0, 0), mult_terms=3),
    dict(n=3, shape="QQL", base="QQ", kind="check", supply_dim=False, oracle=True, rows=(3, 0, 0), mult_deg=1),
    dict(job="theorem-f", prime=5, quad_x=True),
    dict(n=3, shape="QLQ", base="ZZ", prime=13, kind="check", supply_dim=False, oracle=True, rows=(3, 0, 0), mult_deg=1, mult_terms=3),
    dict(n=3, shape="QLL", base="GF(101)", kind="check", supply_dim=False, oracle=True, rows=(2, 1, 0), mult_deg=1, mult_terms=1),
    dict(job="theorem-f", prime=13, quad_x=False),
    dict(n=3, shape="QLL", base="QQ", kind="check", supply_dim=False, oracle=True, rows=(2, 1, 0), mult_deg=1, mult_terms=1),
]

ORACLE_CROSSCHECK = [
    dict(n=2, shape="QQ", base="QQ", kind="oracle-crosscheck", rows=(1, 0, 0)),
    dict(n=3, shape="QQQ", base="GF(101)", kind="oracle-crosscheck", rows=(1, 0, 0), mult_deg=1),
    dict(n=4, shape="QQQQ", base="ZZ", prime=5, kind="oracle-crosscheck", rows=(2, 0, 0)),
    dict(n=3, shape="QQQ", base="QQ", kind="oracle-crosscheck", rows=(1, 0, 0), mult_deg=1),
    dict(n=2, shape="QQ", base="GF(101)", kind="oracle-crosscheck", rows=(1, 1, 0)),
    dict(n=4, shape="QQQQ", base="ZZ", prime=13, kind="oracle-crosscheck", rows=(1, 1, 0)),
    dict(n=3, shape="QQQ", base="GF(101)", kind="oracle-crosscheck", rows=(1, 1, 0), mult_deg=1),
    dict(n=3, shape="QQL", base="ZZ", prime=13, kind="oracle-crosscheck", rows=(1, 0, 1)),
    # three strata of close cost in the middle of the range, so that
    # job_p50_ms falls inside them and not among the field strata, whose
    # Groebner cost varies several-fold from one job to the next
    dict(n=3, shape="QQQ", base="ZZ", prime=5, kind="oracle-crosscheck", rows=(2, 0, 0)),
    dict(n=3, shape="QQQ", base="ZZ", prime=13, kind="oracle-crosscheck", rows=(1, 1, 0)),
    dict(n=3, shape="QQQ", base="ZZ", prime=13, kind="oracle-crosscheck", rows=(2, 0, 0)),
]


def build_job(rng, name, stratum):
    stratum = dict(stratum)
    if stratum.pop("job", None) == "theorem-f":
        return theorem_f_job(rng, name, **stratum)
    return point_job(rng, name, **stratum)


WORKLOADS = {
    "tower-rank": (
        "dim supplied, 3-5 variables, towers of degree 8-32: tower arithmetic, "
        "rank and solve with no Groebner call",
        TOWER_RANK,
        20,
    ),
    "dimension-default": (
        "no dim, 3 variables, residue degree 1-4, plus 3-fiber-point theorem-f: "
        "the Groebner dimension supplier dominates",
        DIMENSION_DEFAULT,
        40,
    ),
    "oracle-crosscheck": (
        "oracle-crosscheck with dim: Groebner on zero-dimensional I+m^2 over "
        "fields and the Z/p^2 sweep over ZZ",
        ORACLE_CROSSCHECK,
        32,
    ),
}


def generate(workload: str, seed: int):
    """The job specs of one workload's corpus; same seed, same bytes."""
    _, strata, cycles = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = []
    for _ in range(cycles):
        for stratum in strata:
            jobs.append(build_job(rng, "%s-%03d" % (workload, len(jobs)), stratum))
    if workload == "dimension-default":
        jobs.append(JobSpec(
            "%s-%03d" % (workload, len(jobs)), "check", NUMBER_RING_JOB,
            {"exit": 0, "report": NUMBER_RING_REPORT}, oracle=True,
        ))
    return jobs
