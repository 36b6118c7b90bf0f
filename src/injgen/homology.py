"""Projective resolutions, projective dimension, Tor, and perfectness checks.

Everything here is ungraded homological algebra over a finite dimensional
algebra; graded inputs are flattened to the trivial grading first (the
dimensions computed do not depend on the grading, and flattening makes
every kernel vector homogeneous, so span and quotient constructions never
complain).

Covers are by idempotent projectives: when the unit's support is a set of
orthogonal basis idempotents e_i along which the basis splits, each
generator m lying in M e_i is covered by e_i A, and the kernel of each
cover splits along the e_i, so every syzygy basis vector lies in one
syzygy e_i and the next generators are basis vectors again; without such
idempotents the set is {1} and the cover is free.  Ranks count
projective summands.  When the e_i are basis vectors and the other basis
vectors span a nilpotent ideal, that ideal is the radical J (coverings of
truncated polynomial rings, triangular rings, path algebras, tensor
rings of chains).  One record per algebra, found in one cached pass
(algebra._structure), holds both facts: the e_i with the corner of each
basis vector, and J or None.  Where J is known, the generators are a lifted
basis of M / M J, each cover is a projective cover, the resolutions are
minimal, and M is projective exactly when its cover has zero kernel.
Otherwise (group algebras, and algebras whose unit is not a sum of basis
idempotents) the generators are greedy and the resolutions need not be
minimal.  A cover with zero kernel still shows M projective; when the
kernel is nonzero, projectivity is decided by an A-linear retraction of
ker pi -> F with unknowns k_c in F e_i(c).

Each module caches its cover pi: F -> M and the kernel of pi, so one cover
serves both the next resolution step (the span of ker pi is the next
syzygy) and the projectivity test.  Module actions are applied to sparse
vectors throughout.
"""

from __future__ import annotations

import itertools

from .algebra import (AlgebraError, ConstructionError, GradedAlgebra,
                      GradedBimodule, GradedModule, ModuleHom, _act_by, _place,
                      _structure, _sum_cells, direct_sum, module_from_span,
                      regular_module, trivially_graded, zero_module)
from .constructions import CleftFunctors, MoritaContext, TensorTower, \
    ThetaData, TupleModule, morita_ring, tower_of
from .homs import find_isomorphism
from .linalg import (Span, _modulus, _nonzero, kernel_basis, rank,
                     right_inverse, solve_sparse)
from .tensors import tensor_over_algebra

DEFAULT_PD_CUTOFF = 24
DEFAULT_NIL_CUTOFF = 16
DEFAULT_DIM_LIMIT = 4096


class Verdict:
    """Three-valued outcome of a cutoff-bounded computation.

    kind 'finite' carries an exact projective dimension, 'index' an exact
    nilpotency index, 'atLeast' a verified lower bound (the true value is
    >= the payload; nothing above the cutoff was examined).
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        if kind not in ("finite", "atLeast", "index"):
            raise ValueError(f"bad verdict kind {kind!r}")
        self.kind = kind
        self.value = int(value)

    @classmethod
    def finite(cls, d):
        return cls("finite", d)

    @classmethod
    def at_least(cls, c):
        return cls("atLeast", c)

    @classmethod
    def index(cls, k):
        return cls("index", k)

    @property
    def is_finite(self):
        return self.kind == "finite"

    @property
    def is_conclusive(self):
        return self.kind != "atLeast"

    def to_json(self):
        return {self.kind: self.value}

    def __eq__(self, other):
        return (isinstance(other, Verdict) and self.kind == other.kind
                and self.value == other.value)

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        word = {"finite": "Finite", "atLeast": "AtLeast", "index": "Index"}[self.kind]
        return f"{word}({self.value})"


class CheckReport:
    """Outcome of a verification routine: ok is True, False, or None.

    None means inconclusive (some cutoff was hit before a decision);
    False means the asserted identity actually failed on the instance.
    """

    def __init__(self, name, ok, details=None):
        self.name = name
        self.ok = ok
        self.details = details or {}

    @property
    def passed(self):
        return self.ok is True

    def to_json(self):
        def enc(v):
            if isinstance(v, Verdict):
                return v.to_json()
            if isinstance(v, dict):
                return {str(k): enc(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v
        return {"check": self.name, "ok": self.ok, "details": enc(self.details)}

    def __repr__(self):
        state = {True: "ok", False: "FAILED", None: "inconclusive"}[self.ok]
        return f"CheckReport({self.name}: {state})"


# -- flattening --------------------------------------------------------------


def _flat_algebra(A: GradedAlgebra) -> GradedAlgebra:
    if A.group.is_trivial:
        return A
    if "flatalg" not in A._cache:
        A._cache["flatalg"] = trivially_graded(A)
    return A._cache["flatalg"]


def flatten_module(M: GradedModule) -> GradedModule:
    """The same module over the trivially graded algebra."""
    A = M.algebra
    flat = _flat_algebra(A)
    if flat is A:
        return M
    if "flat" not in M._cache:
        degs = [()] * M.dim
        M._cache["flat"] = GradedModule._trusted(flat, M.side, M.labels, degs, M.action)
    return M._cache["flat"]


# -- covers by idempotent projectives ----------------------------------------


def _projective(A: GradedAlgebra, side, summands):
    """(F, basis, tags) for F the direct sum of e_i A over i in summands
    (A e_i for left modules).

    Summand c has the basis elements b_j with e_i b_j = b_j, so basis[f] =
    (c, j) names F's basis vector f, and tags[f] = t says it lies in F e_t
    (e_t F for left modules).  With the unit alone F is A^r.  Cached on A,
    so equal covers share one module.
    """
    key = ("proj", side, summands)
    if key not in A._cache:
        _, left, right, _ = _structure(A)
        own, tag = (left, right) if side == "right" else (right, left)
        basis = [(c, j) for c, i in enumerate(summands)
                 for j in range(A.dim) if own[j] == i]
        coord = {b: f for f, b in enumerate(basis)}
        action = [[{coord[(c, k)]: x for k, x in (A.mult[j][e] if side == "right"
                                                  else A.mult[e][j]).items()}
                   for e in range(A.dim)] for c, j in basis]
        F = GradedModule._trusted(A, side, [f"{A.labels[j]}#{c}" for c, j in basis],
                                  [A.degree[j] for _, j in basis], action)
        A._cache[key] = (F, basis, [tag[j] for _, j in basis])
    return A._cache[key]


class _Cover:
    """The cover pi: F -> M of a flattened module by idempotent projectives.

    Each generator m of M splits as the sum of its components m e_i (e_i m
    for left modules); every nonzero component c becomes a summand
    e_i(c) A of F, mapped onto M by e_i a -> m e_i a.  When A splits over
    its radical J on the basis (_structure), the generators are the
    components of the basis vectors, walked in (m, i) order, that enlarge
    the span of M J and the generators before them: their classes are a
    basis of M / M J, so by Nakayama the cover is a projective cover and
    its ranks are the minimal ones.  Otherwise the components are those of
    the greedy generators of M.  When each basis vector of M lies in one
    M e_i, as every syzygy built here does, the components are the basis
    vectors themselves; with the unit alone F is one free copy per
    generator.  summands[c] is i(c); free, basis and tags are those of
    _projective.

    pi holds the map as columns and rows as sparse rows, one per basis
    vector of M.  kernel is kernel_basis(rows), and each of its vectors
    lies in one (ker pi) e_t: pi maps F e_t into M e_t, these images are
    independent, so a non-pivot column is a combination of the pivot
    columns of its own tag.  The reduced rows of a syzygy spanned by them
    keep that, which is why the basis vectors of every syzygy each lie in
    one syzygy e_t.
    """

    def __init__(self, M: GradedModule):
        fld = M.field
        idems, _, _, rad = _structure(M.algebra)
        if rad is None:
            gens = [c for g in M.generators() for c in _components(M, g, idems)]
        else:
            top = Span(fld, M.dim)      # M J, then the generators too
            for row in M.action:
                for a in rad:
                    if row[a]:
                        top.add(row[a])
            gens = [c for m in range(M.dim) for c in _components(M, m, idems)
                    if top.add(c[1])]
        self.summands = tuple(i for i, _ in gens)
        self.free, self.basis, self.tags = _projective(M.algebra, M.side, self.summands)
        # column (c, j) of the projection is b_j acting on generator c
        cols = [M.act_sparse(gens[c][1], j) for c, j in self.basis]
        self.pi = ModuleHom(self.free, M, cols)
        self.rows = [{} for _ in range(M.dim)]
        for f, col in enumerate(cols):
            for k, x in col.items():
                self.rows[k][f] = x
        self.kernel = kernel_basis(fld, self.rows, self.free.dim)


def _components(M: GradedModule, m, idems):
    """(i, m e_i) for the nonzero components of basis vector m (e_i m for
    left modules)."""
    return [(i, w) for i, e in enumerate(idems) if (w := _act_by(M.action, M._p, m, e))]


def _cover(M: GradedModule) -> _Cover:
    """The cover of M, cached on M: the resolver's next step and the
    projectivity test share it."""
    if "cover" not in M._cache:
        M._cache["cover"] = _Cover(M)
    return M._cache["cover"]


class ProjectivityReport:
    def __init__(self, module, projective, cover, splitting):
        self.module = module
        self.projective = projective
        self.cover = cover          # pi: F -> M
        self.splitting = splitting   # s: M -> F with pi . s = id, or None

    def __bool__(self):
        return self.projective

    def __repr__(self):
        return f"ProjectivityReport({self.projective})"


def is_projective(M: GradedModule) -> ProjectivityReport:
    """Decide projectivity on the cover pi: F -> M, with a splitting s of
    pi as the witness for independent re-checking.

    A cover with zero kernel is an isomorphism, so M is projective and s
    is the inverse of pi, over every algebra.  When A splits over its
    radical on the basis, the cover is a projective cover, so a nonzero
    kernel means M is not projective.  Otherwise the cover need not be
    minimal, and _retraction decides.
    """
    M = flatten_module(M)
    if "projres" in M._cache:
        return M._cache["projres"]
    cov = _cover(M)
    if not cov.kernel:
        split = ModuleHom(M, cov.free, right_inverse(M.field, cov.rows, cov.free.dim))
    elif _structure(M.algebra).rad is None:
        split = _retraction(M, cov)
    else:
        split = None
    rep = M._cache["projres"] = ProjectivityReport(M, split is not None, cov.pi, split)
    return rep


def _retraction(M: GradedModule, cov: _Cover):
    """A splitting of the cover pi: F -> M of M, or None if M is not
    projective, by a retraction onto the kernel of pi.

    With K = ker pi, M is projective iff the inclusion K -> F has an
    A-linear retraction t.  Such a t is fixed by k_c = t(e_i(c)) for the
    summand generators, and as k_c = t(e_i(c)) e_i(c) the unknowns are the
    entries of each k_c in F e_i(c); t sends basis element (c, j) to b_j
    acting on k_c.  The equations are pi . k_c = 0 for every c and
    t(rho) = rho for every kernel vector rho; they go to solve_sparse as
    sparse rows.  When t exists, s = (I - T) . sigma splits pi, for T the
    matrix of t and sigma any linear section of pi: I - T is A-linear and
    kills K, so it factors as s . pi.
    """
    F = cov.free
    fld = M.field
    fixed = {}              # t -> the coordinates of F e_t
    for f, t in enumerate(cov.tags):
        fixed.setdefault(t, []).append(f)
    col, n = [], 0          # unknown k_c[g] is column col[c][g]
    for i in cov.summands:
        col.append({g: n + q for q, g in enumerate(fixed[i])})
        n += len(fixed[i])
    eqs, rhs = [], []
    for row in cov.rows:    # pi . k_c = 0
        for cc in col:
            eq = {cc[g]: a for g, a in row.items() if g in cc}
            if eq:
                eqs.append(eq)
                rhs.append(fld.zero())
    acts = {}               # (i, j): (g, f, x) for every entry x at row f of b_j on g in F e_i
    for rho in cov.kernel:  # t(rho) = rho, one row per coordinate of F
        rows = {f: {} for f in rho}     # rows with no unknowns still count
        for ce, a in rho.items():
            c, j = cov.basis[ce]
            key = (cov.summands[c], j)
            if key not in acts:
                acts[key] = [(g, f, x) for g in fixed[key[0]]
                             for f, x in F.action[g][j].items()]
            cc = col[c]
            for g, f, x in acts[key]:   # solve_sparse reduces the sums
                row = rows.setdefault(f, {})
                row[cc[g]] = row.get(cc[g], 0) + a * x
        for f, row in rows.items():
            eqs.append(row)
            rhs.append(rho.get(f, fld.zero()))
    sol = solve_sparse(fld, eqs, rhs, n)
    if sol is None:
        return None
    # column (c, j) of T is b_j acting on k_c
    k = [{g: sol[u] for g, u in cc.items() if not fld.is_zero(sol[u])} for cc in col]
    tcols = [F.act_sparse(k[c], j) for c, j in cov.basis]
    # s = sigma - T . sigma, column by column
    return ModuleHom(M, F, [
        _sum_cells(M._p, [(1, sig)] + [(-a, tcols[ce]) for ce, a in sig.items()])
        for sig in right_inverse(fld, cov.rows, F.dim)])


class _Resolver:
    """Lazily extended projective resolution of a flattened module.

    covers[i] is the cover of the previous module (M or syzygies[i-1]) by
    ranks[i] summands e_i A, boundaries[i] is the ModuleHom F_i -> F_{i-1}
    (for i = 0: F_0 -> M), and syzygies[i] is ker(boundaries[i]) as an
    abstract module, built from the span of the cover's kernel: ker pi
    is a submodule, and its reduced rows are unique, so no closure runs.
    The covers are the ones is_projective reads, so each is built once.
    Each syzygy basis vector lies in one syzygy e_t, so later generators
    are basis vectors; where the algebra splits over its radical the
    ranks are the minimal ones (rank 1 at every step for a simple over a
    linear quiver).  Projectivity of syzygies is tested lazily, one step
    at a time.
    """

    def __init__(self, M: GradedModule):
        self.module = M
        self.covers = []
        self.ranks = []
        self.boundaries = []
        self.syzygies = []

    def ensure(self, n):
        while len(self.ranks) < n:
            prev = self.module if not self.syzygies else self.syzygies[-1]
            cov = _cover(prev)
            self.covers.append(cov)
            self.ranks.append(len(cov.summands))
            bd = cov.pi
            if self.boundaries:
                # include the syzygy back into the previous cover
                incl, p = self._incl, prev._p
                bd = ModuleHom(cov.free, incl.target, [
                    _sum_cells(p, ((c, incl.cols[t]) for t, c in col.items()))
                    for col in cov.pi.cols])
            self.boundaries.append(bd)
            # the inclusion is injective, so ker bd = ker pi, which is a
            # submodule already: its span needs no closure
            span = Span(prev.field, cov.free.dim)
            for v in cov.kernel:
                span.add(v)
            syz, self._incl = module_from_span(cov.free, span, label="z")
            self.syzygies.append(syz)

    def proj_report(self, i):
        """The projectivity of syzygy i, which is_projective caches on it."""
        self.ensure(i + 1)
        return is_projective(self.syzygies[i])

    def pd_verdict(self, cutoff):
        if is_projective(self.module).projective:
            return Verdict.finite(0)
        for i in range(cutoff):
            if self.proj_report(i).projective:
                return Verdict.finite(i + 1)
        return Verdict.at_least(cutoff)


def _resolver(M: GradedModule) -> _Resolver:
    M = flatten_module(M)
    if "resolver" not in M._cache:
        M._cache["resolver"] = _Resolver(M)
    return M._cache["resolver"]


class ResolutionStep:
    def __init__(self, rank, boundary, syzygy_dim, syzygy_projectivity):
        self.rank = rank
        self.boundary = boundary
        self.syzygy_dim = syzygy_dim
        self.syzygy_projectivity = syzygy_projectivity


class ResolutionReport:
    def __init__(self, module, steps, pd_verdict, cutoff):
        self.module = module
        self.steps = steps
        self.pd_verdict = pd_verdict
        self.cutoff = cutoff

    def __repr__(self):
        return f"ResolutionReport(pd={self.pd_verdict!r}, steps={len(self.steps)})"


def resolution_report(M: GradedModule, cutoff=DEFAULT_PD_CUTOFF) -> ResolutionReport:
    """Resolution data out to the pd decision point (or the cutoff).

    A Finite(d) verdict with d > 0 means the step d-1 syzygy is
    projective; its splitting witness rides along in that step.
    """
    if cutoff < 1:
        raise AlgebraError("cutoff must be at least 1")
    Mf = flatten_module(M)
    res = _resolver(Mf)
    verdict = res.pd_verdict(cutoff)
    nsteps = verdict.value if verdict.is_finite else cutoff
    res.ensure(nsteps)
    steps = [ResolutionStep(res.ranks[i], res.boundaries[i].matrix,
                            res.syzygies[i].dim, res.proj_report(i))
             for i in range(nsteps)]
    return ResolutionReport(Mf, steps, verdict, cutoff)


def projective_dimension(M: GradedModule, cutoff=DEFAULT_PD_CUTOFF) -> Verdict:
    if cutoff < 1:
        raise AlgebraError("cutoff must be at least 1")
    return _resolver(M).pd_verdict(cutoff)


# -- Tor ---------------------------------------------------------------------


def _tensored_boundary(bd, src, dst, idems, partner):
    """Columns of the image of the boundary bd: F_n -> F_n-1 between the
    covers src and dst under - (x) partner.

    e_i A (x) N = e_i N: the boundary is fixed by the image w_c of each
    summand generator e_i(c), and block (d, c) acts on N by the entries of
    w_c in summand d, so column (c, t) gathers, over the entries lam at
    the basis vectors (d, j) of w_c, lam times b_j acting on basis vector
    t of N, in block d.  Blocks keep all of N's coordinates: w_c lies in
    F_n-1 e_i(c), so block (d, c) kills (1 - e_i(c)) N and lands in
    e_i(d) N, and the rank is that of the map between the e N.
    """
    p, dP = partner._p, partner.dim
    coord = {b: f for f, b in enumerate(src.basis)}
    cols = []
    for c, i in enumerate(src.summands):
        w = _sum_cells(p, ((x, bd.cols[coord[(c, k)]]) for k, x in idems[i].items()))
        for t in range(dP):
            col = {}
            for f, lam in w.items():
                cd, j = dst.basis[f]
                for k, a in partner.action[t][j].items():
                    col[cd * dP + k] = col.get(cd * dP + k, 0) + lam * a
            cols.append(_nonzero(p, col.items()))
    return cols


def tor(X: GradedModule, Y: GradedModule, i_max: int, resolve_side="first"):
    """dim Tor_i(X, Y) for 0 <= i <= i_max, X right and Y left.

    resolve_side picks which argument gets the projective resolution; the
    answer is the same either way (a property the tests exercise).
    """
    if X.side != "right" or Y.side != "left":
        raise AlgebraError("tor expects (right module, left module)")
    if X.algebra != Y.algebra:
        raise AlgebraError("tor needs modules over a common algebra")
    if i_max < 0:
        raise AlgebraError("i_max must be nonnegative")
    X = flatten_module(X)
    Y = flatten_module(Y)
    if resolve_side == "first":
        resolved, partner = X, Y
    elif resolve_side == "second":
        resolved, partner = Y, X
    else:
        raise AlgebraError(f"bad resolve_side {resolve_side!r}")
    if X.dim == 0 or Y.dim == 0:
        return [0] * (i_max + 1)
    res = _resolver(resolved)
    # everything above the resolved side's pd vanishes, so cap the
    # resolution there; the verdict is usually already cached
    cap = i_max
    if i_max >= 1:
        verdict = res.pd_verdict(i_max)
        if verdict.is_finite:
            cap = min(cap, verdict.value)
    res.ensure(cap + 2)
    idems = _structure(resolved.algebra).idems
    fld = partner.field
    # dim e_i N is the rank of e_i acting on N
    edim = [rank(fld, [_act_by(partner.action, partner._p, t, e) for t in range(partner.dim)])
            for e in idems]
    covers = res.covers
    tranks = [rank(fld, _tensored_boundary(res.boundaries[i], covers[i], covers[i - 1],
                                           idems, partner))
              for i in range(1, cap + 2)]
    chains = [sum(edim[i] for i in cov.summands) for cov in covers]
    dims = [chains[0] - tranks[0]]
    for i in range(1, cap + 1):
        dims.append(chains[i] - tranks[i - 1] - tranks[i])
    dims.extend([0] * (i_max - cap))
    return dims


# -- nilpotency ----------------------------------------------------------------


def nilpotency_index(M: GradedBimodule, cutoff=DEFAULT_NIL_CUTOFF) -> Verdict:
    """Smallest k with the k-th power zero; AtLeast(c) if powers 1..c are
    all nonzero (or the dimensions blow past DEFAULT_DIM_LIMIT at step c).
    The powers are those of M's one tower (tower_of)."""
    if M.left_algebra != M.right_algebra:
        raise AlgebraError("nilpotency needs a bimodule over one ring")
    if cutoff < 1:
        raise AlgebraError("cutoff must be at least 1")
    tower = tower_of(M)
    for k in range(1, cutoff + 1):
        d = tower.power(k).dim
        if d == 0:
            return Verdict.index(k)
        if d > DEFAULT_DIM_LIMIT:
            return Verdict.at_least(k)
    return Verdict.at_least(cutoff)


# -- perfectness ---------------------------------------------------------------


class PerfectnessReport:
    """pd + nilpotency + the two Tor tables behind a perfectness verdict.

    verdict is 'LeftPerfect', 'NotLeftPerfect' (witness = (table, i, j,
    dim) for a nonzero cell), or 'Inconclusive' (reason says which cutoff
    got in the way).  A cutoff can only ever produce Inconclusive.
    """

    def __init__(self, bimodule, pd, nilpotency, power_pds, table,
                 mirror_table, verdict, witness=None, reason=None,
                 mirror_consistent=None):
        self.bimodule = bimodule
        self.pd = pd
        self.nilpotency = nilpotency
        self.power_pds = power_pds
        self.table = table
        self.mirror_table = mirror_table
        self.verdict = verdict
        self.witness = witness
        self.reason = reason
        self.mirror_consistent = mirror_consistent

    @property
    def is_left_perfect(self):
        return self.verdict == "LeftPerfect"

    def to_json(self):
        return {
            "pd": self.pd.to_json(),
            "nilpotency": self.nilpotency.to_json(),
            "powerPds": {str(j): v.to_json() for j, v in self.power_pds.items()},
            "torTable": {f"{i},{j}": d for (i, j), d in sorted(self.table.items())},
            "mirrorTable": {f"{i},{j}": d for (i, j), d in sorted(self.mirror_table.items())},
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "reason": self.reason,
            "mirrorConsistent": self.mirror_consistent,
        }

    def __repr__(self):
        return f"PerfectnessReport({self.verdict})"


def left_perfect_check(R: GradedAlgebra, M: GradedBimodule,
                       pd_cutoff=DEFAULT_PD_CUTOFF,
                       nil_cutoff=DEFAULT_NIL_CUTOFF) -> PerfectnessReport:
    """Decide left perfectness of the bimodule M over R.

    Requires: finite left projective dimension of every tensor power, a
    confirmed nilpotency index k, and vanishing of Tor_i(M, M^(x)j) for
    all i >= 1, 1 <= j < k.  The i-range per column is complete because
    resolving the left argument kills everything above its pd.  The
    mirror table Tor_i(M^(x)j, M) must vanish simultaneously; that is
    recorded as a consistency flag.
    """
    if M.left_algebra != R or M.right_algebra != R:
        raise AlgebraError("left_perfect_check needs an (R, R)-bimodule")
    tower = tower_of(M)
    nil = nilpotency_index(M, nil_cutoff)
    if not nil.is_conclusive:
        pdM = projective_dimension(M.as_left_module(), pd_cutoff)
        return PerfectnessReport(M, pdM, nil, {}, {}, {}, "Inconclusive",
                                 reason=f"nilpotency unresolved at cutoff {nil.value}")
    k = nil.value
    if k == 1:
        # the bimodule itself is zero; nothing to resolve
        return PerfectnessReport(M, Verdict.finite(0), nil, {}, {}, {},
                                 "LeftPerfect", mirror_consistent=True)
    powL, powR, power_pds = {}, {}, {}
    for j in range(1, k):
        pw = tower.power(j)
        powL[j] = pw.as_left_module()
        powR[j] = pw.as_right_module()
        power_pds[j] = projective_dimension(powL[j], pd_cutoff)
    pdM = power_pds[1]
    bad = [j for j, v in sorted(power_pds.items()) if not v.is_finite]
    if bad:
        return PerfectnessReport(M, pdM, nil, power_pds, {}, {}, "Inconclusive",
                                 reason=f"pd of power {bad[0]} unresolved at cutoff {pd_cutoff}")
    Mright, Mleft = powR[1], powL[1]
    d1 = pdM.value
    table, mirror = {}, {}
    for j in range(1, k):
        dj = power_pds[j].value
        if dj >= 1:
            dims = tor(Mright, powL[j], dj, resolve_side="second")
            for i in range(1, dj + 1):
                table[(i, j)] = dims[i]
        if d1 >= 1:
            dims = tor(powR[j], Mleft, d1, resolve_side="second")
            for i in range(1, d1 + 1):
                mirror[(i, j)] = dims[i]
    main_bad = next(((i, j) for (i, j), d in sorted(table.items()) if d), None)
    mirror_bad = next(((i, j) for (i, j), d in sorted(mirror.items()) if d), None)
    consistent = (main_bad is None) == (mirror_bad is None)
    if main_bad:
        i, j = main_bad
        return PerfectnessReport(M, pdM, nil, power_pds, table, mirror,
                                 "NotLeftPerfect", witness=("tor", i, j, table[main_bad]),
                                 mirror_consistent=consistent)
    if mirror_bad:
        # the defining table vanishes but the mirror does not; the two
        # conditions are equivalent, so surface the anomaly loudly
        i, j = mirror_bad
        return PerfectnessReport(M, pdM, nil, power_pds, table, mirror,
                                 "NotLeftPerfect", witness=("mirror", i, j, mirror[mirror_bad]),
                                 mirror_consistent=consistent)
    return PerfectnessReport(M, pdM, nil, power_pds, table, mirror,
                             "LeftPerfect", mirror_consistent=consistent)


# -- pd over assembled context rings -------------------------------------------


def morita_corner_pd(ctx: MoritaContext, pd_cutoff=DEFAULT_PD_CUTOFF,
                     nil_cutoff=DEFAULT_NIL_CUTOFF) -> CheckReport:
    """pd over the assembled ring of the four corner-with-zero tuples.

    Needs phi = psi = 0, equal corners, and a nilpotent left perfect
    glueing bimodule; under those hypotheses every one of the four pds
    is predicted finite, so a conclusive non-finite answer would be a
    soundness alarm rather than a counterexample.
    """
    if not ctx.is_zero_context:
        raise ConstructionError("corner comparison needs phi = psi = 0")
    if ctx.A != ctx.B:
        raise ConstructionError("corner comparison needs equal corner rings")
    per = left_perfect_check(ctx.A, ctx.M, pd_cutoff, nil_cutoff)
    if not per.is_left_perfect:
        raise ConstructionError("left perfectness of the glueing bimodule "
                                f"not confirmed; verdict was {per.verdict}")
    regA = regular_module(ctx.A, "left")
    Mleft = ctx.M.as_left_module()
    tuples = {
        "(A,0)": ctx.Z_A(regA),
        "(0,A)": ctx.Z_B(regular_module(ctx.B, "left")),
        "(M,0)": ctx.Z_A(Mleft),
        "(0,M)": ctx.Z_B(Mleft),
    }
    verdicts = {}
    for name, tup in tuples.items():
        verdicts[name] = projective_dimension(tup.as_module(), pd_cutoff)
    ok = True if all(v.is_finite for v in verdicts.values()) else None
    return CheckReport("morita-corner-pd", ok,
                       {"verdicts": verdicts, "perfectness": per.verdict})


# -- one dimensional modules ---------------------------------------------------


def one_dimensional_modules(A: GradedAlgebra, limit=2 ** 16):
    """All one dimensional right modules, by brute force over the field.

    A scalar action is a module structure iff it is multiplicative on the
    structure constants and sends the unit to 1.  Scalars commute, so the
    same action tables are also all one dimensional left modules.  Only
    finite prime fields are searched; the search space p^dim must stay
    within limit.
    """
    F = A.field
    if not hasattr(F, "p"):
        raise ConstructionError("one dimensional module search needs a finite field")
    if F.p ** A.dim > limit:
        raise ConstructionError(
            f"search space {F.p}^{A.dim} exceeds the limit {limit}")
    A = _flat_algebra(A)
    out = []
    for lam in itertools.product(range(F.p), repeat=A.dim):
        if sum(lam[i] * A.unit[i] for i in range(A.dim)) % F.p != 1:
            continue
        good = True
        for i in range(A.dim):
            if not good:
                break
            for j in range(A.dim):
                prod = sum(c * lam[k] for k, c in A.mult[i][j].items()) % F.p
                if (lam[i] * lam[j]) % F.p != prod:
                    good = False
                    break
        if good:
            action = [[{0: F.enc(int(lam[j]))} if lam[j] else {}
                       for j in range(A.dim)]]
            out.append(GradedModule._trusted(A, "right", [f"s{len(out)}"],
                                             [A.group.zero()], action))
    return out


# -- cleft extension vanishing bound -------------------------------------------

# Tor is tabulated from B - 1 up to B + _TOR_WINDOW
_TOR_WINDOW = 1


def cleft_vanishing_bound(td: ThetaData, pd_cutoff=DEFAULT_PD_CUTOFF,
                          nil_cutoff=DEFAULT_NIL_CUTOFF):
    """The vanishing degree B = n + s - 1 computed from the bimodule data.

    s is the nilpotency index and n = max(1, max_q (pd of the q-th power
    + q)) over 1 <= q < s.  Tor_i over the extension with the base ring
    as coefficient vanishes for every i >= B.  Returns (B, n, s, report).
    """
    per = left_perfect_check(td.base, td.bim, pd_cutoff, nil_cutoff)
    if not per.is_left_perfect:
        raise ConstructionError("left perfectness of the bimodule not confirmed; "
                                f"verdict was {per.verdict}")
    s = per.nilpotency.value
    n = 1
    for q, v in per.power_pds.items():
        n = max(n, v.value + q)
    return max(1, n + s - 1), n, s, per


def cleft_vanishing_check(td: ThetaData, pd_cutoff=DEFAULT_PD_CUTOFF,
                          nil_cutoff=DEFAULT_NIL_CUTOFF) -> CheckReport:
    """Tor_i over the extension against the base vanishes from B upward.

    Decided conclusively through pd of the base as a left module over the
    extension: pd <= B - 1 forces the vanishing for every coefficient
    module at once.  The Tor table on the regular module, the base, and
    all one dimensional modules when the field is small is reported as
    direct evidence; values at B - 1 may well be nonzero, which is what
    makes the bound tight.
    """
    B, n, s, per = cleft_vanishing_bound(td, pd_cutoff, nil_cutoff)
    E = td.algebra
    # the base as a module over the extension, through the quotient map
    # that kills the bimodule block
    cf = CleftFunctors(td)
    Rleft = cf.down.as_left_module()
    pdR = projective_dimension(Rleft, max(pd_cutoff, B))
    tests = [("regular", regular_module(E, "right")),
             ("base", cf.Z(regular_module(cf.base, "right")))]
    try:
        for t, S in enumerate(one_dimensional_modules(E)):
            tests.append((f"onedim{t}", S))
    except ConstructionError:
        pass
    lo = max(0, B - 1)
    table = {}
    violations = []
    for name, X in tests:
        # resolving the shared left argument reuses one resolution
        dims = tor(X, Rleft, B + _TOR_WINDOW, resolve_side="second")
        for i in range(lo, B + _TOR_WINDOW + 1):
            table[(name, i)] = dims[i]
            if i >= B and dims[i]:
                violations.append((name, i, dims[i]))
    if pdR.is_finite:
        ok = pdR.value <= B - 1 and not violations
    else:
        ok = False if violations else None
    return CheckReport("cleft-vanishing", ok, {
        "bound": B, "n": n, "s": s,
        "pd_base_over_extension": pdR,
        "power_pds": per.power_pds,
        "table": {f"{name}@{i}": d for (name, i), d in sorted(table.items())},
        "violations": violations,
    })


# -- tensor product formula ----------------------------------------------------


def tensor_formula_check(ctx: MoritaContext, rt: TupleModule,
                         lt: TupleModule) -> CheckReport:
    """Tensor over the assembled ring against the two-block quotient formula.

    rt is a right tuple, lt a left one.  The direct side is the balanced
    tensor product of the assembled modules.  The formula side is
    (X (x)_A X') + (Y (x)_B Y') modulo the span H of the mixed relations;
    the comparison map sends each block pair to the corresponding pair of
    assembled vectors, and the check confirms it kills H and hits
    everything, in matching dimension.
    """
    if rt.ctx is not ctx or lt.ctx is not ctx:
        raise ConstructionError("tuples must live over the given context")
    fld = ctx.A.field
    p = _modulus(fld)
    V = rt.as_module()
    W = lt.as_module()
    big = tensor_over_algebra(V, W, ctx.assembled)
    S_XX = tensor_over_algebra(rt.X, lt.X, ctx.A)
    S_YY = tensor_over_algebra(rt.Y, lt.Y, ctx.B)
    ddim = S_XX.dim + S_YY.dim
    H = Span(fld, ddim)
    dX, dY = rt.X.dim, rt.Y.dim
    dXp, dYp = lt.X.dim, lt.Y.dim

    def relation(xx, yy):
        """Add xx - yy to H; xx and yy list (coefficient, pair) terms of
        S_XX and of S_YY."""
        row = _sum_cells(p, ((c, S_XX.project_pair(*ik)) for c, ik in xx))
        for k, c in _sum_cells(p, ((c, S_YY.project_pair(*jl)) for c, jl in yy)).items():
            row[S_XX.dim + k] = fld.neg(c)
        H.add(row)

    # relations g(y (x) m) (x) x' = y (x) f'(m (x) x')
    for j in range(dY):
        for m in range(ctx.M.dim):
            gv = rt.g[j][m]
            for k in range(dXp):
                relation([(c, (t, k)) for t, c in gv.items()],
                         [(c, (j, q)) for q, c in lt.f[k][m].items()])
    # relations x (x) g'(n (x) y') = f(x (x) n) (x) y'
    for i in range(dX):
        for nn in range(ctx.N.dim):
            fv = rt.f[i][nn]
            for l in range(dYp):
                relation([(c, (i, q)) for q, c in lt.g[l][nn].items()],
                         [(c, (t, l)) for t, c in fv.items()])
    quotient_dim = ddim - H.dim()
    # comparison map on block representatives
    cols = ([big.project_pair(i, k) for (i, k) in S_XX.section]
            + [big.project_pair(dX + j, dXp + l) for (j, l) in S_YY.section])
    kills = all(not _sum_cells(p, ((c, cols[t]) for t, c in row.items()))
                for _, row in H.rows())
    image = Span(fld, big.dim)
    for col in cols:
        image.add(col)
    surjective = image.dim() == big.dim
    ok = (quotient_dim == big.dim) and kills and surjective
    details = {"direct_dim": big.dim, "block_dim": ddim,
               "relation_rank": H.dim(), "quotient_dim": quotient_dim,
               "kills_relations": kills, "surjective": surjective}
    # on a triangular ring, when g: N (x)_B Y' -> X' is an isomorphism (its
    # cells span X', in matching dimension) the second factor is induced
    # from its Y' and the product collapses onto Y (x)_B Y'
    if (ctx.M.dim == 0 and rank(fld, [c for row in lt.g for c in row]) == dXp
            and tensor_over_algebra(ctx.N, lt.Y, ctx.B).dim == dXp):
        details["collapsed_dim"] = S_YY.dim
        ok = ok and S_YY.dim == big.dim
    return CheckReport("tensor-formula", bool(ok), details)


# -- the doubled-block bimodule law --------------------------------------------


def _block_pattern_bimodule(ctx: MoritaContext, tower: TensorTower, k: int):
    """[[N^2k, N^2k+1], [N^2k-1, N^2k]] as a bimodule over the assembled
    triangular ring.  Off-diagonal corner elements act through the
    concatenation pairings of the power tower."""
    Lam = ctx.assembled
    oA, oN, _, oB = ctx.offsets
    pows = [2 * k, 2 * k + 1, 2 * k - 1, 2 * k]
    blocks = [tower.power(p) for p in pows]
    dims = [b.dim for b in blocks]
    offs = [sum(dims[:t]) for t in range(4)]
    total = sum(dims)
    labels = []
    for t, b in enumerate(blocks):
        slot = ["tl", "tr", "bl", "br"][t]
        labels.extend(f"{slot}:{s}" for s in b.labels)
    degrees = []
    for b in blocks:
        degrees.extend(b.degree)
    left = [[{} for _ in range(Lam.dim)] for _ in range(total)]
    right = [[{} for _ in range(Lam.dim)] for _ in range(total)]
    # diagonal corners act on their row (left) / column (right)
    for t, b in enumerate(blocks):
        _place(left, offs[t], oA if t in (0, 1) else oB, b.left_action, offs[t])
        _place(right, offs[t], oA if t in (0, 2) else oB, b.right_action, offs[t])
    # n-corner: left action moves the bottom row up, right action moves
    # the left column right
    for (src, dst) in ((2, 0), (3, 1)):
        _place(left, offs[src], oN, tower.mu(1, pows[src]), offs[dst], swap=True)
    for (src, dst) in ((0, 1), (2, 3)):
        _place(right, offs[src], oN, tower.mu(pows[src], 1), offs[dst])
    return GradedBimodule._trusted(Lam, Lam, labels, degrees, left, right)


def _corner_dims(V: GradedBimodule, idems):
    """dim of e_r V e_c for the given idempotents (sparse ring vectors):
    the rank of the columns of v -> e_r v e_c."""
    p = _modulus(V.field)
    out = {}
    for rname, rv in idems.items():
        left = [_act_by(V.left_action, p, i, rv) for i in range(V.dim)]
        for cname, cv in idems.items():
            cols = [_sum_cells(p, ((c, left[t]) for t, c in
                                   _act_by(V.right_action, p, i, cv).items()))
                    for i in range(V.dim)]
            out[(rname, cname)] = rank(V.field, cols)
    return out


def power_block_law_check(A: GradedAlgebra, N: GradedBimodule,
                          nil_cutoff=DEFAULT_NIL_CUTOFF) -> CheckReport:
    """Powers of the doubled-block bimodule follow the shifted block law.

    Over the triangular ring with corners A and glueing bimodule N, the
    block bimodule [[N^2, N^3], [N, N^2]] has i-th power
    [[N^2i, N^2i+1], [N^2i-1, N^2i]].  Checked by dimension and by the
    four idempotent corner dimensions, for i = 1, 2; small instances also
    get a module isomorphism on both sides.  A Tor identity for the first
    power pair is verified through Tor_2 when its hypothesis (vanishing of
    Tor against N) holds.
    """
    zero_bim = GradedBimodule._trusted(A, A, [], [], [], [])
    ctx = morita_ring(A, A, N, zero_bim)
    nil = nilpotency_index(N, nil_cutoff)
    if not nil.is_conclusive:
        raise ConstructionError("nilpotency not confirmed")
    tower = tower_of(N)
    Lam = ctx.assembled
    M = _block_pattern_bimodule(ctx, tower, 1)
    towerM = tower_of(M)
    oA, _, _, oB = ctx.offsets
    idems = {name: {off + e: c for e, c in enumerate(A.unit) if c}
             for name, off in (("top", oA), ("bot", oB))}
    dim_rows, corner_rows, iso_rows = [], [], []
    ok = True
    for i in (1, 2):
        direct = towerM.power(i)
        p = [tower.power(2 * i).dim, tower.power(2 * i + 1).dim,
             tower.power(2 * i - 1).dim]
        predicted_dim = 2 * p[0] + p[1] + p[2]
        dim_rows.append((i, direct.dim, predicted_dim))
        if direct.dim != predicted_dim:
            ok = False
            continue
        corners = _corner_dims(direct, idems)
        want = {("top", "top"): p[0], ("top", "bot"): p[1],
                ("bot", "top"): p[2], ("bot", "bot"): p[0]}
        corner_rows.append((i, corners, want))
        if corners != want:
            ok = False
        if 0 < direct.dim <= 48:
            predicted = _block_pattern_bimodule(ctx, tower, i)
            repL = find_isomorphism(direct.as_left_module(),
                                    predicted.as_left_module(), graded=False)
            repR = find_isomorphism(direct.as_right_module(),
                                    predicted.as_right_module(), graded=False)
            iso_rows.append((i, repL.found, repR.found))
            # only a conclusive miss counts against the law
            if ((not repL.found and repL.conclusive)
                    or (not repR.found and repR.conclusive)):
                ok = False
    # Tor identity at the first doubling: over the triangular ring the
    # pair (M, M) reduces to a Tor over A of the two induced columns
    y_parts = [tower.power(3).as_right_module(), tower.power(2).as_right_module()]
    z_parts = [tower.power(1).as_left_module(), tower.power(2).as_left_module()]
    Y = direct_sum([m for m in y_parts if m.dim] or [zero_module(A, "right")])[0]
    Z = direct_sum([m for m in z_parts if m.dim] or [zero_module(A, "left")])[0]
    hyp = tor(N.as_right_module(), Z, 2)
    tor_detail = {"hypothesis": hyp}
    if any(hyp[1:]):
        tor_detail["status"] = "hypothesis-failed"
    else:
        lhs = tor(M.as_right_module(), M.as_left_module(), 2)
        rhs = tor(Y, Z, 2)
        tor_detail.update({"status": "checked", "over_extension": lhs,
                           "over_base": rhs})
        if lhs != rhs:
            ok = False
    return CheckReport("power-block-law", ok, {
        "dims": dim_rows, "corners": corner_rows, "isos": iso_rows,
        "tor": tor_detail, "nilpotency": nil,
    })
