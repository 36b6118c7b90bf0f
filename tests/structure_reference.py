"""The basis idempotents and the split radical as three separate functions.

These are the functions the library used before it found both facts in
one cached pass (homology._structure), kept unchanged as a reference:
_idempotents and _split_radical cache on A under keys of their own,
which the library no longer reads or writes.  tests/test_structure.py
compares them with the record on seeded random algebras, their flat
copies and their covering rings; the resolution oracle reads its
idempotents here.
"""

from injgen.algebra import GradedAlgebra, _act_sparse
from injgen.linalg import Span


def _idempotents(A: GradedAlgebra):
    """(idems, left, right): orthogonal idempotents e_i summing to the unit,
    as sparse vectors, with e_left[j] b_j = b_j = b_j e_right[j] for every
    basis element b_j.

    The e_i are the unit's support u_k b_k when an exact check passes: on
    each side every b_j is fixed by one e_i and killed by the others (so it
    lies in one corner e_i A e_i'), and the e_i fix their own support, which
    makes e_i e_j = delta_ij e_i; sum e_i = 1 holds by construction.
    Otherwise the set is {1}, every tag is 0 and e A = A.  Cached on A,
    never serialized.
    """
    if "idempotents" not in A._cache:
        fld = A.field
        supp = [(k, u) for k, u in enumerate(A.unit) if not fld.is_zero(u)]

        def tags(cell):
            # the i whose e_i fixes b_j, for each j; None if the check fails
            out = []
            for j in range(A.dim):
                acts = [{t: fld.mul(u, x) for t, x in cell(k, j).items()} for k, u in supp]
                hit = [i for i, a in enumerate(acts) if a]
                if len(hit) != 1 or acts[hit[0]] != {j: fld.one()}:
                    return None
                out.append(hit[0])
            return out

        left = right = None
        if len(supp) > 1:
            left = tags(lambda k, j: A.mult[k][j])
            right = tags(lambda k, j: A.mult[j][k])
        if left and right and all(left[k] == i == right[k] for i, (k, _) in enumerate(supp)):
            A._cache["idempotents"] = ([{k: u} for k, u in supp], left, right)
        else:
            A._cache["idempotents"] = ([dict(supp)], [0] * A.dim, [0] * A.dim)
    return A._cache["idempotents"]


def _split_radical(A: GradedAlgebra):
    """The basis indices spanning J0 = rad A when A splits over its
    radical on the basis, else None.  Cached on A, never serialized.

    The witness: every e_i of _idempotents is one basis vector u b_k, and
    the other basis vectors span a two-sided ideal J0 (each product of a
    J0 vector with a basis vector, on either side, has its support in
    J0) that is nilpotent.  Then J0 = rad A: a nilpotent ideal lies in
    the radical, and A/J0 is spanned by n orthogonal idempotents, so it
    is k^n and semisimple.  Nilpotency is decided exactly: the powers
    J0^(m+1) = J0^m J0 are computed until they vanish or stop shrinking.
    """
    if "radical" not in A._cache:
        A._cache["radical"] = _find_split_radical(A)
    return A._cache["radical"]


def _find_split_radical(A: GradedAlgebra):
    idems = _idempotents(A)[0]
    if any(len(e) != 1 for e in idems):
        return None
    tops = {k for e in idems for k in e}
    rad = [j for j in range(A.dim) if j not in tops]
    inside = set(rad)
    for j in rad:
        for a in range(A.dim):
            if not (A.mult[j][a].keys() <= inside and A.mult[a][j].keys() <= inside):
                return None
    one, p = A.field.one(), A._p
    power = [{j: one} for j in rad]
    while power:
        span = Span(A.field, A.dim)
        for v in power:
            for a in rad:
                span.add(_act_sparse(A.mult, p, v, a))
        if span.dim() == len(power):    # J0^(m+1) = J0^m is not zero
            return None
        power = [row for _, row in span.rows()]
    return rad
