"""Root data and Cartan-involution bookkeeping.

Weights are plain integer tuples. For a datum built from a Cartan matrix the
coordinates are taken in the basis of fundamental weights, so dominance and
coroot pairings are coordinate reads. A datum may also be constructed from
explicit simple (co)roots on an arbitrary lattice, which covers reductive
groups with central tori (e.g. GL2) and pure torus factors.
"""

from operator import add, attrgetter, mul, sub

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(map(add, a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(map(sub, a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(k: int, a: Weight) -> Weight:
    return tuple(k * x for x in a)


def wdot(a, b) -> int:
    return sum(map(mul, a, b))


def mat_apply(m: Matrix, w: Weight) -> Weight:
    return tuple(wdot(row, w) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(wdot(row, col) for col in bt) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def is_int(value) -> bool:
    """An int as it is: a bool or a float (even 2.0) is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_vector(values, name: str) -> Weight:
    """`values` as a tuple of ints; an entry that is not one (`is_int`) is a
    ValueError naming it, not rounded."""
    out = tuple(values)
    for k, v in enumerate(out):
        if not is_int(v):
            raise ValueError(f"{name}[{k}] = {v!r} is not an integer")
    return out


def _validate_cartan_shape(cartan) -> list[list[int]]:
    rows = [list(int_vector(r, f"cartan_matrix[{i}]")) for i, r in enumerate(cartan)]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("Cartan matrix must be square and non-empty")
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if i == j and v != 2:
                raise ValueError(f"Cartan diagonal entry ({i},{i}) = {v}, expected 2")
            if i != j:
                if v > 0:
                    raise ValueError(f"Cartan off-diagonal entry ({i},{j}) = {v} is positive")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise ValueError(f"Cartan entries ({i},{j}) and ({j},{i}) disagree on zero")
    return rows


def _check_symmetrizable(cartan: list[list[int]]) -> None:
    """Refuse a Cartan matrix with no positive diagonal d making d[i]*a[i][j]
    symmetric. Along each edge d[j] = d[i]*a[i][j]/a[j][i], kept as an
    integer pair (num, den). Both entries of an edge are negative (shape
    check), so every d is positive, and D*A is positive definite exactly when
    the leading principal minors of A are, which `adjugate` checks."""
    n = len(cartan)
    d: list[tuple[int, int] | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = (1, 1)
        queue = [start]
        while queue:
            i = queue.pop()
            num, den = d[i]
            for j in range(n):
                if i == j or cartan[i][j] == 0:
                    continue
                dj = (num * cartan[i][j], den * cartan[j][i])
                if d[j] is None:
                    d[j] = dj
                    queue.append(j)
                elif d[j][0] * dj[1] != dj[0] * d[j][1]:
                    raise ValueError("Cartan matrix is not symmetrizable")


def adjugate(matrix) -> tuple[Matrix, int]:
    """(adj(A), det(A)) for a square integer matrix A whose leading principal
    minors are positive, as a finite-type Cartan matrix's are (Bareiss 1968).

    Integer Gauss-Jordan (Montante) on [A | I]: step k replaces each row
    i != k by (p_k row_i - a_ik row_k) / p_(k-1), an exact division. The
    pivot p_k is the leading principal minor of order k + 1; one that is not
    positive is a ValueError. At the end the left block is det(A) I and the
    right block adj(A).
    """
    n = len(matrix)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            raise ValueError(
                f"Cartan matrix is not of finite type (leading principal minor of order {k + 1} is {piv})"
            )
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = piv
    return tuple(tuple(row[n:]) for row in a), prev


class RootDatum:
    """Immutable root datum: simple (co)roots on a fixed lattice plus every
    derived structure (positive roots and their simple-root coordinates).

    Use :func:`build_root_datum` for the canonical fundamental-weight
    realization of a Cartan matrix, or construct one directly from explicit
    (co)roots on a rank-`rank` lattice; the root count may be smaller than
    the rank (central torus directions), down to none for a pure torus.
    """

    def __init__(self, rank: int, simple_roots, simple_coroots):
        if rank <= 0:
            raise ValueError("rank must be positive")
        roots = tuple(int_vector(r, f"simple_roots[{j}]") for j, r in enumerate(simple_roots))
        coroots = tuple(int_vector(c, f"simple_coroots[{j}]") for j, c in enumerate(simple_coroots))
        if len(roots) != len(coroots):
            raise ValueError("simple roots and coroots must come in equal numbers")
        for v in roots + coroots:
            if len(v) != rank:
                raise ValueError("simple (co)root length does not match rank")
        self.rank = rank
        self.simple_roots = roots
        self.simple_coroots = coroots
        self.nsimple = len(roots)

        # Cartan matrix a[i][j] = <alpha_j, alpha_i^vee>, then finite-type checks;
        # the last, positive leading minors, comes with the adjugate.
        cartan = [[wdot(roots[j], coroots[i]) for j in range(self.nsimple)] for i in range(self.nsimple)]
        if self.nsimple:
            cartan = _validate_cartan_shape(cartan)
            _check_symmetrizable(cartan)
        self.cartan_matrix = tuple(tuple(r) for r in cartan)

        adj, self._coord_den = adjugate(self.cartan_matrix)
        self._coord_rows = mat_mul(adj, coroots)

        self.positive_roots, self.positive_root_coords = self._close_positive_roots()

        self._key = (rank, roots, coroots)
        self._hash = hash(self._key)

    # Equal (co)roots make equal data, also when built separately.

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootDatum):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    # -- basic pairings ----------------------------------------------------

    def labels(self, weight: Weight) -> tuple[int, ...]:
        """Dynkin labels: the pairings <weight, alpha_i^vee> with the simple coroots."""
        return tuple(wdot(weight, c) for c in self.simple_coroots)

    def is_dominant(self, weight: Weight) -> bool:
        return all(v >= 0 for v in self.labels(weight))

    def root_coords_int(self, weight: Weight) -> tuple[int, ...] | None:
        """Integer simple-root coordinates, or None when not in the root lattice.

        w = sum_j m_j alpha_j has labels C m, so m = adj(C) coroots w / det(C),
        which must divide out exactly. When the roots span less than the
        lattice (central directions, tori), the labels cannot see the rest,
        so sum_j m_j alpha_j == w is checked too. An entry of `weight` that
        is not an int is a ValueError naming it.
        """
        weight = int_vector(weight, "weight")
        m = []
        for row in self._coord_rows:
            q, r = divmod(wdot(row, weight), self._coord_den)
            if r:
                return None
            m.append(q)
        if self.nsimple < self.rank:
            for k, wk in enumerate(weight):
                if sum(mj * alpha[k] for mj, alpha in zip(m, self.simple_roots)) != wk:
                    return None
        return tuple(m)

    @property
    def max_root_height(self) -> int:
        return max((sum(rc) for rc in self.positive_root_coords), default=0)

    @property
    def exponents(self) -> tuple[int, ...]:
        """Exponents of the Weyl group, ascending; the invariant degrees are
        e + 1. Exponent k occurs #{height-k roots} - #{height-(k+1) roots}
        times (Kostant's dual-partition theorem). Central torus directions
        contribute none."""
        counts: dict[int, int] = {}
        for rc in self.positive_root_coords:
            h = sum(rc)
            counts[h] = counts.get(h, 0) + 1
        out: list[int] = []
        for k in range(1, max(counts, default=0) + 1):
            out.extend([k] * (counts.get(k, 0) - counts.get(k + 1, 0)))
        return tuple(out)

    @property
    def adjoint_weights(self) -> tuple[Weight, ...]:
        """The weights of g with multiplicity: every positive root, then their
        negatives, then one zero per lattice direction."""
        roots = self.positive_roots
        return (*roots, *map(wneg, roots), *[(0,) * self.rank] * self.rank)

    def reflect(self, i: int, weight: Weight) -> Weight:
        p = wdot(weight, self.simple_coroots[i])
        return tuple([x - p * a for x, a in zip(weight, self.simple_roots[i])])

    # -- internals ----------------------------------------------------------

    def _close_positive_roots(self):
        """(roots, simple-root coordinates) of the positive roots in (height, root)
        order; each root is solved once, when met, and a simple root's are a unit vector."""
        coords = {r: tuple(int(k == j) for k in range(self.nsimple)) for j, r in enumerate(self.simple_roots)}
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.nsimple):
                    if beta == self.simple_roots[i]:
                        continue
                    im = self.reflect(i, beta)
                    if im in coords:
                        continue
                    rc = self.root_coords_int(im)
                    if rc is None or any(v < 0 for v in rc):
                        raise ValueError("positive-root closure escaped the positive cone")
                    coords[im] = rc
                    nxt.append(im)
                    if len(coords) > 100_000:
                        raise ValueError("positive-root closure did not terminate; not finite type")
            frontier = nxt
        ordered = sorted(coords, key=lambda r: (sum(coords[r]), r))
        return tuple(ordered), tuple(coords[r] for r in ordered)

    def __repr__(self) -> str:
        return f"RootDatum(rank={self.rank}, positive_roots={len(self.positive_roots)})"


def build_root_datum(cartan_matrix) -> RootDatum:
    """Canonical realization of a Cartan matrix on the fundamental-weight
    lattice: simple root j is column j of the matrix, coroot i is e_i."""
    rows = _validate_cartan_shape(cartan_matrix)
    n = len(rows)
    simple_roots = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
    simple_coroots = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    return RootDatum(n, simple_roots, simple_coroots)


class Record:
    """Read-only value record. A subclass names its fields in `__slots__`,
    and its instances are equal, hashed and printed by those fields, in order.

    The constructor binds every field from positional or keyword arguments,
    then calls `__post_init__` when the class has one; that hook may
    normalize a field with `object.__setattr__`. A field named in `_derived`
    is set there alone and takes no part in construction, equality, hashing
    or repr.
    """

    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f not in cls._derived)
        cls._field_values = attrgetter(*cls._fields)
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for f, value in zip(fields, args):
            object.__setattr__(self, f, value)
        if self._post_init is not None:
            self._post_init()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values in order, from arguments other than one
        positional argument per field."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return [values[f] for f in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is read-only: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


class InvolutionData(Record):
    """A lattice involution plus compact markings of imaginary roots.

    `compact` holds the imaginary roots marked compact (closed under negation;
    unmarked imaginary roots are noncompact).
    """

    __slots__ = ("matrix", "compact")

    matrix: Matrix
    compact: frozenset[Weight]

    def __init__(self, matrix, compact=()):
        m = tuple(int_vector(row, f"matrix[{i}]") for i, row in enumerate(matrix))
        n = len(m)
        if any(len(r) != n for r in m):
            raise ValueError("involution matrix must be square")
        if mat_mul(m, m) != identity_matrix(n):
            raise ValueError("involution matrix must square to the identity")
        marks = set()
        for i, w in enumerate(compact):
            marks.add(int_vector(w, f"compact[{i}]"))
        for w in list(marks):
            marks.add(wneg(w))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "compact", frozenset(marks))

    def act(self, w: Weight) -> Weight:
        return mat_apply(self.matrix, w)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def fixed_rank(self) -> int:
        """Dimension of the +1 eigenspace (trace trick for involutions)."""
        tr = sum(self.matrix[i][i] for i in range(self.rank))
        return (self.rank + tr) // 2


class RootClassification(Record):
    __slots__ = ("imaginary_compact", "imaginary_noncompact", "real", "complex_")

    imaginary_compact: tuple[Weight, ...]
    imaginary_noncompact: tuple[Weight, ...]
    real: tuple[Weight, ...]
    complex_: tuple[Weight, ...]

    @property
    def imaginary(self) -> tuple[Weight, ...]:
        return self.imaginary_compact + self.imaginary_noncompact


def classify_roots(datum: RootDatum, inv: InvolutionData) -> RootClassification:
    """Partition all roots into imaginary compact/noncompact, real, complex."""
    if inv.rank != datum.rank:
        raise ValueError("involution rank does not match the root datum")
    allroots = [r for r in datum.positive_roots] + [wneg(r) for r in datum.positive_roots]
    rootset = set(allroots)
    comp, noncomp, real, cplx = [], [], [], []
    for r in allroots:
        im = inv.act(r)
        if im not in rootset:
            raise ValueError(f"involution does not permute the roots (image of {r} is {im})")
        if im == r:
            (comp if r in inv.compact else noncomp).append(r)
        elif im == wneg(r):
            real.append(r)
        else:
            cplx.append(r)
    stray = inv.compact - set(comp)
    if stray:
        raise ValueError(f"compact marks are not imaginary roots: {sorted(stray)}")
    return RootClassification(tuple(comp), tuple(noncomp), tuple(real), tuple(cplx))
