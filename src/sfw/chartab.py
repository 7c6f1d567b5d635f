"""Complex character tables of finite groups, computed exactly over GF(p).

The method is Dixon's (J. D. Dixon, "High speed computation of group
characters", Numer. Math. 10, 1967), with the class matrices split
lazily as in G. J. A. Schneider, "Dixon's character table algorithm
revisited", J. Symb. Comp. 9, 1990:

- p is the least prime with p = 1 (mod e), e the exponent of G, and
  p > 2 sqrt|G|.  A primitive e-th root of unity z in GF(p) makes
  reduction mod p a ring map from Z[exp(2 pi i / e)] onto GF(p).
- The class matrices B_i[j][k] = #{x in C_i : x g_j in C_k} commute,
  and (chi(g_k))_k is a common eigenvector of all of them.  They are
  taken smallest class first, and each splits every common eigenspace
  that is not yet a line by the GF(p) roots of a Hessenberg
  characteristic polynomial.  Only the rows of B_i at the pivot columns
  of those eigenspaces are built.
- A line normalised at the identity class holds beta_k =
  chi(g_k) / chi(1), and the degree is the d <= sqrt|G| with
  d^2 = |G| / sum_k |C_k| beta_k beta_{k^-1} (mod p).
- Through the power maps, a discrete Fourier transform mod p gives the
  multiplicity m_j of each eigenvalue exp(2 pi i j / o) of chi on a
  class of order o (its spectrum).  Each m_j lies in [0, d] and p > 2d,
  so the residues are the integers, and chi(g) = sum_j m_j
  exp(2 pi i j / o).  Sending z to exp(2 pi i / e) lifts each row to a
  Galois conjugate of a true row; Galois conjugation permutes the
  irreducible characters, so the sorted table is the true one.

A value that is a rational integer is returned as that integer, exactly;
the others are float sums of roots of unity.  Row and column
orthogonality mod p, the sum of the squared degrees and 0 <= m_j <= d
are checked before a table is returned.

Besides the table, the module holds what the graph builders use: the
restriction matrix from a table to the table of a subgroup, whose
entries are the multiplicities <chi|K, psi>.  They are computed from
the spectra in GF(q), with one prime q per pair of tables, and are
exact integers.  Induction, restriction as a class function and the
float inner product are not needed by any command; the tests keep
references for them.

Conjugacy classes come from permgroup.conjugacy_classes, which this
module re-exports; the class cap applies only to the table.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter
from operator import mul
from typing import NamedTuple, Optional

from .config import Config, DEFAULT
from .errors import CapExceededError, InvariantViolationError, SubgroupError
from .permgroup import (
    ConjClassData,
    PermGroup,
    conjugacy_classes,
    right_mul,
)

# The most conjugacy classes a table is computed for.  It bounds the
# time of one table: with it lifted, C2^8 (256 classes) took 7.1 s,
# C2^9 45 s and C256 378 s on a 2-core Xeon VM, where order_cap admits
# groups of order up to 5000.  A larger table exits 4.
CLASS_CAP = 64


class ClassFunction(NamedTuple):
    """A class function, with a flag marking genuine characters.

    The characters of a table also carry spectra: per class, the
    multiplicities m_j of the eigenvalues exp(2 pi i j / o), o the
    order of the class's elements.
    """

    group: PermGroup
    values: tuple
    is_character: bool = False
    spectra: Optional[tuple] = None


class CharacterTable(NamedTuple):
    group: PermGroup
    classes: ConjClassData
    characters: tuple  # of ClassFunction, sorted by (degree, values)
    degrees: tuple

    @property
    def count(self) -> int:
        return len(self.characters)

    def trivial_index(self) -> int:
        for i, chi in enumerate(self.characters):
            if all(v == 1 for v in chi.values):
                return i
        raise InvariantViolationError("no trivial character found")


# ---------------------------------------------------------------------------
# arithmetic in GF(p) and in Z[x]

def _prime_factors(n: int) -> list:
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return factors


@functools.lru_cache(maxsize=None)
def _modulus(e: int, square_bound: int) -> tuple:
    """(p, z): the least prime p = 1 (mod e) with p^2 > square_bound, and
    the primitive e-th root of unity z = a^((p-1)/e) in GF(p) of least a.

    p does not divide the order of a group of exponent e: a prime
    divisor of the order divides e, and p > e.
    """
    p = e + 1
    while p * p <= square_bound or _prime_factors(p) != [p]:
        p += e
    factors = _prime_factors(e)
    for a in range(1, p):
        z = pow(a, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in factors):
            return p, z
    raise InvariantViolationError("no primitive %d-th root of unity mod %d"
                                  % (e, p))


def _echelon(rows: list, p: int) -> tuple:
    """Reduced row echelon form over GF(p) without zero rows, and its
    pivot columns."""
    rows = [list(v) for v in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        hit = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = rows[rank] = [v * inv % p for v in rows[rank]]
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != rank:
                rows[i] = [(a - c * b) % p for a, b in zip(row, top)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _kernel(A: list, p: int) -> list:
    """A basis of the null space {x : A x = 0} over GF(p)."""
    n = len(A)
    reduced, pivots = _echelon(A, p)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        x = [0] * n
        x[free] = 1
        for row, col in zip(reduced, pivots):
            x[col] = -row[free] % p
        basis.append(x)
    return basis


def _charpoly(A: list, p: int) -> list:
    """det(xI - A) over GF(p), constant term first.

    A is brought to upper Hessenberg form by similarity, and the
    polynomial follows from the recurrence over its leading minors
    (H. Cohen, A Course in Computational Algebraic Number Theory,
    algorithm 2.2.9).
    """
    n = len(A)
    H = [row[:] for row in A]
    for m in range(1, n - 1):
        hit = next((i for i in range(m, n) if H[i][m - 1]), None)
        if hit is None:
            continue
        if hit != m:
            H[hit], H[m] = H[m], H[hit]
            for row in H:
                row[hit], row[m] = row[m], row[hit]
        inv = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv % p
            if u:
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(n):
        nxt = [0] + polys[m]
        for j, c in enumerate(polys[m]):
            nxt[j] -= H[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % p
            f = H[i][m] * t
            for j, c in enumerate(polys[i]):
                nxt[j] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n]


def _roots(f: list, p: int) -> list:
    """The distinct roots of f in GF(p), by evaluation at every residue."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if not acc:
            roots.append(x)
    return roots


def _divide_monic(num, den) -> tuple:
    """Quotient and remainder of integer polynomials, den monic;
    coefficients constant term first."""
    rem = list(num)
    k = len(den) - 1
    quot = [0] * max(len(num) - k, 0)
    for i in range(len(num) - 1, k - 1, -1):
        c = rem[i]
        if c:
            quot[i - k] = c
            for j, dj in enumerate(den):
                rem[i - k + j] -= c * dj
    return tuple(quot), tuple(rem[:k])


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """The n-th cyclotomic polynomial, constant term first."""
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_monic(poly, _cyclotomic(d))[0]
    return poly


def _value(spectrum: tuple) -> complex:
    """sum_j m_j exp(2 pi i j / o), exact when it is a rational integer.

    The remainder of sum_j m_j x^j modulo the o-th cyclotomic polynomial
    is the value's unique form in the power basis; it is rational
    exactly when only the constant term is left.
    """
    o = len(spectrum)
    rem = _divide_monic(spectrum, _cyclotomic(o))[1]
    if not any(rem[1:]):
        return complex(rem[0])
    return sum(m * cmath.exp(2j * cmath.pi * j / o)
               for j, m in enumerate(spectrum) if m)


# ---------------------------------------------------------------------------
# the table

def character_table(G: PermGroup, config: Config = DEFAULT) -> CharacterTable:
    """All irreducible complex characters of G.

    Characters are sorted by (degree, rounded real parts, rounded
    imaginary parts of the values), which fixes the table layout.  The
    table is kept in G's cache.  It depends on no setting; config is
    accepted for callers that pass one.
    """
    return G.cached("character_table", lambda: _character_table(G))


def _power_classes(g, class_of) -> tuple:
    """Class indices of g^0, g^1, ..., g^(o-1), o the order of g."""
    out = [0]  # the identity's class is first
    identity = tuple(range(len(g)))
    times_g = right_mul(g)
    x = g
    while x != identity:
        out.append(class_of[x])
        x = times_g(x)
    return tuple(out)


def _split(basis: list, pivot_rows: list, p: int) -> list:
    """The eigenspaces of a class matrix B on an invariant subspace.

    basis is in reduced echelon form, so the coordinates of B b in it
    are the entries of B b at the pivot columns; pivot_rows are the
    sparse rows of B there, as (column, count) pairs.
    """
    m = len(basis)
    A = [[sum(count * b[k] for k, count in row) % p for b in basis]
         for row in pivot_rows]
    if all(A[i][j] == (A[0][0] if i == j else 0)
           for i in range(m) for j in range(m)):
        return [basis]
    spaces = []
    for lam in _roots(_charpoly(A, p), p):
        shifted = [[(a - lam) % p if i == j else a
                    for j, a in enumerate(row)] for i, row in enumerate(A)]
        vectors = [[sum(map(mul, x, column)) % p
                    for column in zip(*basis)]
                   for x in _kernel(shifted, p)]
        spaces.append(_echelon(vectors, p)[0])
    if sum(len(s) for s in spaces) != m:
        raise InvariantViolationError(
            "class matrix is not diagonalizable over GF(%d)" % p)
    return spaces


def _common_lines(classes: ConjClassData, p: int) -> list:
    """Vectors spanning the common eigenlines of the class matrices mod p."""
    r = classes.count
    class_of = classes.class_of
    members = [[] for _ in range(r)]
    for x, k in class_of.items():
        members[k].append(x)
    rows = {}

    def row(i, j):
        if (i, j) not in rows:
            products = map(right_mul(classes.reps[j]), members[i])
            counts = Counter(map(class_of.__getitem__, products))
            rows[i, j] = tuple(counts.items())
        return rows[i, j]

    spaces = [[[int(i == j) for j in range(r)] for i in range(r)]]
    for i in range(1, r):
        if all(len(s) == 1 for s in spaces):
            break
        split = []
        for basis in spaces:
            if len(basis) == 1:
                split.append(basis)
                continue
            pivots = [b.index(1) for b in basis]
            split.extend(_split(basis, [row(i, j) for j in pivots], p))
        spaces = split
    if any(len(s) > 1 for s in spaces):
        raise InvariantViolationError(
            "class matrices leave an eigenspace of dimension %d mod %d"
            % (max(len(s) for s in spaces), p))
    return [s[0] for s in spaces]


def _fourier_rows(o: int, p: int, w: int) -> list:
    """Rows (w^(-jt) / o)_t, j = 0..o-1, of the inverse Fourier transform
    on Z/o over GF(p), w the image of exp(2 pi i / o)."""
    inv_o = pow(o, -1, p)
    w_inv = pow(w, -1, p)
    return [[inv_o * pow(w_inv, j * t, p) % p for t in range(o)]
            for j in range(o)]


def _spectrum(at_powers: list, degree: int, rows: list, p: int) -> tuple:
    """Eigenvalue multiplicities from the values chi(g^t) mod p."""
    spectrum = tuple(sum(map(mul, row, at_powers)) % p for row in rows)
    if any(m > degree for m in spectrum) or sum(spectrum) != degree:
        raise InvariantViolationError(
            "eigenvalue multiplicities %r do not fit degree %d"
            % (spectrum, degree))
    return spectrum


def _character_table(G: PermGroup) -> CharacterTable:
    classes = conjugacy_classes(G)
    r = classes.count
    if r > CLASS_CAP:
        raise CapExceededError(
            "group has %d conjugacy classes, cap is %d" % (r, CLASS_CAP))
    order, sizes = G.order, classes.sizes
    powers = [_power_classes(rep, classes.class_of) for rep in classes.reps]
    inverse = [pw[-1] for pw in powers]
    e = math.lcm(*(len(pw) for pw in powers))
    p, z = _modulus(e, 4 * order)
    fourier = {o: _fourier_rows(o, p, pow(z, e // o, p))
               for o in {len(pw) for pw in powers}}

    modular, rows = [], []
    for v in _common_lines(classes, p):
        if not v[0]:
            raise InvariantViolationError(
                "eigenvector vanishes at the identity class mod %d" % p)
        inv = pow(v[0], -1, p)
        beta = [x * inv % p for x in v]
        norm = sum(sizes[k] * beta[k] * beta[inverse[k]]
                   for k in range(r)) % p
        target = order * pow(norm, -1, p) % p if norm else None
        degree = next((d for d in range(1, math.isqrt(order) + 1)
                       if d * d % p == target), None)
        if degree is None:
            raise InvariantViolationError(
                "no degree d <= sqrt(%d) has d^2 = %r mod %d"
                % (order, target, p))
        values = [degree * b % p for b in beta]
        spectra = tuple(_spectrum([values[c] for c in pw], degree,
                                  fourier[len(pw)], p)
                        for pw in powers)
        modular.append(values)
        rows.append((degree, tuple(_value(s) for s in spectra), spectra))
    _check_orthogonality(modular, sizes, inverse, order, p)
    if sum(d * d for d, _, _ in rows) != order:
        raise InvariantViolationError(
            "degree squares sum to %d, expected %d"
            % (sum(d * d for d, _, _ in rows), order))

    def sort_key(item):
        deg, values, _ = item
        re = tuple(round(v.real, 6) for v in values)
        im = tuple(round(v.imag, 6) for v in values)
        return (deg, re, im)

    rows.sort(key=sort_key)
    functions = tuple(ClassFunction(G, values, True, spectra)
                      for _, values, spectra in rows)
    return CharacterTable(G, classes, functions, tuple(d for d, _, _ in rows))


def _check_orthogonality(table: list, sizes: tuple, inverse: list,
                         order: int, p: int) -> None:
    """Row and column orthogonality of a table of values mod p.

    chi(g^-1) is the complex conjugate of chi(g), so the relations read
    sum_k |C_k| chi_a(g_k) chi_b(g_k^-1) = |G| delta_ab over the classes
    and sum_chi chi(g_j) chi(g_k^-1) = |G| / |C_j| delta_jk over the
    characters.
    """
    r = len(sizes)
    for a, chi in enumerate(table):
        weighted = [sizes[k] * chi[inverse[k]] for k in range(r)]
        for b, psi in enumerate(table):
            want = order % p if a == b else 0
            if sum(map(mul, weighted, psi)) % p != want:
                raise InvariantViolationError(
                    "row orthogonality fails mod %d at (%d, %d)" % (p, a, b))
    columns = list(zip(*table))
    for j in range(r):
        for k in range(r):
            want = order // sizes[j] % p if j == k else 0
            if sum(map(mul, columns[j], columns[inverse[k]])) % p != want:
                raise InvariantViolationError(
                    "column orthogonality fails mod %d at (%d, %d)"
                    % (p, j, k))


# ---------------------------------------------------------------------------
# restriction

def restrict(table: CharacterTable, sub_table: CharacterTable) -> tuple:
    """The restriction matrix from a table to the table of a subgroup K.

    Entry (b, s) is <chi_b|K, psi_s> = |K|^-1 sum_c |C_c| chi_b(k_c)
    conj(psi_s(k_c)) over the classes of K, an exact non-negative
    integer n with n psi_s(1) <= chi_b(1).  It is evaluated in GF(q),
    q the least prime = 1 modulo the exponent of K with q > chi(1) for
    every chi of the table, with each exp(2 pi i j / o) sent to the
    matching power of one primitive root; the residue is then n itself.
    The class fusion and the subgroup check run once, each character's
    spectra are reduced mod q once, and the matrix is kept in the big
    group's cache keyed by K.
    """
    G, K = table.group, sub_table.group

    def compute():
        if not K.is_subgroup_of(G):
            raise SubgroupError("restriction target is not a subgroup")
        at = [table.classes.class_index(rep)
              for rep in sub_table.classes.reps]
        orders = [len(s) for s in sub_table.characters[0].spectra]
        e = math.lcm(*orders)
        q, z = _modulus(e, max(table.degrees) ** 2)
        # the image of exp(2 pi i / o) on each class of K, and of its inverse
        roots = [pow(z, e // o, q) for o in orders]
        inv_roots = [pow(w, -1, q) for w in roots]
        inv_order = pow(K.order, -1, q)

        def residues(spectra, ws):
            out = []
            for spectrum, w in zip(spectra, ws):
                x = 0
                for m in reversed(spectrum):
                    x = (x * w + m) % q
                out.append(x)
            return out

        columns = [residues(psi.spectra, inv_roots)
                   for psi in sub_table.characters]
        matrix = []
        for chi, degree in zip(table.characters, table.degrees):
            x = residues([chi.spectra[k] for k in at], roots)
            weighted = [size * v * inv_order % q
                        for size, v in zip(sub_table.classes.sizes, x)]
            row = tuple(sum(map(mul, weighted, y)) % q for y in columns)
            for n, d in zip(row, sub_table.degrees):
                if n * d > degree:
                    raise InvariantViolationError(
                        "multiplicity %d of a degree-%d character in one "
                        "of degree %d" % (n, d, degree))
            matrix.append(row)
        return tuple(matrix)
    return G.cached(("restriction", K), compute)
