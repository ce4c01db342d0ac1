"""Arithmetic in GF(q) and GF(q^m).

Elements of GF(q^m) are represented as integers whose base-q digits are
the coefficients of a polynomial over GF(q), lowest degree first:

    value = c_0 + c_1*q + c_2*q^2 + ... + c_{m-1}*q^{m-1}

Arithmetic is done modulo a monic irreducible polynomial of degree m.
For q = 2 the integer is exactly the coefficient bitmask, so the packed
value doubles as the row vector of the element under the polynomial
basis {1, x, ..., x^{m-1}}.

Every field is table-backed: FIELD_LIMIT bounds the order at 2^16, and
each GF(q^m) builds exp/log tables keyed by a primitive element at
construction.  Multiplication by c is GF(q)-linear on digit rows, so one
product of every element's digits with its m x m matrix M_c gives the
whole permutation a -> a*c; the least c whose cycle through 1 holds
every unit is the primitive element, and that cycle is the exp table,
as the `galois` library builds its tables.  Multiplication, inversion,
powers and the Frobenius map are lookups in those tables.  Zero is a
table entry: log 0 = 2(order-1) points into a zero tail of exp, which
holds 4(order-1)+1 entries, so exp[log a + log b] is a*b for every a and
b and no product tests for zero.  inv, pow and frobenius scale a log
rather than add two, so they keep their zero case.

Each field reads a caller's values itself, arrays with read and lists
with elements_of: ragged rows and entries that are not integers are
refused with a ParameterError, then GF(q) takes the rest mod q and
GF(q^m) refuses a non-element with check's message.  numpy holds an int
past int64 as a float64 or an object array, which read takes entry by
entry.  Both fields supply the rows of the `linalg` elimination kernel:
their row form, made from a 2-D int64 array of elements by pack and read
back by unpack (a column range) and column (one column's entries), and
the row operations scale_row and sub_scaled_row (dst - f*src) on that
form.  GF(2) packs a row into one Python int, bit c holding column c,
for any width, so its row operations are a XOR; GF(q^m) and odd GF(q)
keep a list of entries per row.  GF(q) also reads a column range of each
row as one GF(q^m) element, contract (a shift and a mask at GF(2)), for
the packets a left inverse un-mixes.  They also supply the inner product
dot of `linalg.matvec` and `linalg.matmul`, on lists.  None of these
calls mul per entry: GF(q) reduces mod q inline, GF(q^m) gathers
exp[log f + log y] and sums with XOR in GF(2^m), `_digitwise` at odd q.

Both also supply vector operations on int64 arrays of elements, for the
batch-last stack kernel `linalg._rref_stack` and the stack decoder:
vmul, vsub, vneg and vinv (and vfrobenius on GF(q^m)), with numpy
broadcasting; their inputs must be elements, reduced.  GF(q) reduces mod
q, as AND and XOR at q = 2 like its rows, and inverts through a table.
GF(q^m) gathers from numpy copies of the same exp/log tables, so a
product is one gather, the lookup-table technique of the `galois` library
(https://github.com/mhostetter/galois); vinv and vfrobenius are one
gather each, from an inverse table and an m x order table of Frobenius
powers.  All are built on first use, never by the constructor.  Every
GF(q^m) sum, scalar or vector, is one rule, `ExtField._digitwise`: XOR
when q = 2, else digit-wise mod q in one pass over the m base-q digits.
Vector operations carry other names than the scalar operations so that
counts of those stay counts of scalar calls.  What both fields do alike
is defined once, in their base `_Field`: read and elements_of up to the
field's own rules, div, the list row form, vneg, vinv (a gather from the
field's `_inv_table`) and elements.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import index

import numpy as np

from .errors import ParameterError, read_count

# Largest field order a field may be built with, and so the largest
# exp/log table.  Larger orders are refused before the primality test
# and the irreducible search, whose cost grows with the order.
FIELD_LIMIT = 1 << 16

# Elements per float64 product while the tables are built: bounds the
# build's temporaries at a few MB at any order.
_TABLE_CHUNK = 1 << 13

# Monic irreducible polynomials over GF(2), degree 1..16, as coefficient
# tuples lowest degree first.  These are the usual primitive polynomials
# (x^4+x+1 -> (1,1,0,0,1), etc.); all are re-validated at field build.
DEFAULT_MODULI_GF2 = {
    1: (1, 1),
    2: (1, 1, 1),
    3: (1, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (1, 0, 1, 0, 0, 1),
    6: (1, 1, 0, 0, 0, 0, 1),
    7: (1, 0, 0, 1, 0, 0, 0, 1),
    8: (1, 0, 1, 1, 1, 0, 0, 0, 1),
    9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    13: (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    14: (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    15: (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    16: (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
}


def _read_order(q, m=1) -> tuple[int, int]:
    """q and m >= 1 read as counts; GF(q^m) refused when q^m > FIELD_LIMIT,
    without computing a huge q^m.  q < 2 is left to the caller's is_prime."""
    q, m = read_count(q, "q", None), read_count(m, "m", 1)
    if q > 1 and q ** min(m, FIELD_LIMIT.bit_length()) > FIELD_LIMIT:
        raise ParameterError(
            f"field GF({q}^{m}) exceeds the largest supported order {FIELD_LIMIT}")
    return q, m


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ----------------------------------------------------------------------
# Polynomials over GF(q): coefficient lists, lowest degree first.
# ----------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, mod, q):
    """Remainder of a by monic mod, both lowest-degree-first."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % q
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % q
    return _poly_trim(a[:dm] if len(a) > dm else a)


def is_irreducible(modulus, q: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    mod = _poly_trim(list(modulus))
    deg = len(mod) - 1
    if deg < 1 or mod[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_mod(mod, divisor, q):
                return False
    return True


def find_irreducible(q: int, m: int) -> tuple[int, ...]:
    """Deterministic search for a monic irreducible of degree m over GF(q)."""
    if q == 2 and m in DEFAULT_MODULI_GF2:
        return DEFAULT_MODULI_GF2[m]
    # past degree 1 a zero constant term means x divides, so those come
    # first in this order and are skipped
    lowest = range(1 if m > 1 else 0, q)
    for tail in itertools.product(lowest, *[range(q)] * (m - 1)):
        cand = list(tail) + [1]
        if is_irreducible(cand, q):
            return tuple(cand)
    raise ParameterError(f"no irreducible polynomial of degree {m} over GF({q})")


def parse_digits(text: str, q: int) -> list[int]:
    """The base-q digits on a line of text: one per character when q <= 10
    and the line has no inner whitespace, else whitespace-separated."""
    text = text.strip()
    spaced = q > 10 or any(c.isspace() for c in text)
    tokens = text.split() if spaced else list(text)
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ParameterError(f"non-digit token on line {text!r}")
    return [int(tok) for tok in tokens]


def format_digits(digits, q: int) -> str:
    """The line `parse_digits` reads: contiguous for q <= 10, else spaced."""
    return ("" if q <= 10 else " ").join(str(int(d)) for d in digits)


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------

class _Field:
    """The methods both fields share (module docstring)."""

    def read(self, M, name: str) -> np.ndarray:
        """The caller's array M as an int64 array of elements: ragged rows and
        entries that are not integers are refused, the rest read by the
        field's rule for arrays, `_elements`, or entry by entry, `_element`."""
        try:
            A = np.asarray(M)
        except ValueError:
            raise ParameterError(f"{name} has rows of unequal lengths") from None
        if A.size and A.dtype.kind not in "biu":  # a float, None, or a big int
            flat = np.asarray(M, dtype=object).ravel()
            A = np.array(self.elements_of(flat, f"{name} entries")).reshape(A.shape)
        return self._elements(A)

    def elements_of(self, xs, what: str) -> list[int]:
        """The list xs as elements; a float, say, is refused, not truncated."""
        try:
            return [self._element(index(x)) for x in xs]
        except TypeError:
            raise ParameterError(f"{what} must be integers") from None

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pack(self, A) -> list[list[int]]:
        """The rows of the 2-D int64 array A of elements in the row form."""
        return A.tolist()

    def unpack(self, rows, lo: int, hi: int) -> list[list[int]]:
        """Columns lo..hi-1 of rows in the row form, a list per row."""
        return [row[lo:hi] for row in rows]

    def column(self, rows, c: int) -> list[int]:
        """Column c of rows in the row form, one entry per row."""
        return [row[c] for row in rows]

    def vneg(self, a):
        return self.vsub(0, a)

    def vinv(self, a):
        if not np.all(a):
            raise ZeroDivisionError("0 has no inverse")
        return self._inv_table[a]

    def elements(self):
        return range(self.order)


class PrimeField(_Field):
    """GF(q) for prime q.  Elements are ints in [0, q)."""

    def __init__(self, q: int):
        q, _ = _read_order(q)
        if not is_prime(q):
            raise ParameterError(f"base field order {q} is not prime")
        self.q = q
        self.order = q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.q)

    def pow(self, a, e):
        return pow(a, e, self.q) if e >= 0 else pow(self.inv(a), -e, self.q)

    # -- a caller's values, taken mod q -----------------------------------

    def _element(self, a: int) -> int:
        return a % self.q

    def _elements(self, A):
        A = A.astype(np.int64, copy=False)
        return A & 1 if self.q == 2 else A % self.q

    # -- rows of the elimination kernel: bitmasks at GF(2) ----------------

    def pack(self, A):
        if self.q != 2:
            return super().pack(A)
        bits = np.packbits(A, axis=1, bitorder="little").tolist()
        return [int.from_bytes(row, "little") for row in bits]

    def unpack(self, rows, lo: int, hi: int) -> list[list[int]]:
        if self.q != 2:
            return super().unpack(rows, lo, hi)
        return [[(row >> c) & 1 for c in range(lo, hi)] for row in rows]

    def column(self, rows, c: int) -> list[int]:
        if self.q != 2:
            return super().column(rows, c)
        return [(row >> c) & 1 for row in rows]

    def contract(self, rows, lo: int, hi: int) -> list[int]:
        """Columns lo..hi-1 of rows in the row form, each row read as one
        base-q number, column lo its lowest digit: the GF(q^(hi-lo))
        elements whose expansions they are."""
        if self.q == 2:
            mask = (1 << (hi - lo)) - 1
            return [(row >> lo) & mask for row in rows]
        weights = [self.q ** i for i in range(hi - lo)]
        return [sum(d * w for d, w in zip(row[lo:hi], weights)) for row in rows]

    def scale_row(self, s, row):
        q = self.q
        if q == 2:
            return row if s else 0
        return [(s * x) % q for x in row]

    def sub_scaled_row(self, dst, f, src):
        """dst - f * src, entrywise."""
        q = self.q
        if q == 2:
            return dst ^ src if f else dst
        return [(x - f * y) % q for x, y in zip(dst, src)]

    def dot(self, row, v):
        """sum of row[i] * v[i]."""
        return sum(a * x for a, x in zip(row, v)) % self.q

    # -- vector operations (see the module docstring) ---------------------

    def vmul(self, a, b):
        return a & b if self.q == 2 else (a * b) % self.q

    def vsub(self, a, b):
        return a ^ b if self.q == 2 else (a - b) % self.q

    @cached_property
    def _inv_table(self):
        """inv[a] = a^-1, inv[0] = 0; built on first use."""
        q = self.q
        return np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


class ExtField(_Field):
    """GF(q^m) with a fixed monic irreducible modulus over prime GF(q).

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, q: int, m: int, modulus=None):
        q, m = _read_order(q, m)
        if not is_prime(q):
            raise ParameterError(f"base field order {q} is not prime")
        if modulus is None:
            modulus = find_irreducible(q, m)
        try:  # digits, refused rather than truncated or reduced
            modulus = tuple(index(c) for c in modulus)
        except TypeError:
            raise ParameterError("modulus coefficients must be integers") from None
        if not all(0 <= c < q for c in modulus):
            raise ParameterError(f"modulus coefficients must be digits 0..{q - 1}")
        if len(modulus) != m + 1:
            raise ParameterError(
                f"modulus must have {m + 1} coefficients, got {len(modulus)}"
            )
        if modulus[-1] != 1:
            raise ParameterError("modulus must be monic")
        if not is_irreducible(modulus, q):
            raise ParameterError(f"modulus {modulus} is reducible over GF({q})")

        self.q = q
        self.m = m
        self.modulus = modulus
        self.order = q ** m
        self.base = PrimeField(q)
        self._weights = tuple(q ** i for i in range(m))  # of the base-q digits
        self._exp, self._log, self.primitive = self._tables()

    # -- construction of the tables --------------------------------------

    def _mul_matrix(self, b: int) -> np.ndarray:
        """The m x m GF(q) matrix M_b of a -> a*b on digit rows: row j holds
        the digits of b*x^j, row j-1 shifted up one degree less its top
        digit times the modulus."""
        q, m = self.q, self.m
        low = np.array(self.modulus[:m], dtype=np.int64)
        M = np.zeros((m, m), dtype=np.int64)
        M[0] = self.as_row(b)
        for j in range(1, m):
            M[j, 1:] = M[j - 1, :-1]
            M[j] = (M[j] - M[j - 1, -1] * low) % q
        return M

    def _tables(self):
        """(exp, log, primitive): exp[i] = primitive^i over two periods,
        then 2(order-1)+1 zeros; log 0 = 2(order-1) points into them.

        The digits of every element times M_c, a float64 product mod q
        (exact: its sums stay <= m(q-1)^2 < 2^53), is the permutation
        a -> a*c; its cycle through 1 is the subgroup <c>.  The primitive
        element is the least c whose cycle holds all order - 1 units, and
        that cycle is exp.  The elements of a shorter cycle lie in a
        proper subgroup, so they are skipped as candidates."""
        q, m, n1 = self.q, self.m, self.order - 1
        weights = np.array(self._weights, dtype=np.float64)
        # row a holds the digits of a, lowest first; q < 2^16
        digits = np.indices((q,) * m, dtype=np.uint16).T.reshape(-1, m)
        perm = np.empty(self.order, dtype=np.int64)
        tried = np.zeros(self.order, dtype=bool)
        for c in range(1 if n1 == 1 else 2, self.order):
            if tried[c]:
                continue
            M = self._mul_matrix(c).astype(np.float64)
            # in row chunks, which bound the float64 temporaries; P mod q as
            # P - q floor(P / q): exact on these integers, and several
            # times faster than float64 %, an fmod per entry
            for lo in range(0, self.order, _TABLE_CHUNK):
                P = digits[lo:lo + _TABLE_CHUNK] @ M
                perm[lo:lo + _TABLE_CHUNK] = (P - q * np.floor(P / q)) @ weights
            perm_list = perm.tolist()
            cycle = [1]
            for _ in range(n1 - 1):  # no cycle outgrows the unit group
                v = perm_list[cycle[-1]]
                if v == 1:
                    break
                cycle.append(v)
            if len(cycle) == n1:
                break
            tried[cycle] = True
        else:  # unreachable: the unit group is cyclic
            raise RuntimeError("no primitive element found")
        log = np.full(self.order, 2 * n1, dtype=np.int64)  # log 0 = 2(order-1)
        log[cycle] = np.arange(n1)
        return cycle * 2 + [0] * (2 * n1 + 1), log.tolist(), c

    # -- public arithmetic ----------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ParameterError(f"{a} is not an element of GF({self.q}^{self.m})")
        return a

    _element = check  # a caller's value: refused unless an element

    def _elements(self, A):
        E = A.astype(np.int64, copy=False)
        # one reduction: a negative entry is 2^64 - |x| as uint64
        if E.size and E.view(np.uint64).max() >= self.order:
            self.check(int(A[(A < 0) | (A >= self.order)][0]))
        return E

    def _digitwise(self, a, b, s: int):
        """a + s*b for s = +-1, coefficient by coefficient: XOR when q = 2,
        else one pass over the m base-q digits.  The one rule for sums of
        Python ints and of int64 arrays alike."""
        if self.q == 2:
            return a ^ b
        q, out = self.q, 0
        for w in self._weights:
            out += ((a // w + s * (b // w)) % q) * w
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        return self._digitwise(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        n1 = self.order - 1
        return self._exp[(n1 - self._log[a]) % n1]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        n1 = self.order - 1
        return self._exp[(self._log[a] * e) % n1]

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i); the identity for i = 0 and for i = m."""
        if a == 0:
            return 0
        n1 = self.order - 1
        return self._exp[(self._log[a] * pow(self.q, i, n1)) % n1]

    # -- rows of the elimination kernel (see the module docstring) -------

    def scale_row(self, s: int, row) -> list[int]:
        exp, log, ls = self._exp, self._log, self._log[s]
        return [exp[ls + log[x]] for x in row]

    def sub_scaled_row(self, dst, f: int, src) -> list[int]:
        """dst - f * src, entrywise."""
        exp, log, lf = self._exp, self._log, self._log[f]
        if self.q == 2:
            return [x ^ exp[lf + log[y]] for x, y in zip(dst, src)]
        dw = self._digitwise
        return [dw(x, exp[lf + log[y]], -1) for x, y in zip(dst, src)]

    def dot(self, row, v) -> int:
        """sum of row[i] * v[i]; an entry of row < q is a constant of GF(q)."""
        exp, log, acc = self._exp, self._log, 0
        if self.q != 2:
            dw = self._digitwise
            for a, x in zip(row, v):
                acc = dw(acc, exp[log[a] + log[x]], 1)
            return acc
        for a, x in zip(row, v):
            acc ^= exp[log[a] + log[x]]
        return acc

    # -- vector operations (see the module docstring) ---------------------

    @cached_property
    def _vector_tables(self):
        """(exp, log) as int64 arrays, built on first use."""
        return (np.array(self._exp, dtype=np.int64),
                np.array(self._log, dtype=np.int64))

    @cached_property
    def _inv_table(self):
        """inv[a] = a^-1, inv[0] = 0; built on first use."""
        exp, log = self._vector_tables
        n1 = self.order - 1
        inv = exp[n1 - log % n1]  # log[0] = 2 n1: 0 -> exp[n1] = 1, fixed below
        inv[0] = 0
        return inv

    @cached_property
    def _frobenius_table(self):
        """frob[i, a] = a^(q^i) for 0 <= i < m, int64, m order entries; built
        on first use.  Row i is a -> a^q gathered at row i - 1."""
        exp, log = self._vector_tables
        n1 = self.order - 1
        power = exp[log * self.q % n1]  # log[0] = 2 n1: 0 -> exp[0] = 1, fixed below
        power[0] = 0
        frob = np.empty((self.m, self.order), dtype=np.int64)
        frob[0] = np.arange(self.order)
        for i in range(1, self.m):
            frob[i] = power[frob[i - 1]]
        return frob

    def vmul(self, a, b):
        exp, log = self._vector_tables
        return exp[log[a] + log[b]]

    def vfrobenius(self, a, i):
        """a^(q^i) entrywise; i an int or an int array broadcast against a."""
        return self._frobenius_table[np.asarray(i) % self.m, a]

    def vsub(self, a, b):
        return self._digitwise(a, b, -1)

    # -- row-vector view -------------------------------------------------

    def as_row(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of length m under the polynomial basis."""
        q = self.q
        out = []
        for _ in range(self.m):
            out.append(a % q)
            a //= q
        return tuple(out)

    def from_row(self, digits) -> int:
        """The element of the m base-q digits, lowest degree first, read by
        the base field (a float is refused, not truncated) and refused
        unless digits."""
        D = self.base.read(digits, "digits")
        if D.shape != (self.m,):
            raise ParameterError(f"expected {self.m} digits, got shape {D.shape}")
        for d, x in zip(D.tolist(), digits):
            if d != x:  # read reduced a digit out of range
                raise ParameterError(f"digit {x} out of range for GF({self.q})")
        return int(D @ self.q ** np.arange(self.m, dtype=np.int64))

    # -- element text form: m base-q digits, lowest degree first ---------

    def format_element(self, a: int) -> str:
        return format_digits(self.as_row(self.check(a)), self.q)

    def parse_element(self, text: str) -> int:
        return self.from_row(parse_digits(text, self.q))

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.q == self.q
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.q, self.m, self.modulus))

    def __repr__(self):
        return f"ExtField(q={self.q}, m={self.m}, modulus={self.modulus})"
