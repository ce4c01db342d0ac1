"""Arithmetic in GF(q) and GF(q^m).

Elements of GF(q^m) are represented as integers whose base-q digits are
the coefficients of a polynomial over GF(q), lowest degree first:

    value = c_0 + c_1*q + c_2*q^2 + ... + c_{m-1}*q^{m-1}

Arithmetic is done modulo a monic irreducible polynomial of degree m.
For q = 2 the integer is exactly the coefficient bitmask, so the packed
value doubles as the row vector of the element under the polynomial
basis {1, x, ..., x^{m-1}}.

For table-friendly fields (q^m <= 2^16) multiplication, inversion and
the Frobenius map go through precomputed exp/log tables keyed by a
primitive element; larger fields fall back to polynomial arithmetic.

Both fields supply the row operations of the `linalg` elimination
kernel, scale_row and sub_scaled_row (dst - f*src), with no method call
per entry: GF(q) reduces mod q inline, a table-backed GF(q^m) gathers
exp[log f + log y].

Both also supply vector operations on int64 arrays of elements, for the
stack-shaped kernel `linalg._rref_stack` and the stack decoder:
vmul, vsub, vneg and vinv (and vfrobenius on GF(q^m)), with numpy
broadcasting.  GF(q) reduces mod q and inverts through a table; a
table-backed GF(q^m) gathers from numpy copies of its exp/log tables,
built on first use, where log 0 points into a zero-filled tail of exp so
a product is one gather, the lookup-table technique of the `galois`
library (https://github.com/mhostetter/galois).  Sums are XOR when
q = 2 and digit-wise mod q otherwise.  A GF(q^m) without tables
(`vectorised` is False) has no vector operations.  They carry other
names than the scalar operations so that counts of those stay counts of
scalar calls.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ParameterError

# Largest field order for which exp/log tables are built.
TABLE_LIMIT = 1 << 16

# Largest field order a field may be built with.  Larger orders are
# refused before the primality test and the irreducible search, whose
# cost grows with the order.
FIELD_LIMIT = 1 << 20

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


def _check_order(q: int, m: int = 1) -> None:
    """Refuse GF(q^m) when q^m > FIELD_LIMIT, without computing a huge q^m."""
    if q < 2 or m < 1:
        return  # rejected by the caller's own checks
    if q > FIELD_LIMIT or m >= FIELD_LIMIT.bit_length() or q ** m > FIELD_LIMIT:
        raise ParameterError(
            f"field GF({q}^{m}) exceeds the largest supported order {FIELD_LIMIT}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Polynomials over GF(q): coefficient lists, lowest degree first.
# ----------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


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
    for tail in itertools.product(range(q), repeat=m):
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


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------

class PrimeField:
    """GF(q) for prime q.  Elements are ints in [0, q)."""

    def __init__(self, q: int):
        _check_order(q)
        if not is_prime(q):
            raise ParameterError(f"base field order {q} is not prime")
        self.q = q
        self.order = q
        self.zero = 0
        self.one = 1
        self._np_inv = None

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ParameterError(f"{a} is not an element of GF({self.q})")
        return a

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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        return pow(a, e, self.q) if e >= 0 else pow(self.inv(a), -e, self.q)

    def scale_row(self, s, row):
        q = self.q
        return [(s * x) % q for x in row]

    def sub_scaled_row(self, dst, f, src):
        """dst - f * src, entrywise."""
        q = self.q
        return [(x - f * y) % q for x, y in zip(dst, src)]

    # -- vector operations (see the module docstring) ---------------------

    def vmul(self, a, b):
        return (a * b) % self.q

    def vsub(self, a, b):
        return (a - b) % self.q

    def vneg(self, a):
        return (-a) % self.q

    def vinv(self, a):
        if self._np_inv is None:
            q = self.q
            self._np_inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)],
                                    dtype=np.int64)
        if not np.all(a):
            raise ZeroDivisionError("0 has no inverse")
        return self._np_inv[a]

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


class ExtField:
    """GF(q^m) with a fixed monic irreducible modulus over prime GF(q).

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, q: int, m: int, modulus=None):
        _check_order(q, m)
        if not is_prime(q):
            raise ParameterError(f"base field order {q} is not prime")
        if m < 1:
            raise ParameterError(f"extension degree must be >= 1, got {m}")
        if modulus is None:
            modulus = find_irreducible(q, m)
        modulus = tuple(int(c) % q for c in modulus)
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
        self.zero = 0
        self.one = 1

        # x as an element (degree-1 monomial); for m == 1 it reduces to a
        # constant, so fall back to the reduction of the monomial.
        self.x = q % self.order if m > 1 else (-modulus[0]) % q

        self._mod_int = None  # q=2 only: modulus as bitmask
        if q == 2:
            self._mod_int = sum(c << i for i, c in enumerate(modulus))

        self._exp = None
        self._log = None
        self.primitive = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()
        self._np_exp = None  # numpy copies for the vector operations
        self._np_log = None
        self._np_qpow = None
        self._np_mul = None
        self._np_add = None

    # -- raw polynomial arithmetic (no tables) --------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.q == 2:
            p = 0
            top = 1 << self.m
            while b:
                if b & 1:
                    p ^= a
                a <<= 1
                if a & top:
                    a ^= self._mod_int
                b >>= 1
            return p
        prod = _poly_mul(list(self.as_row(a)), list(self.as_row(b)), self.q)
        red = _poly_mod(prod, self.modulus, self.q)
        return self.from_row((red + [0] * self.m)[: self.m])

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return out

    def _build_tables(self):
        n1 = self.order - 1
        factors = _prime_factors(n1) if n1 > 1 else []
        prim = None
        for cand in range(1, self.order):
            if all(self._pow_raw(cand, n1 // p) != 1 for p in factors):
                prim = cand
                break
        if prim is None:  # unreachable: the unit group is cyclic
            raise RuntimeError("no primitive element found")
        exp = [0] * (2 * n1 if n1 > 0 else 1)
        log = [0] * self.order
        v = 1
        for i in range(n1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, prim)
        for i in range(n1, 2 * n1):
            exp[i] = exp[i - n1]
        self._exp = exp
        self._log = log
        self.primitive = prim

    # -- public arithmetic ----------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ParameterError(f"{a} is not an element of GF({self.q}^{self.m})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        q = self.q
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % q) * mult
            a //= q
            b //= q
            mult *= q
        return out

    def neg(self, a: int) -> int:
        if self.q == 2:
            return a
        q = self.q
        out = 0
        mult = 1
        while a:
            out += ((q - a % q) % q) * mult
            a //= q
            mult *= q
        return out

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._exp is not None:
            n1 = self.order - 1
            return self._exp[(n1 - self._log[a]) % n1]
        return self._pow_raw(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            n1 = self.order - 1
            return self._exp[(self._log[a] * e) % n1]
        return self._pow_raw(a, e)

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i); the identity for i = 0 and for i = m."""
        if a == 0:
            return 0
        n1 = self.order - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * pow(self.q, i, n1)) % n1]
        return self._pow_raw(a, pow(self.q, i, n1))

    # -- row operations (see the module docstring) -----------------------

    def scale_row(self, s: int, row) -> list[int]:
        if self._exp is None or s == 0:
            return [self.mul(s, x) for x in row]
        exp, log, ls = self._exp, self._log, self._log[s]
        return [exp[ls + log[x]] if x else 0 for x in row]

    def sub_scaled_row(self, dst, f: int, src) -> list[int]:
        """dst - f * src, entrywise."""
        if self._exp is None:
            return [self.sub(x, self.mul(f, y)) for x, y in zip(dst, src)]
        if f == 0:
            return list(dst)
        exp, log, lf = self._exp, self._log, self._log[f]
        if self.q == 2:
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(dst, src)]
        sub = self.sub
        return [sub(x, exp[lf + log[y]]) if y else x for x, y in zip(dst, src)]

    # -- vector operations (see the module docstring) ---------------------

    @property
    def vectorised(self) -> bool:
        return self._exp is not None

    def _vector_tables(self):
        """(exp, log): exp has a zero tail from 2(order-1) on, log[0] points
        into it, so exp[log a + log b] is a * b for zeros too."""
        if self._np_exp is None:
            if self._exp is None:
                raise ParameterError(
                    f"GF({self.q}^{self.m}) has no tables for vector operations")
            n1 = self.order - 1
            exp = np.zeros(4 * n1 + 1, dtype=np.int64)
            exp[: 2 * n1] = self._exp[: 2 * n1]
            log = np.array(self._log, dtype=np.int64)
            log[0] = 2 * n1
            self._np_qpow = np.array([pow(self.q, i, n1) for i in range(self.m)],
                                     dtype=np.int64)
            self._np_exp, self._np_log = exp, log
        return self._np_exp, self._np_log

    def vmul(self, a, b):
        exp, log = self._vector_tables()
        return exp[log[a] + log[b]]

    def vinv(self, a):
        exp, log = self._vector_tables()
        if not np.all(a):
            raise ZeroDivisionError("0 has no inverse")
        n1 = self.order - 1
        return exp[(n1 - log[a]) % n1]

    def vfrobenius(self, a, i):
        """a^(q^i) entrywise; i an int or an int array broadcast against a."""
        exp, log = self._vector_tables()
        n1 = self.order - 1
        e = (log[a] * self._np_qpow[np.asarray(i) % self.m]) % n1
        return np.where(a != 0, exp[e], 0)

    def vsub(self, a, b):
        if self.q == 2:
            return a ^ b
        q = self.q
        out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
        w = 1
        for _ in range(self.m):
            out += ((a // w - b // w) % q) * w
            w *= q
        return out

    def vneg(self, a):
        return self.vsub(0, a)

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
        if len(digits) != self.m:
            raise ParameterError(f"expected {self.m} digits, got {len(digits)}")
        out = 0
        for d in reversed(list(digits)):
            d = int(d)
            if not 0 <= d < self.q:
                raise ParameterError(f"digit {d} out of range for GF({self.q})")
            out = out * self.q + d
        return out

    # -- element text form: m base-q digits, lowest degree first ---------

    def format_element(self, a: int) -> str:
        row = self.as_row(self.check(a))
        if self.q <= 10:
            return "".join(str(d) for d in row)
        return " ".join(str(d) for d in row)

    def parse_element(self, text: str) -> int:
        return self.from_row(parse_digits(text, self.q))

    # -- enumeration and dense tables ------------------------------------

    def elements(self):
        return range(self.order)

    def nonzero_elements(self):
        return range(1, self.order)

    def mul_table(self) -> np.ndarray:
        """Dense order x order multiplication table (small fields only)."""
        if self._np_mul is None:
            if self.order > 4096:
                raise ParameterError("dense tables limited to order <= 4096")
            n1 = self.order - 1
            logs = np.array([0] + [self._log[a] for a in range(1, self.order)])
            exps = np.array(self._exp[:n1] or [1])
            t = exps[(logs[:, None] + logs[None, :]) % n1].copy()
            t[0, :] = 0
            t[:, 0] = 0
            self._np_mul = t
        return self._np_mul

    def add_table(self) -> np.ndarray:
        if self._np_add is None:
            if self.order > 4096:
                raise ParameterError("dense tables limited to order <= 4096")
            t = np.empty((self.order, self.order), dtype=np.int64)
            for a in range(self.order):
                for b in range(a, self.order):
                    v = self.add(a, b)
                    t[a, b] = v
                    t[b, a] = v
            self._np_add = t
        return self._np_add

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
