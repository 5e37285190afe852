"""Exact arithmetic in the ring U(SO(2)) = Z + sum_{k>=1} Z.

Elements carry one integer coordinate for the full group plus finitely many
integer coordinates indexed by the frequency k of the cyclic subgroup Z_k.
Addition is coordinatewise; the product is twisted:

    (a * b)_0 = a_0 b_0,    (a * b)_k = a_0 b_k + b_0 a_k.

Coordinates are kept in canonical trimmed form (no stored zeros), so
structural equality is ring equality.  All coordinates are range-checked
against 64-bit bounds; exceeding them raises ``OverflowError`` rather than
wrapping.
"""

from dataclasses import dataclass

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _checked_int(value, what="coordinate"):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if not (_INT64_MIN <= value <= _INT64_MAX):
        raise OverflowError(f"{what} {value} exceeds 64-bit integer range")
    return value


@dataclass(frozen=True)
class TomDieckElement:
    """An element of U(SO(2)).

    Parameters
    ----------
    a0 : int
        The SO(2) coordinate.
    zk : mapping, optional
        Map from frequency k (positive int) to the Z_k coordinate.
        Zero values are trimmed away.
    """

    a0: int = 0
    zk: dict = None

    def __post_init__(self):
        _checked_int(self.a0, "SO(2) coordinate")
        trimmed = {}
        for k, v in sorted((self.zk or {}).items()):
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ValueError(f"frequency index must be a positive integer, got {k!r}")
            _checked_int(v, f"Z_{k} coordinate")
            if v != 0:
                trimmed[k] = v
        object.__setattr__(self, "zk", trimmed)

    def coeff(self, k):
        """Z_k coordinate (0 when absent)."""
        return self.zk.get(k, 0)

    def __hash__(self):
        return hash((self.a0, tuple(sorted(self.zk.items()))))

    def __bool__(self):
        return self.a0 != 0 or bool(self.zk)

    def __add__(self, other):
        if not isinstance(other, TomDieckElement):
            return NotImplemented
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, TomDieckElement):
            return star(self, other)
        if isinstance(other, int) and not isinstance(other, bool):
            return scalar_mul(other, self)
        return NotImplemented

    def __rmul__(self, g):
        if isinstance(g, int) and not isinstance(g, bool):
            return scalar_mul(g, self)
        return NotImplemented

    def __neg__(self):
        return scalar_mul(-1, self)

    def __sub__(self, other):
        return add(self, scalar_mul(-1, other))

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.zk.items()))
        return f"TomDieckElement(a0={self.a0}, zk={{{inner}}})"

    def to_json(self):
        """JSON form ``{"so2": int, "zk": {"k": int}}`` with string keys."""
        return {"so2": self.a0, "zk": {str(k): v for k, v in sorted(self.zk.items())}}


#: Additive identity (all coordinates zero).
ZERO = TomDieckElement(0)

#: Multiplicative identity (1, 0, 0, ...).
ONE = TomDieckElement(1)


def add(a, b):
    """Coordinatewise sum, trimmed."""
    zk = dict(a.zk)
    for k, v in b.zk.items():
        zk[k] = zk.get(k, 0) + v
    return TomDieckElement(a.a0 + b.a0, zk)


def star(a, b):
    """Twisted product: (a*b)_0 = a0*b0, (a*b)_k = a0*b_k + b0*a_k."""
    zk = {}
    for k in a.zk.keys() | b.zk.keys():
        zk[k] = a.a0 * b.coeff(k) + b.a0 * a.coeff(k)
    return TomDieckElement(a.a0 * b.a0, zk)


def scalar_mul(g, a):
    """Every coordinate multiplied by the integer g."""
    _checked_int(g, "scalar")
    return TomDieckElement(g * a.a0, {k: g * v for k, v in a.zk.items()})


def product(elements):
    """Left fold of ``star``; the empty product is ONE."""
    out = ONE
    for e in elements:
        out = star(out, e)
    return out
