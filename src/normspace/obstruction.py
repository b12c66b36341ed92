"""The linear isometry group of the sup-norm cube, and a decision procedure
for injective homomorphisms from alternating groups into it.

The isometry group of the k-cube is the signed permutation group of order
2^k k!.  For a source A_n and target the signed permutations of n-1
coordinates, the decision runs cheap obstructions first (element order for
the cyclic A_3, then Lagrange, then simplicity for n >= 5) and falls back
to an exhaustive generator-image search, which certifies the one positive
case in range (n = 4).
"""

import itertools
import math
from functools import lru_cache

from .errors import Frozen, InfeasibleScaleError, UsageError

ENUM_CAP = 10_000


class SignedPerm(Frozen):
    """g e_i = signs[i] * e_{perm[i]} (0-based)."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        k = len(perm)
        if sorted(perm) != list(range(k)) or len(signs) != k:
            raise UsageError("invalid signed permutation data")
        if any(s not in (1, -1) for s in signs):
            raise UsageError("signs must be +-1")
        self._set(perm=perm, signs=signs)

    def __eq__(self, other):
        if other.__class__ is not SignedPerm:
            return NotImplemented
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self):
        return hash((self.perm, self.signs))

    @property
    def k(self):
        return len(self.perm)

    @classmethod
    def identity(cls, k):
        return cls(tuple(range(k)), (1,) * k)

    def __mul__(self, other):
        """Composition: (self * other)(v) = self(other(v))."""
        if self.k != other.k:
            raise UsageError("size mismatch")
        perm = tuple(self.perm[other.perm[i]] for i in range(self.k))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(self.k))
        return SignedPerm(perm, signs)

    def order(self):
        e = SignedPerm.identity(self.k)
        x = self
        o = 1
        while x != e:
            x = x * self
            o += 1
        return o

    def to_json(self):
        return {"perm": list(self.perm), "signs": list(self.signs)}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(obj["perm"]), tuple(obj["signs"]))


@lru_cache(maxsize=None)
def cube_isometries(k):
    """All signed permutations of k coordinates (order 2^k k!)."""
    if 2 ** k * math.factorial(k) > ENUM_CAP * 8:
        raise InfeasibleScaleError(f"cube isometry group of size 2^{k} {k}! is too large")
    out = []
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1, -1), repeat=k):
            out.append(SignedPerm(perm, signs))
    return tuple(out)


class ObstructionReport:
    """`verdict` is "impossible" or "exists"; `reason` is "element-order",
    "lagrange", "simplicity" or "exhaustive-search".  Compared by value, so
    unhashable."""

    __hash__ = None

    def __init__(self, n, verdict, reason, detail="", certificate=None):
        self.n, self.verdict, self.reason = n, verdict, reason
        self.detail, self.certificate = detail, certificate

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def to_json(self):
        return {
            "schema_version": 1,
            "n": self.n,
            "verdict": self.verdict,
            "reason": self.reason,
            "detail": self.detail,
            "certificate": self.certificate,
        }


def _closure(gens, cap=ENUM_CAP):
    e = SignedPerm.identity(gens[0].k)
    found = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                c = g * h
                if c not in found:
                    if len(found) >= cap:
                        raise InfeasibleScaleError("closure cap exceeded")
                    found.add(c)
                    nxt.append(c)
        frontier = nxt
    return found


def verify_embedding_certificate(n, cert):
    """Re-verify a generator-image certificate for A_n (n = 4 route):
    relations s^3 = t^2 = (st)^3 = 1 and image order = |A_n|."""
    if n != 4:
        raise UsageError("certificates are issued for the exhaustive route (n = 4)")
    s = SignedPerm.from_json(cert["s_image"])
    t = SignedPerm.from_json(cert["t_image"])
    if s.order() != 3 or t.order() != 2 or (s * t).order() != 3:
        return False
    return len(_closure([s, t])) == math.factorial(n) // 2


def _exhaustive_search(n):
    """Search generator images of A_4 = <s, t | s^3 = t^2 = (st)^3 = 1> in
    the signed permutations of n-1 coordinates."""
    target_order = 2 ** (n - 1) * math.factorial(n - 1)
    if target_order > ENUM_CAP:
        raise InfeasibleScaleError("exhaustive search target exceeds 10^4 elements")
    group = cube_isometries(n - 1)
    threes = [g for g in group if g.order() == 3]
    twos = [g for g in group if g.order() == 2]
    alt_order = math.factorial(n) // 2
    for s in threes:
        for t in twos:
            if (s * t).order() != 3:
                continue
            if len(_closure([s, t])) == alt_order:
                return {
                    "generators": "s = (1 2 3), t = (1 2)(3 4)",
                    "relations": "s^3 = t^2 = (s t)^3 = 1",
                    "s_image": s.to_json(),
                    "t_image": t.to_json(),
                }
    return None


def injective_hom_decision(n):
    """Decide whether A_n embeds into the isometry group of the (n-1)-cube.

    Checks in order: element-order (complete for the cyclic A_3), Lagrange
    divisibility, the simplicity route for n >= 5, and exhaustive search.
    """
    if n < 3 or n > 12:
        raise UsageError("injective_hom_decision supports 3 <= n <= 12")
    alt = math.factorial(n) // 2
    target = 2 ** (n - 1) * math.factorial(n - 1)

    if n == 3:
        # A_3 is cyclic of order 3: an embedding exists iff the target has
        # an element of order 3
        spectrum = tuple(sorted({g.order() for g in cube_isometries(2)}))
        if 3 not in spectrum:
            return ObstructionReport(
                n, "impossible", "element-order",
                detail=f"A_3 has an element of order 3; the target spectrum is {spectrum}",
            )

    if target % alt != 0:
        return ObstructionReport(
            n, "impossible", "lagrange",
            detail=f"|A_{n}| = {alt} does not divide 2^{n-1} ({n-1})! = {target}",
        )

    if n >= 5:
        # A_n is simple: composing with the quotient onto the permutation
        # part gives a trivial kernel (so A_n embeds in S_{n-1}, impossible
        # by order) or a full kernel (so A_n embeds in the abelian sign
        # part, impossible since A_n is nonabelian)
        return ObstructionReport(
            n, "impossible", "simplicity",
            detail=(
                f"A_{n} is simple; |A_{n}| = {alt} > ({n-1})! = "
                f"{math.factorial(n - 1)} rules out S_{n-1}, and A_{n} is nonabelian"
            ),
        )

    # only n = 4 gets here, and A_4 embeds: a search that misses is broken
    cert = _exhaustive_search(n)
    if cert is None or not verify_embedding_certificate(n, cert):
        raise RuntimeError(f"exhaustive search found no valid embedding of A_{n}")
    return ObstructionReport(
        n, "exists", "exhaustive-search",
        detail=f"verified embedding of A_{n} (order {alt}) into the target",
        certificate=cert,
    )
