"""Splitting mod n by enumeration: an oracle for the obstruction class of a
torus datum that uses no Fox calculus and no Smith form.

The presentation complex K of the base has dimension 2, so H^3(K; A) = 0, and
the sequence 0 -> A -n-> A -> A/n -> 0 gives H^2(K; A) / n = H^2(K; A/n).  So
the class c of a datum whose action lifts lies in n H^2 exactly when the
datum reduced mod n splits: when some a in (A/n)^X makes every relator r,
folded under the lifts (theta(x), t_x + a_x) with affine products mod n,
(M, v)(M', v') = (M M', v + M v'), come to zero mod n once its offset is
added.  A letter x^-1 is (theta(x), t_x)^-1, with theta(x)^-1 mod n read from
its adjugate.  This is H^2 of the presentation complex, the group the program
reports, so the check holds on every base, aspherical or not.

The fold's vector part is affine in a: each translation enters it once per
letter, times a matrix that does not depend on a.  So each relator is folded
at a = 0 and at each unit vector of (A/n)^X, and the n^(m|X|) corrections are
then enumerated over those values, depth first, stopping at the first that
kills every relator.

Only ``specfile.parse_bundle_file`` is read from bundlesec: the [action]
rows, translations and offsets are read here from the file's own lines.
Klein-bottle fibres are refused.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Sequence, Tuple

from bundlesec.specfile import parse_bundle_file

Matrix = Tuple[Tuple[int, ...], ...]
Affine = Tuple[Matrix, Tuple[int, ...]]


def _ints(text: str, m: int) -> Tuple[int, ...]:
    return tuple(map(int, text.split())) if text.strip() else (0,) * m


def _det(a: Matrix) -> int:
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det(_minor(a, 0, j)) for j in range(len(a)) if a[0][j])


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    return tuple(row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i)


def _inverse_mod(a: Matrix, n: int) -> Matrix:
    """a^-1 mod n = det(a)^-1 adj(a), for det(a) = +-1 (its own inverse)."""
    det = _det(a)
    if det not in (1, -1):
        raise ValueError("action matrix is not unimodular")
    m = len(a)
    return tuple(tuple(det * (-1) ** (i + j) * _det(_minor(a, j, i)) % n for j in range(m))
                 for i in range(m))


def _apply(a: Matrix, v: Sequence[int], n: int) -> Tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) % n for row in a)


def _mul(p: Affine, q: Affine, n: int) -> Affine:
    (a, u), (b, w) = p, q
    cols = tuple(zip(*b))
    return (tuple(_apply(cols, row, n) for row in a),
            tuple((x + y) % n for x, y in zip(u, _apply(a, w, n))))


class ModNDatum:
    """A torus datum read from a bundle text: the base, theta, the
    translations and the offsets, as plain integers."""

    def __init__(self, text: str):
        bundle = parse_bundle_file(text)
        if bundle.fibre_kind == "kb":
            raise ValueError("Klein-bottle fibres are not folded mod n")
        self.m = m = bundle.fibre_rank
        self.generators = bundle.base.generators
        self.relators = [r.letters for r in bundle.base.relators]
        self.theta = {g: tuple(_ints(row, m) for row in bundle.action_lines[g].split(";"))
                      for g in self.generators}
        self.translations = {g: _ints(bundle.cocycle_lines.get(g, ""), m)
                             for g in self.generators}
        self.offsets = [_ints(bundle.cocycle_lines.get(i, ""), m)
                        for i in range(1, len(self.relators) + 1)]

    @property
    def unknowns(self) -> int:
        """m|X|, the coordinates of a correction a: n^(m|X|) of them mod n."""
        return self.m * len(self.generators)

    def _values(self, a: Sequence[int], n: int) -> Tuple[int, ...]:
        """The vector parts of every relator's fold, offset added, mod n,
        under the translations moved by a (m entries per generator)."""
        m = self.m
        eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        images: Dict[Tuple[str, int], Affine] = {}
        for k, g in enumerate(self.generators):
            mat = tuple(tuple(x % n for x in row) for row in self.theta[g])
            vec = tuple((t + d) % n for t, d in zip(self.translations[g], a[k * m:(k + 1) * m]))
            inv = _inverse_mod(self.theta[g], n)
            images[g, 1] = (mat, vec)
            images[g, -1] = (inv, tuple(-x % n for x in _apply(inv, vec, n)))
        out: List[int] = []
        for letters, offset in zip(self.relators, self.offsets):
            value: Affine = (eye, (0,) * m)
            for letter in letters:
                value = _mul(value, images[letter], n)
            if value[0] != eye:
                raise ValueError("the action does not kill a relator")
            out.extend((v + o) % n for v, o in zip(value[1], offset))
        return tuple(out)

    def splits_mod(self, n: int) -> bool:
        """Whether some correction a in (A/n)^X kills every relator mod n."""
        k = self.unknowns
        base = self._values((0,) * k, n)
        steps = []
        for j in range(k):
            unit = tuple(int(i == j) for i in range(k))
            steps.append(tuple((v - b) % n for v, b in zip(self._values(unit, n), base)))

        def search(j: int, acc: Tuple[int, ...]) -> bool:
            if j == k:
                return not any(acc)
            return any(search(j + 1, tuple((x + c * s) % n for x, s in zip(acc, steps[j])))
                       for c in range(n))

        return search(0, base)


def in_n_times_quotient(factors: Sequence[int], coordinates: Sequence[int], n: int) -> bool:
    """Whether a class with these coordinates in the group with these
    invariant factors lies in n times the group: a free coordinate must be
    0 mod n, and a Z/d coordinate divisible by gcd(n, d)."""
    return all(c % gcd(n, d) == 0 for c, d in zip(coordinates, factors))


def moduli(datum: ModNDatum, candidates: Sequence[int], max_lifts: int) -> List[int]:
    """The n among the candidates with at most max_lifts corrections."""
    return [n for n in candidates if n ** datum.unknowns <= max_lifts]
