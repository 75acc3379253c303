"""Seeded torus data over balanced multi-relator bases, as bundle texts.

A base has 2-4 generators and 2-4 relators, in each of which every generator
has exponent sum 0.  The action sends each generator to a power of one
matrix (rank 1 or 2), so every relator is killed and the action lifts.  The
translations and the offsets are small seeded vectors, and a tenth of the
data have none, so that some classes are zero.  The relators' values
differ, so a fault that joins them in another order can move the class,
which no single-relator or surface-group input shows.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

GENERATORS = ("a", "b", "c", "d")
# the matrices whose powers make the actions, by rank
MATRICES: Dict[int, Tuple[Tuple[Tuple[int, ...], ...], ...]] = {
    1: (((-1,),), ((1,),)),
    2: (((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, -1), (1, 0)), ((0, 1), (1, 0)),
        ((-1, 0), (0, -1)), ((1, 2), (0, -1))),
}


def _product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _power(mat, e: int):
    """mat^e for a matrix of determinant +-1, by repeated products."""
    m = len(mat)
    if e < 0:
        if m == 1:
            inverse = mat  # +-1
        else:
            (p, q), (r, s) = mat
            det = p * s - q * r
            inverse = ((det * s, -det * q), (-det * r, det * p))
        return _power(inverse, -e)
    out = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    for _ in range(e):
        out = _product(out, mat)
    return out


def _reduced(letters: Sequence[Tuple[str, int]]) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


def balanced_relator(rng: random.Random, gens: Sequence[str]) -> List[Tuple[str, int]]:
    """A nonempty freely reduced word in which every generator has exponent sum 0."""
    while True:
        letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(2, 6))]
        for g in gens:
            total = sum(s for h, s in letters if h == g)
            letters += [(g, -1 if total > 0 else 1)] * abs(total)
        rng.shuffle(letters)
        word = _reduced(letters)
        if word:
            return word


def _word_text(word: Sequence[Tuple[str, int]]) -> str:
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in word)


def torus_bundle_text(gens: Sequence[str], relators: Sequence[str], action: Dict[str, tuple],
                      translations: Dict[str, Sequence[int]], offsets: Sequence[Sequence[int]]
                      ) -> str:
    """A ``torus m`` bundle file with these relators, matrices and vectors."""
    m = len(next(iter(action.values())))
    lines = ["[base]", f"< {', '.join(gens)} | {', '.join(relators)} >", "[fibre]", f"torus {m}",
             "[action]"]
    lines += [f"{g} = " + " ; ".join(" ".join(map(str, row)) for row in action[g]) for g in gens]
    lines += ["[cocycle]"]
    lines += [f"{g} = " + " ".join(map(str, t)) for g, t in translations.items()]
    lines += [f"offset {i} = " + " ".join(map(str, o)) for i, o in enumerate(offsets, 1)]
    return "\n".join(lines) + "\n"


def powers_of_one_matrix(rng: random.Random, gens: Sequence[str], m: int) -> Dict[str, tuple]:
    """theta(x) = M^e(x) for one seeded M of rank m and exponents in -2..2."""
    mat = rng.choice(MATRICES[m])
    return {g: _power(mat, rng.randint(-2, 2)) for g in gens}


def small_vector(rng: random.Random, m: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-2, 2) for _ in range(m))


def balanced_bundle_texts(seed: int, count: int) -> Iterator[str]:
    """count seeded torus bundle texts over balanced multi-relator bases."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = GENERATORS[:rng.randint(2, 4)]
        m = rng.choice((1, 2))
        relators = [_word_text(balanced_relator(rng, gens)) for _ in range(rng.randint(2, 4))]
        zero = rng.random() < 0.1
        translations = {} if zero else {g: small_vector(rng, m) for g in gens}
        offsets = [] if zero else [small_vector(rng, m) for _ in relators]
        yield torus_bundle_text(gens, relators, powers_of_one_matrix(rng, gens, m),
                                translations, offsets)
