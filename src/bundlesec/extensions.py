"""Splitting verdicts for group extensions of surface groups by flat-fibre
groups: the relator obstruction, its quotient, the abelianization test, and
the degree-1/degree-2 cohomology of the base.

A torus bundle is described by the action theta of the base generators on
the fibre Z^m, one translation t_x per base generator (the set-theoretic lift
of x is (theta(x), t_x)), and one fibre offset per base relator: the
presented extension is (fibre x| F(X)) / << r . offset^-1 >>.  A Klein-bottle
bundle lifts each generator to an automorphism and a fibre element.  The
obstruction s(r) is the fibre value of the relator word under the lifts.

Each base relator r is walked once per spec, by the Fox pass over the
coefficient module A: it gives theta(r) and the block row
B_r = [theta(d r / d x)]_x, an m x m|X| matrix.  The pass runs on flat
row-major tuples of m^2 ints, and only theta(r) and B_r become ``IntMatrix``.
The B_r stacked are delta2 : A^X -> A^R.  For a torus fibre s(r) is theta(r)
times the offset plus B_r t, where t is the lifts' translations in generator
order (the crossed-homomorphism form of Fox calculus), so changing the
translations by a in A^X changes S = (s(r))_r by delta2 a.  Once the action
lifts (every theta(r) = I), a section exists exactly when S lies in the image
of delta2: the obstruction is the class of S in H^2 = A^R / delta2 A^X, the
group ``h1_h2_base`` reports (K. S. Brown, Cohomology of Groups, IV.3).  No
entry of the walk's running prefix or of its output may exceed
MAX_ENTRY_BITS bits.

The abelianization test (lemma 2) writes no word: pi^ab is the cokernel of
one integer matrix of exponent sums, action columns and offsets, and the
group a split extension would have is the cokernel of the same matrix with
the offsets set to zero, which is block-diagonal.  Both are read through one
Smith form of the action block A = [theta(x) - I]_x, the matrix whose
cokernel is the fibre coinvariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, sub
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .groupring import (
    KbAut,
    KbElement,
    LinearRep,
    evaluate_word,
    fox_jacobian,
    kb_center_component,
    kb_inverse,
    kb_pair_multiply,
)
from .words import Presentation, Word
from .zlinalg import (
    AbelianGroup,
    IntMatrix,
    InvariantError,
    Vector,
    cokernel,
    smith_normal_form,
)

VERDICT_SPLITS = "SPLITS"
VERDICT_NO_SECTION = "NO_SECTION"
VERDICT_NO_SPLITTING = "NO_SPLITTING"
VERDICT_ACTION_DOES_NOT_LIFT = "ACTION_DOES_NOT_LIFT"


class MalformedSpec(ValueError):
    """Raised when bundle data is structurally invalid."""


def _zero(n: int) -> Vector:
    return tuple(0 for _ in range(n))


FoxRow = Tuple[IntMatrix, IntMatrix]

# bit length allowed in theta(r), its blocks and the running prefix of the
# pass; a hyperbolic action raised to a long power passes it long before a
# Smith form of the blocks would end
MAX_ENTRY_BITS = 1024
_ENTRY_CAP = (1 << MAX_ENTRY_BITS) - 1


def _over_cap(entries: Vector) -> bool:
    """Whether some entry has more than MAX_ENTRY_BITS bits."""
    return max(entries) > _ENTRY_CAP or min(entries) < -_ENTRY_CAP


def _flat_add(a: Vector, b: Vector) -> Vector:
    return tuple(map(add, a, b))


def _flat_sub(a: Vector, b: Vector) -> Vector:
    return tuple(map(sub, a, b))


def _fox_rows(base: Presentation, module: LinearRep) -> List[FoxRow]:
    """(theta(r), B_r) for every base relator r, from one Fox pass each, where
    B_r is the m x m|X| block row [theta(d r / d x)]_x in generator order.

    The pass runs on flat row-major tuples of m^2 ints.  Each generator's
    image, for both signs, is kept once as the tuple of its columns, so a
    letter costs one product of a flat prefix by those columns and builds no
    IntMatrix; only theta(r) and B_r become IntMatrix.  Every entry is
    capped at MAX_ENTRY_BITS: on the running prefix at each letter, so that
    large entries stop the pass early, and on the pass's output.
    """
    m = module.dim
    starts = range(0, m * m, m)
    images = {(g, s): tuple(zip(*module.matrix(g, s).data))
              for g in base.generators for s in (1, -1)}
    eye = tuple(int(i == j) for i in range(m) for j in range(m))
    zero = (0,) * (m * m)
    rows = []
    for i, r in enumerate(base.relators, 1):
        too_big = f"relator {i} evaluates to an entry of more than {MAX_ENTRY_BITS} bits"

        def capped_mul(p: Vector, cols: Tuple[Vector, ...]) -> Vector:
            out = tuple(sum(map(mul, p[k:k + m], col)) for k in starts for col in cols)
            if _over_cap(out):
                raise MalformedSpec(too_big)
            return out

        value, jac = fox_jacobian(r, base.generators, lambda g, s: images[g, s], capped_mul,
                                  eye, zero, _flat_add, _flat_sub)
        blocks = [jac[x] for x in base.generators]
        if _over_cap(value) or any(map(_over_cap, blocks)):
            raise MalformedSpec(too_big)
        block_row = tuple(tuple(c for b in blocks for c in b[k:k + m]) for k in starts)
        rows.append((IntMatrix(m, m, tuple(value[k:k + m] for k in starts)),
                     IntMatrix(m, m * len(blocks), block_row)))
    return rows


class _BundleDatum:
    """What the torus and Klein-bottle data share: the base, the module A,
    the checks on the lifts and offsets, and the Fox rows."""

    base: Presentation
    coefficients: LinearRep
    relator_offsets: Tuple

    def _check(self, lifts: Sequence[Mapping[str, object]], zero_offset: object) -> None:
        """Check that the base has a relator, that each of the lifts' mappings
        has every base generator and that there is one offset per relator."""
        if not self.base.relators:
            raise MalformedSpec("base presentation needs at least one relator")
        for g in self.base.generators:
            if not all(g in lift for lift in lifts):
                raise MalformedSpec(f"no lift for base generator {g!r}")
        offs = self.relator_offsets or (zero_offset,) * len(self.base.relators)
        if len(offs) != len(self.base.relators):
            raise MalformedSpec("need one fibre offset per base relator")
        object.__setattr__(self, "relator_offsets", tuple(offs))

    @cached_property
    def fox_rows(self) -> List[FoxRow]:
        """The Fox row of each base relator, made once; s(r), J_w and delta2 read it."""
        return _fox_rows(self.base, self.coefficients)


@dataclass(frozen=True)
class TorusBundleSpec(_BundleDatum):
    """A Z^m-fibre bundle datum over a presented base: the action theta of
    the base generators on the fibre, the translation of each generator's
    lift, and the fibre offset of each relator."""

    base: Presentation
    coefficients: LinearRep
    translations: Mapping[str, Vector]
    relator_offsets: Tuple[Vector, ...] = ()

    def __post_init__(self) -> None:
        m = self.fibre_rank
        self._check((self.coefficients.assignment, self.translations), _zero(m))
        for v in (*(self.translations[g] for g in self.base.generators), *self.relator_offsets):
            if len(v) != m:
                raise MalformedSpec("translation or offset has wrong fibre dimension")

    @property
    def fibre_rank(self) -> int:
        return self.coefficients.dim

    def relator_values(self) -> Tuple[bool, Tuple[Vector, ...], Optional[Vector]]:
        """(lifted, s(r) per relator, S: the s(r) joined in relator order).

        S is projected even when the action does not lift.
        """
        values = [s_of_r(self, i) for i in range(len(self.base.relators))]
        svecs = tuple(t for _, t in values)
        return all(m.is_identity() for m, _ in values), svecs, sum(svecs, ())

    @property
    def nonzero_verdict(self) -> str:
        # only a rank-2 fibre is a surface group
        return VERDICT_NO_SECTION if self.fibre_rank == 2 else VERDICT_NO_SPLITTING


@dataclass(frozen=True)
class KbBundleSpec(_BundleDatum):
    """A Klein-bottle-fibre bundle datum over a presented base."""

    base: Presentation
    action_cocycle: Mapping[str, Tuple[KbAut, KbElement]]
    relator_offsets: Tuple[KbElement, ...] = ()

    def __post_init__(self) -> None:
        self._check((self.action_cocycle,), KbElement.identity())

    nonzero_verdict = VERDICT_NO_SECTION

    @cached_property
    def coefficients(self) -> LinearRep:
        """The centre of the fibre as a module over the base: the +-1 action zeta."""
        return LinearRep(
            {g: IntMatrix.from_rows([[aut.eps]]) for g, (aut, _) in self.action_cocycle.items()}, 1)

    def evaluate(self, w: Word) -> Tuple[KbElement, KbAut]:
        """Value of a base word under the lifts in fibre x| Aut(fibre)."""
        def image(g: str, s: int) -> Tuple[KbElement, KbAut]:
            aut, k = self.action_cocycle[g]
            if s == 1:
                return k, aut
            inv = aut.inverse()
            return kb_inverse(inv.apply(k)), inv

        return evaluate_word(w, image, kb_pair_multiply, (KbElement.identity(), KbAut.identity()))

    def relator_values(self) -> Tuple[bool, Tuple[Vector, ...], Optional[Vector]]:
        """(lifted, s(r) per relator, S: the s(r) joined in relator order).

        Values that do not lift to the centre are reported as (a, b) for
        x^a y^b, and S is None: no class is taken.
        """
        totals = [kb_pair_multiply(self.evaluate(r), (off, KbAut.identity()))
                  for r, off in zip(self.base.relators, self.relator_offsets)]
        if not all(aut == KbAut.identity() and v.is_central() for v, aut in totals):
            return False, tuple((v.a, v.b) for v, _ in totals), None
        svecs = tuple((kb_center_component(v),) for v, _ in totals)
        return True, svecs, sum(svecs, ())


BundleSpec = Union[TorusBundleSpec, KbBundleSpec]


@dataclass(frozen=True)
class ObstructionReport:
    lifted: bool
    s_of_r: Tuple[Vector, ...]
    jw_generators: Tuple[Vector, ...]
    quotient: AbelianGroup
    class_coordinates: Tuple[Vector, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "lifted": self.lifted,
            "s_of_r": [list(v) for v in self.s_of_r],
            "jw": [list(v) for v in self.jw_generators],
            "quotient": str(self.quotient),
            "class": [list(v) for v in self.class_coordinates],
            "verdict": self.verdict,
        }


def s_of_r(spec: TorusBundleSpec, relator_index: int = 0) -> Tuple[IntMatrix, Vector]:
    """Full affine value of a base relator under the lifts, offset included:
    (theta(r), theta(r) offset + B_r t), where B_r = [theta(d r / d x)]_x and
    t is the lifts' translations concatenated in generator order.

    The matrix part must be the identity for the action to lift; the vector
    part is then the obstruction element in the fibre.
    """
    value, block_row = spec.fox_rows[relator_index]
    t = tuple(c for x in spec.base.generators for c in spec.translations[x])
    return value, _flat_add(value.apply(spec.relator_offsets[relator_index]), block_row.apply(t))


def jw_submodule(spec: BundleSpec) -> Tuple[Vector, ...]:
    """Generators of J_w . (coefficient module): the columns of every block row
    B_r = [theta(d r / d x)]_x."""
    return tuple(col for _, block_row in spec.fox_rows for col in block_row.columns())


def _delta2(rows: Sequence[FoxRow], m: int, n_gens: int) -> IntMatrix:
    """delta2 : A^X -> A^R, the block rows B_r stacked (m|R| x m|X|)."""
    return IntMatrix(m * len(rows), m * n_gens,
                     tuple(row for _, block_row in rows for row in block_row.data))


def obstruction_class(spec: BundleSpec) -> ObstructionReport:
    """The class of S = (s(r))_r in H^2 = A^R / delta2 A^X, where A is the
    coefficient module: one class for all the relators together.

    ``class`` holds the one projection of S, or nothing when a Klein-bottle
    value does not lift to the centre.  For one relator delta2 is B_r, whose
    columns span J_w, so the quotient is A / J_w.
    """
    lifted, svecs, joined = spec.relator_values()
    jw = jw_submodule(spec)
    quotient = cokernel(_delta2(spec.fox_rows, spec.coefficients.dim, len(spec.base.generators)))
    coords = () if joined is None else (quotient.project(joined),)
    if not lifted:
        verdict = VERDICT_ACTION_DOES_NOT_LIFT
    elif not any(coords[0]):
        verdict = VERDICT_SPLITS
    else:
        verdict = spec.nonzero_verdict
    return ObstructionReport(lifted, svecs, jw, quotient, coords, verdict)


def _action_block(m: int, mats: Sequence[IntMatrix]) -> IntMatrix:
    """A = [theta(x) - I]_x, the m x m|X| block row of the action matrices
    less the identity, in the given order."""
    rows = []
    for i in range(m):
        row: List[int] = []
        for mat in mats:
            row.extend(mat.data[i])
            row[len(row) - m + i] -= 1
        rows.append(tuple(row))
    return IntMatrix(m, m * len(mats), tuple(rows))


def coinvariants(fibre_rank: int, mats: Sequence[IntMatrix]) -> AbelianGroup:
    """Largest quotient of Z^rank on which all the matrices act trivially:
    the cokernel of [theta(x) - I]_x."""
    for m in mats:
        if m.rows != fibre_rank or m.cols != fibre_rank:
            raise ValueError("matrix size does not match the fibre rank")
    return cokernel(_action_block(fibre_rank, mats))


@dataclass(frozen=True)
class Lemma2Report:
    is_isomorphic: bool
    group_ab: AbelianGroup
    expected: AbelianGroup


def lemma2_check(base: Presentation, action: LinearRep,
                 offsets: Sequence[Vector]) -> Lemma2Report:
    """Abelianization splitting test (lemma 2): if the extension
    pi = (Z^m x|_theta F(X)) / << r . offset_r^-1 >> splits, then pi is the
    semidirect product Z^m x|_theta B, whose abelianization is
    (fibre coinvariants) + B^ab.

    pi^ab is the cokernel of one integer matrix M whose rows are the base
    generators, then the m fibre coordinates: a column (0, column j of
    theta(x) - I) for each x and j, and a column (exponent sums of r,
    -offset_r) for each relator r.  The fibre commutators contribute nothing.
    The expected group is the cokernel of the same columns with the offsets
    set to zero, the abelianization of the split twin: that matrix is
    block-diagonal, diag(exponent sums, [theta(x) - I]_x), so its cokernel is
    B^ab + (fibre coinvariants).

    Both are read from one Smith form U A V = D of the action block
    A = [theta(x) - I]_x, padded to m pivots d_i.  diag(I, U) M diag(V, I)
    has the columns d_i e_i and (exponent sums, -U offset_r).  A row with
    pivot 1 is killed by its own column and drops out, so M has the cokernel
    of a small matrix: the base rows, then the fibre rows with d_i != 1, one
    column d_i e_i for each d_i >= 2, and the relator columns on those rows.
    The split twin is the same small matrix with zero offsets.  Either group
    projects vectors of the lattice of M: the base part unchanged, the fibre
    part through the kept rows of U.
    """
    m = action.dim
    n = len(base.generators)
    sums = base.exponent_matrix()
    if len(offsets) != len(base.relators):
        raise ValueError("need one offset per relator")
    dec = smith_normal_form(_action_block(m, [action.matrix(x) for x in base.generators]))
    diag = dec.diagonal()
    diag += (0,) * (m - len(diag))
    kept = [i for i, d in enumerate(diag) if d != 1]
    torsion = [i for i in kept if diag[i]]
    # -U offset_r, as m rows of one entry per relator, from the row log
    shifted = dec.left_apply([[-off[i] for off in offsets] for i in range(m)])
    pad = _zero(len(torsion))
    base_rows = tuple(pad + row for row in sums.data)
    pivot_rows = [tuple(diag[i] if i == j else 0 for j in torsion) for i in kept]

    def lift() -> IntMatrix:
        # Z^(n + m) -> Z^(n + kept): the identity on the base, U's kept rows on the fibre
        eye = IntMatrix.identity(n).data
        return IntMatrix(n + len(kept), n + m,
                         tuple(row + _zero(m) for row in eye)
                         + tuple(_zero(n) + dec.U.data[i] for i in kept))

    def pi_ab(fibre_rows: Sequence[Vector]) -> AbelianGroup:
        rows = base_rows + tuple(p + f for p, f in zip(pivot_rows, fibre_rows))
        group = cokernel(IntMatrix(n + len(kept), len(torsion) + len(offsets), rows))
        return AbelianGroup(group.invariant_factors, lambda: group.projection @ lift())

    group_ab = pi_ab([tuple(shifted[i]) for i in kept])
    expected = pi_ab([_zero(len(offsets))] * len(kept))
    return Lemma2Report(group_ab.invariant_factors == expected.invariant_factors,
                        group_ab, expected)


def h1_h2_base(base: Presentation, module: LinearRep) -> Tuple[AbelianGroup, AbelianGroup]:
    """H^1 and H^2 of the base with coefficients in the given Z^m module,
    from the presentation cochain complex.

    delta1 : A -> A^X,  a |-> ((theta(x) - I) a)_x
    delta2 : A^X -> A^R, (a_x) |-> (sum_x theta(d r / d x) a_x)_r

    H^2 is the cokernel of delta2.  H^1 is read from two diagonals: ker delta2
    is a saturated sublattice of C^1 = A^X, so C^1 / im delta1 is
    H^1 + C^1 / ker delta2 with the second summand free.  H^1 therefore has
    the torsion of coker delta1 (the pivots >= 2 of delta1) and rank
    m|X| - rank delta1 - rank delta2.
    """
    m = module.dim
    gens = base.generators
    rels = base.relators
    rows = _fox_rows(base, module)
    for r, (value, _) in zip(rels, rows):
        if not value.is_identity():
            raise MalformedSpec(f"module matrices do not kill the relator {r}")

    # delta1 (m|X| x m): the blocks theta(x) - I of the action block stacked
    block = _action_block(m, [module.matrix(x) for x in gens])
    d1 = IntMatrix(m * len(gens), m, tuple(row[k:k + m] for k in range(0, block.cols, m)
                                           for row in block.data))

    d2 = _delta2(rows, m, len(gens))
    if any(any(row) for row in (d2 @ d1).data):
        raise InvariantError("delta2 . delta1 != 0")

    dec1 = smith_normal_form(d1)
    dec2 = smith_normal_form(d2)
    torsion = tuple(d for d in dec1.diagonal() if d >= 2)
    return (AbelianGroup(torsion + (0,) * (d2.cols - dec1.rank - dec2.rank)),
            dec2.cokernel())


def semidirect_presentation(
    base: Presentation,
    action: LinearRep,
    fibre_names: Optional[Sequence[str]] = None,
    offsets: Optional[Sequence[Vector]] = None,
) -> Presentation:
    """Present the extension (Z^m x|_theta F(X)) / << r . offset^-1 >>.

    Relators: fibre commutators, conjugation relators g f g^-1 = theta(g)(f),
    and each base relator divided by its fibre offset.  This is the word-level
    reference for lemma 2: ``abelianization`` of it is the pi^ab that
    ``lemma2_check`` reads from one matrix.  The CLI does not call it; it
    writes sum |e_i| letters for each fibre vector.
    """
    m = action.dim
    if fibre_names is None:
        fibre_names = [f"f{i}" for i in range(m)]
    fibre_names = list(fibre_names)
    if len(fibre_names) != m:
        raise ValueError("need one fibre name per fibre rank")
    if offsets is None:
        offsets = [_zero(m) for _ in base.relators]

    def fibre_word(vec: Sequence[int]) -> Word:
        out = Word.identity()
        for name, e in zip(fibre_names, vec):
            out = out * Word.gen(name, e)
        return out

    relators: List[Word] = []
    for i in range(m):
        for j in range(i + 1, m):
            relators.append(
                Word.gen(fibre_names[i]) * Word.gen(fibre_names[j])
                * Word.gen(fibre_names[i], -1) * Word.gen(fibre_names[j], -1))
    for g in base.generators:
        mat = action.matrix(g)
        for j in range(m):
            image = fibre_word(mat.column(j))
            relators.append(
                Word.gen(g) * Word.gen(fibre_names[j]) * Word.gen(g, -1) * image.inverse())
    for r, off in zip(base.relators, offsets):
        relators.append(r * fibre_word(off).inverse())

    return Presentation(tuple(base.generators) + tuple(fibre_names), tuple(relators))
