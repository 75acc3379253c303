"""Splitting verdicts for group extensions of surface groups by flat-fibre
groups: the relator obstruction, its quotient, the abelianization test, and
the degree-1/degree-2 cohomology of the base.

A bundle is described by an affine representation of the free group on the
base generators (the set-theoretic lifts), plus one fibre offset per base
relator: the presented extension is (fibre x| F(X)) / << r . offset^-1 >>.
The obstruction s(r) is the fibre value of the relator word under the lifts.

Each base relator r is walked once per spec, by the Fox pass over the
coefficient module: it gives theta(r) and the blocks theta(d r / d x).  J_w
is spanned by the block columns, the delta2 of ``h1_h2_base`` is built from
them, and for a torus fibre s(r) is sum_x theta(d r / d x) t_x plus
theta(r) times the offset (the crossed-homomorphism form of Fox calculus).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .groupring import (
    AffineRep,
    KbAut,
    KbElement,
    LinearRep,
    evaluate_word,
    fox_jacobian,
    kb_center_component,
    kb_inverse,
    kb_pair_multiply,
)
from .words import Presentation, Word, abelianization, exponent_sum
from .zlinalg import (
    AbelianGroup,
    IntMatrix,
    Vector,
    cokernel,
    direct_sum,
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


FoxRow = Tuple[IntMatrix, List[IntMatrix]]


def _fox_rows(base: Presentation, module: LinearRep) -> List[FoxRow]:
    """(theta(r), [theta(d r / d x) for each base generator x]) for every base
    relator r, from one Fox pass each."""
    eye = IntMatrix.identity(module.dim)
    zero = IntMatrix.zeros(module.dim, module.dim)
    rows = []
    for r in base.relators:
        value, jac = fox_jacobian(r, base.generators, module.matrix, IntMatrix.__matmul__,
                                  eye, zero)
        rows.append((value, [jac[x] for x in base.generators]))
    return rows


@dataclass(frozen=True)
class TorusBundleSpec:
    """A Z^m-fibre bundle datum over a presented base."""

    base: Presentation
    fibre_rank: int
    action_cocycle: AffineRep
    relator_offsets: Tuple[Vector, ...] = ()

    def __post_init__(self) -> None:
        if not self.base.relators:
            raise MalformedSpec("base presentation needs at least one relator")
        if self.action_cocycle.dim != self.fibre_rank:
            raise MalformedSpec("affine data does not match the fibre rank")
        for g in self.base.generators:
            if g not in self.action_cocycle.assignment:
                raise MalformedSpec(f"no affine pair for base generator {g!r}")
        offs = self.relator_offsets or tuple(_zero(self.fibre_rank) for _ in self.base.relators)
        if len(offs) != len(self.base.relators):
            raise MalformedSpec("need one fibre offset per base relator")
        for v in offs:
            if len(v) != self.fibre_rank:
                raise MalformedSpec("offset has wrong fibre dimension")
        object.__setattr__(self, "relator_offsets", tuple(tuple(v) for v in offs))

    @property
    def coefficients(self) -> LinearRep:
        """The fibre as a module over the base: theta, the matrix part of the lifts."""
        return self.action_cocycle.linear

    @cached_property
    def fox_rows(self) -> List[FoxRow]:
        """The Fox row of each base relator, made once; s(r) and J_w read it."""
        return _fox_rows(self.base, self.coefficients)

    def relator_values(self) -> Tuple[bool, Tuple[Vector, ...], Tuple[Vector, ...]]:
        """(lifted, s(r) per relator, the vectors whose classes are taken)."""
        values = [s_of_r(self, i) for i in range(len(self.base.relators))]
        svecs = tuple(t for _, t in values)
        # the vectors are projected even when the action does not lift
        return all(m.is_identity() for m, _ in values), svecs, svecs

    @property
    def nonzero_verdict(self) -> str:
        # only a rank-2 fibre is a surface group
        return VERDICT_NO_SECTION if self.fibre_rank == 2 else VERDICT_NO_SPLITTING


@dataclass(frozen=True)
class KbBundleSpec:
    """A Klein-bottle-fibre bundle datum over a presented base."""

    base: Presentation
    action_cocycle: Mapping[str, Tuple[KbAut, KbElement]]
    relator_offsets: Tuple[KbElement, ...] = ()

    def __post_init__(self) -> None:
        if not self.base.relators:
            raise MalformedSpec("base presentation needs at least one relator")
        for g in self.base.generators:
            if g not in self.action_cocycle:
                raise MalformedSpec(f"no Klein-bottle pair for base generator {g!r}")
        offs = self.relator_offsets or tuple(KbElement.identity() for _ in self.base.relators)
        if len(offs) != len(self.base.relators):
            raise MalformedSpec("need one fibre offset per base relator")
        object.__setattr__(self, "relator_offsets", tuple(offs))

    nonzero_verdict = VERDICT_NO_SECTION

    @cached_property
    def coefficients(self) -> LinearRep:
        """The centre of the fibre as a module over the base: the +-1 action zeta."""
        return LinearRep(
            {g: IntMatrix.from_rows([[aut.center_action()]])
             for g, (aut, _) in self.action_cocycle.items()},
            1,
        )

    @cached_property
    def fox_rows(self) -> List[FoxRow]:
        """The Fox row of each base relator, made once; J_w reads it."""
        return _fox_rows(self.base, self.coefficients)

    def evaluate(self, w: Word) -> Tuple[KbElement, KbAut]:
        """Value of a base word under the lifts in fibre x| Aut(fibre)."""
        def image(g: str, s: int) -> Tuple[KbElement, KbAut]:
            aut, k = self.action_cocycle[g]
            if s == 1:
                return k, aut
            inv = aut.inverse()
            return kb_inverse(inv.apply(k)), inv

        return evaluate_word(w, image, kb_pair_multiply, (KbElement.identity(), KbAut.identity()))

    def relator_values(self) -> Tuple[bool, Tuple[Vector, ...], Tuple[Vector, ...]]:
        """(lifted, s(r) per relator, the vectors whose classes are taken).

        Values that do not lift to the centre are reported as (a, b) for
        x^a y^b, and no class is taken.
        """
        totals = [kb_pair_multiply(self.evaluate(r), (off, KbAut.identity()))
                  for r, off in zip(self.base.relators, self.relator_offsets)]
        if not all(aut == KbAut.identity() and v.is_central() for v, aut in totals):
            return False, tuple((v.a, v.b) for v, _ in totals), ()
        svecs = tuple((kb_center_component(v),) for v, _ in totals)
        return True, svecs, svecs


BundleSpec = Union[TorusBundleSpec, KbBundleSpec]


@dataclass(frozen=True)
class ObstructionReport:
    lifted: bool
    s_of_r: Tuple[Vector, ...]
    jw_generators: Tuple[Vector, ...]
    quotient: AbelianGroup
    class_coordinates: Tuple[Vector, ...]
    verdict: str
    nonstandard_quotient: bool = False

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
    (theta(r), sum_x theta(d r / d x) t_x + theta(r) offset).

    The matrix part must be the identity for the action to lift; the vector
    part is then the obstruction element in the fibre.
    """
    value, blocks = spec.fox_rows[relator_index]
    lifts = spec.action_cocycle.assignment
    parts = [value.apply(spec.relator_offsets[relator_index])]
    parts += [blk.apply(lifts[x][1]) for x, blk in zip(spec.base.generators, blocks)]
    return value, tuple(map(sum, zip(*parts)))


def jw_submodule(spec: BundleSpec) -> Tuple[Vector, ...]:
    """Generators of J_w . (coefficient module): the columns of every block
    theta(d r / d x)."""
    return tuple(col for _, blocks in spec.fox_rows for blk in blocks for col in blk.columns())


def obstruction_class(spec: BundleSpec) -> ObstructionReport:
    """The class of each s(r) in the coefficient module modulo J_w."""
    if not isinstance(spec, (TorusBundleSpec, KbBundleSpec)):
        raise MalformedSpec(f"unsupported bundle spec {type(spec).__name__}")
    lifted, svecs, vectors = spec.relator_values()
    jw = jw_submodule(spec)
    quotient = cokernel(IntMatrix.from_columns(list(jw), rows=spec.coefficients.dim))
    coords = tuple(quotient.project(v) for v in vectors)
    if not lifted:
        verdict = VERDICT_ACTION_DOES_NOT_LIFT
    elif all(all(c == 0 for c in cs) for cs in coords):
        verdict = VERDICT_SPLITS
    else:
        verdict = spec.nonzero_verdict
    return ObstructionReport(lifted, svecs, jw, quotient, coords, verdict,
                             nonstandard_quotient=len(spec.base.relators) > 1)


def coinvariants(fibre_rank: int, mats: Sequence[IntMatrix]) -> AbelianGroup:
    """Largest quotient of Z^rank on which all the matrices act trivially."""
    cols: List[Vector] = []
    eye = IntMatrix.identity(fibre_rank)
    for m in mats:
        if m.rows != fibre_rank or m.cols != fibre_rank:
            raise ValueError("matrix size does not match the fibre rank")
        diff = m - eye
        cols.extend(diff.columns())
    return cokernel(IntMatrix.from_columns(cols, rows=fibre_rank))


@dataclass(frozen=True)
class Lemma2Report:
    is_isomorphic: bool
    group_ab: AbelianGroup
    fibre_coinvariants: AbelianGroup
    base_ab: AbelianGroup
    expected: AbelianGroup


def lemma2_check(
    pi: Presentation,
    fibre_gens: Sequence[str],
    base: Presentation,
    action: LinearRep,
) -> Lemma2Report:
    """Abelianization splitting test: compare the abelianization of the whole
    group with (fibre coinvariants) + (base abelianization).

    The fibre coinvariants are computed from the relators of pi supported on
    the fibre generators together with the (theta(x) - I) columns.
    """
    fibre_gens = list(fibre_gens)
    for g in fibre_gens:
        if g not in pi.generators:
            raise ValueError(f"fibre generator {g!r} is not a generator of the group")
    k = len(fibre_gens)
    if action.dim != k:
        raise ValueError("action dimension must equal the number of fibre generators")

    group_ab = abelianization(pi)

    fibre_set = set(fibre_gens)
    cols: List[Vector] = []
    for r in pi.relators:
        used = set(g for g, _ in r.letters)
        if used and used <= fibre_set:
            cols.append(tuple(exponent_sum(r, g) for g in fibre_gens))
    eye = IntMatrix.identity(k)
    for x in base.generators:
        diff = action.matrix(x) - eye
        cols.extend(diff.columns())
    fibre_coinv = cokernel(IntMatrix.from_columns(cols, rows=k))

    base_ab = abelianization(base)
    expected = direct_sum(fibre_coinv, base_ab)
    ok = group_ab.invariant_factors == expected.invariant_factors
    return Lemma2Report(ok, group_ab, fibre_coinv, base_ab, expected)


def h1_h2_base(base: Presentation, module: LinearRep) -> Tuple[AbelianGroup, AbelianGroup]:
    """H^1 and H^2 of the base with coefficients in the given Z^m module,
    from the presentation cochain complex.

    delta1 : A -> A^X,  a |-> ((theta(x) - I) a)_x
    delta2 : A^X -> A^R, (a_x) |-> (sum_x theta(d r / d x) a_x)_r
    """
    m = module.dim
    gens = base.generators
    rels = base.relators
    rows = _fox_rows(base, module)
    for r, (value, _) in zip(rels, rows):
        if not value.is_identity():
            raise MalformedSpec(f"module matrices do not kill the relator {r}")

    # delta1 columns: one per fibre basis vector
    eye = IntMatrix.identity(m)
    diffs = [module.matrix(x) - eye for x in gens]
    d1_cols = [tuple(c for d in diffs for c in d.column(j)) for j in range(m)]

    # delta2 as a block matrix (m|R| x m|X|)
    d2_rows = [tuple(c for blk in blocks for c in blk.data[i])
               for _, blocks in rows for i in range(m)]
    d2 = IntMatrix(m * len(rels), m * len(gens), tuple(d2_rows))

    # one decomposition U d2 V = D: ker d2 is spanned by the V columns over
    # the zero pivots, H^2 is read from U and D, and the coordinates of a
    # delta1 column c in that kernel basis are the free rows of V^-1 c
    dec = smith_normal_form(d2)
    coeff_cols: List[Vector] = []
    for col in d1_cols:
        x = dec.kernel_coordinates(col)
        if x is None:
            raise AssertionError("image of delta1 fell outside the kernel of delta2")
        coeff_cols.append(x)
    h1 = cokernel(IntMatrix.from_columns(coeff_cols, rows=len(dec.free_columns())))
    h2 = dec.cokernel()
    return h1, h2


def semidirect_presentation(
    base: Presentation,
    action: LinearRep,
    fibre_names: Optional[Sequence[str]] = None,
    offsets: Optional[Sequence[Vector]] = None,
) -> Presentation:
    """Present the extension (Z^m x|_theta F(X)) / << r . offset^-1 >>.

    Relators: fibre commutators, conjugation relators g f g^-1 = theta(g)(f),
    and each base relator divided by its fibre offset.
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
