"""Splitting verdicts for group extensions of surface groups by flat-fibre
groups: the relator obstruction, its quotient, the abelianization test, and
the degree-1/degree-2 cohomology of the base.

A torus bundle is described by the action theta of the base generators on
the fibre Z^m, one translation t_x per base generator (the set-theoretic lift
of x is (theta(x), t_x)), and one fibre offset per base relator: the
presented extension is (fibre x| F(X)) / << r . offset^-1 >>.  A Klein-bottle
bundle lifts each generator to an automorphism and a fibre element.  The
obstruction s(r) is the fibre value of the relator word under the lifts.
A closed surface of genus h enters as its H_1 = Z^2h, a torus datum: its
class is that of the extension of the base by H_1, whose splitting a
section would force, so only a nonzero class is a verdict on the bundle.

Each base relator r is walked once per spec, by the Fox pass of the base's
cochain complex over the coefficient module A, ``BaseComplex``: it gives
theta(r) and the block row B_r = [theta(d r / d x)]_x, an m x m|X| matrix.
A letter costs one m x m product, which also caps its entries, and one
append of the prefix to its generator's terms; each block is one flat total
of those terms, summed in C, and capped after summing.
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

from functools import cache, cached_property
from math import isqrt
from operator import add, mul, sub
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

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
from .words import Letter, Presentation, Word, _quote
from .zlinalg import (
    AbelianGroup,
    IntMatrix,
    InvariantError,
    SmithDecomposition,
    Vector,
    cokernel,
    smith_normal_form,
)

VERDICT_SPLITS = "SPLITS"
VERDICT_NO_SECTION = "NO_SECTION"
VERDICT_NO_SPLITTING = "NO_SPLITTING"
VERDICT_ACTION_DOES_NOT_LIFT = "ACTION_DOES_NOT_LIFT"
VERDICT_JACOBIAN_SPLITS = "JACOBIAN_SPLITS"


class MalformedSpec(ValueError):
    """Raised when bundle data is structurally invalid."""


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


class _OverCap(Exception):
    """Raised by a product of the Fox pass when an entry of its output has
    more than MAX_ENTRY_BITS bits; ``BaseComplex`` names the relator."""


# largest fibre rank with a generated product; its source and compile time
# grow as m^3 (rank 8, the Jacobian of a genus-4 fibre, compiles in a few ms)
KERNEL_MAX_RANK = 8


@cache
def _product_kernel(m: int) -> Callable[[Vector, Vector], Vector]:
    """The product of two flat row-major m x m matrices as one straight-line
    function, ``k(p, q)``, compiled once per rank on first use.  It raises
    ``_OverCap`` when an entry of the product has more than MAX_ENTRY_BITS
    bits, so that the Fox pass caps its running prefix with no call of its
    own per letter.

    Its source is made from integer indices alone, and its file name
    ``<fox product m=...>`` tells the ranks apart in a profile.
    """
    if not 1 <= m <= KERNEL_MAX_RANK:
        raise ValueError(f"no generated product for rank {m}")
    cells = range(m * m)
    entries = (" + ".join(f"a{i + k}*b{k * m + j}" for k in range(m))
               for i in range(0, m * m, m) for j in range(m))
    # each entry is compared with the cap as it stands in a local: cheaper
    # than max and min of the tuple at every rank up to the bound
    source = (f"def k(p, q):\n"
              f"    {', '.join(f'a{c}' for c in cells)}, = p\n"
              f"    {', '.join(f'b{c}' for c in cells)}, = q\n"
              + "".join(f"    c{c} = {entry}\n" for c, entry in zip(cells, entries))
              + f"    if {' and '.join(f'LO <= c{c} <= HI' for c in cells)}:\n"
              f"        return ({', '.join(f'c{c}' for c in cells)},)\n"
              f"    raise OverCap\n")
    namespace: dict = {"LO": -_ENTRY_CAP, "HI": _ENTRY_CAP, "OverCap": _OverCap}
    exec(compile(source, f"<fox product m={m}>", "exec"), namespace)
    return namespace["k"]


def _generic_product(p: Vector, q: Vector) -> Vector:
    """The product of two flat row-major square matrices, by rows of p and
    columns of q: the product of the ranks above KERNEL_MAX_RANK.  Like the
    generated product, it raises ``_OverCap`` on an entry over the cap."""
    m = isqrt(len(q))
    cols = [q[j::m] for j in range(m)]
    out = tuple(sum(map(mul, p[k:k + m], col)) for k in range(0, m * m, m) for col in cols)
    if _over_cap(out):
        raise _OverCap
    return out


class BaseComplex:
    """The base's presentation cochain complex over the module A up to degree
    2, read by split-check and cohomology alike: ``fox_rows``, (theta(r), B_r)
    for each base relator r from one Fox pass, B_r the m x m|X| block row
    [theta(d r / d x)]_x in generator order; ``delta2`` : A^X -> A^R, the B_r
    stacked; ``smith``, delta2's one Smith form; ``h2``, its cokernel
    A^R / delta2 A^X.  delta2, smith and h2 are made when first read.

    The pass runs on flat row-major tuples of m^2 ints.  Each letter's image
    is made flat once per complex, in a table that the pass reads in C, so a
    letter costs one product of the flat prefix by that image and one
    append, and builds no IntMatrix.  Each block is one flat total of its
    "+" and "-" terms, a C-level map(sum, zip(...)) per sign that has more
    than one term, formed after the walk and at each of its folds; only
    theta(r) and B_r become IntMatrix.
    The product is the generated ``_product_kernel(m)`` when
    m <= KERNEL_MAX_RANK, else ``_generic_product``.  Every entry is capped
    at MAX_ENTRY_BITS: by the product on the running prefix at each letter,
    so that large entries stop the pass early, and here on the blocks,
    after summing.
    """

    def __init__(self, base: Presentation, module: LinearRep):
        m = module.dim
        starts = range(0, m * m, m)
        product = _product_kernel(m) if 1 <= m <= KERNEL_MAX_RANK else _generic_product
        images = {(g, s): sum(module.matrix(g, s).data, ()) for g in base.generators
                  for s in (1, -1)}
        eye = tuple(int(i == j) for i in range(m) for j in range(m))
        zero = (0,) * (m * m)

        def total(plus: List[Vector], minus: List[Vector]) -> Vector:
            # a sign's terms summed entrywise in C; zip and sum cost about
            # 0.1 us an entry, more than a short relator's few terms, so one
            # term is its own sum and none sum to zero
            pos = map(sum, zip(*plus)) if len(plus) > 1 else plus[0] if plus else zero
            neg = map(sum, zip(*minus)) if len(minus) > 1 else minus[0] if minus else zero
            return tuple(map(sub, pos, neg))

        self.fox_rows: List[Tuple[IntMatrix, IntMatrix]] = []
        self._width = m * len(base.generators)  # of delta2
        for i, r in enumerate(base.relators, 1):
            try:
                # theta(r) is the eye or the last product, which capped it
                value, jac = fox_jacobian(r, base.generators, images.__getitem__, product,
                                          eye, total)
                blocks = [jac[x] for x in base.generators]
                if any(map(_over_cap, blocks)):
                    raise _OverCap
            except _OverCap:
                raise MalformedSpec(f"relator {i} evaluates to an entry of more than "
                                    f"{MAX_ENTRY_BITS} bits") from None
            block_row = tuple(tuple(c for b in blocks for c in b[k:k + m]) for k in starts)
            self.fox_rows.append((IntMatrix(m, m, tuple(value[k:k + m] for k in starts)),
                                  IntMatrix(m, self._width, block_row)))

    @cached_property
    def delta2(self) -> IntMatrix:
        data = tuple(row for _, block_row in self.fox_rows for row in block_row.data)
        return IntMatrix(len(data), self._width, data)

    @cached_property
    def smith(self) -> SmithDecomposition:
        return smith_normal_form(self.delta2)

    @cached_property
    def h2(self) -> AbelianGroup:
        return self.smith.cokernel()


class _BundleDatum:
    """What the torus and Klein-bottle data share: the base, the module A,
    the checks on the lifts and offsets, and the base's cochain complex."""

    base: Presentation
    coefficients: LinearRep
    relator_offsets: Tuple
    zero_verdict = VERDICT_SPLITS

    def _check(self, lifts: Sequence[Mapping[str, object]], zero_offset: object) -> None:
        """Check that each of the lifts' mappings has every base generator and
        that there is one offset per relator: none over a free base, which splits."""
        for g in self.base.generators:
            if not all(g in lift for lift in lifts):
                raise MalformedSpec(f"no lift for base generator {g!r}")
        offs = self.relator_offsets or (zero_offset,) * len(self.base.relators)
        if len(offs) != len(self.base.relators):
            raise MalformedSpec("need one fibre offset per base relator")
        self.relator_offsets = tuple(offs)

    @cached_property
    def complex(self) -> BaseComplex:
        """The base's cochain complex over A, made once; s(r), J_w and the class read it."""
        return BaseComplex(self.base, self.coefficients)


class TorusBundleSpec(_BundleDatum):
    """A Z^m-fibre bundle datum over a presented base: the action theta of
    the base generators on the fibre, the translation of each generator's
    lift, and the fibre offset of each relator."""

    def __init__(self, base: Presentation, coefficients: LinearRep,
                 translations: Mapping[str, Vector], relator_offsets: Tuple[Vector, ...] = ()):
        self.base = base
        self.coefficients = coefficients
        self.translations = translations
        self.relator_offsets = relator_offsets
        m = self.fibre_rank
        self._check((self.coefficients.assignment, self.translations), (0,) * m)
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


class SurfaceBundleSpec(TorusBundleSpec):
    """A closed-surface-fibre datum read on H_1 of the fibre, Z^2h: the torus
    datum of the extension of the base by H_1.  A nonzero class rules out a
    section; a zero class only says that this H_1 extension splits."""

    nonzero_verdict = VERDICT_NO_SECTION
    zero_verdict = VERDICT_JACOBIAN_SPLITS


class KbBundleSpec(_BundleDatum):
    """A Klein-bottle-fibre bundle datum over a presented base."""

    def __init__(self, base: Presentation, action_cocycle: Mapping[str, Tuple[KbAut, KbElement]],
                 relator_offsets: Tuple[KbElement, ...] = ()):
        self.base = base
        self.action_cocycle = action_cocycle
        self.relator_offsets = relator_offsets
        self._check((self.action_cocycle,), KbElement.identity())

    nonzero_verdict = VERDICT_NO_SECTION

    @cached_property
    def coefficients(self) -> LinearRep:
        """The centre of the fibre as a module over the base: the +-1 action zeta."""
        return LinearRep(
            {g: IntMatrix.from_rows([[aut.eps]]) for g, (aut, _) in self.action_cocycle.items()}, 1)

    @cached_property
    def lifts(self) -> Mapping[Letter, Tuple[KbElement, KbAut]]:
        """The lift of each letter (gen, +-1) in fibre x| Aut(fibre), made
        once, so that each automorphism is inverted once."""
        table = {}
        for g, (aut, k) in self.action_cocycle.items():
            inv = aut.inverse()
            table[g, 1] = k, aut
            table[g, -1] = kb_inverse(inv.apply(k)), inv
        return table

    def evaluate(self, w: Word) -> Tuple[KbElement, KbAut]:
        """Value of a base word under the lifts in fibre x| Aut(fibre)."""
        return evaluate_word(w, self.lifts.__getitem__, kb_pair_multiply,
                             (KbElement.identity(), KbAut.identity()))

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


class ObstructionReport(NamedTuple):
    lifted: bool
    s_of_r: Tuple[Vector, ...]
    quotient: AbelianGroup
    class_coordinates: Tuple[Vector, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "lifted": self.lifted,
            "s_of_r": [list(v) for v in self.s_of_r],
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
    value, block_row = spec.complex.fox_rows[relator_index]
    t = tuple(c for x in spec.base.generators for c in spec.translations[x])
    return value, _flat_add(value.apply(spec.relator_offsets[relator_index]), block_row.apply(t))


def jw_submodule(spec: BundleSpec) -> Tuple[Vector, ...]:
    """Generators of J_w . (coefficient module): the columns of every block row
    B_r = [theta(d r / d x)]_x.  No command reports them: over more than one
    relator they do not span delta2's image, whose cokernel is the quotient."""
    return tuple(col for _, block_row in spec.complex.fox_rows for col in block_row.columns())


def obstruction_class(spec: BundleSpec) -> ObstructionReport:
    """The class of S = (s(r))_r in H^2 = A^R / delta2 A^X, where A is the
    coefficient module: one class for all the relators; a free base SPLITS.

    ``class`` holds the coordinates of S, read from delta2's Smith form, or
    nothing when a Klein-bottle value does not lift to the centre.  For one
    relator delta2 is B_r, whose columns span J_w, so the quotient is A / J_w.
    """
    lifted, svecs, joined = spec.relator_values()
    cx = spec.complex
    coords = () if joined is None else (cx.smith.project(joined),)
    verdict = (VERDICT_ACTION_DOES_NOT_LIFT if not lifted
               else spec.nonzero_verdict if any(coords[0])
               else spec.zero_verdict if spec.base.relators else VERDICT_SPLITS)
    return ObstructionReport(lifted, svecs, cx.h2, coords, verdict)


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


class Lemma2Report(NamedTuple):
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
    A = [theta(x) - I]_x.  diag(I, U) M diag(V, I) has the columns d_i e_i
    and (exponent sums, -U offset_r).  A row with pivot 1 is killed by its
    own column and drops out, so M has the cokernel of a small matrix: the
    base rows, then the fibre rows the cokernel of A keeps (its torsion rows,
    then its free rows, those with pivot 0 or none), one column d_i e_i for
    each torsion row, and the relator columns on the kept rows.  The split
    twin is the same small matrix with zero offsets.
    """
    m = action.dim
    n = len(base.generators)
    sums = base.exponent_matrix()
    if len(offsets) != len(base.relators):
        raise ValueError("need one offset per relator")
    dec = smith_normal_form(_action_block(m, [action.matrix(x) for x in base.generators]))
    torsion = dec.torsion_rows
    kept = torsion + dec.free_rows
    # -U offset_r, as m rows of one entry per relator, from the row log
    shifted = dec.left_apply([[-off[i] for off in offsets] for i in range(m)])
    pad = (0,) * len(torsion)
    base_rows = tuple(pad + row for row in sums.data)
    pivot_rows = [tuple(dec.diagonal[i] if i == j else 0 for j in torsion) for i in kept]
    # pi^ab, then its split twin
    group_ab, expected = (
        cokernel(IntMatrix(n + len(kept), len(torsion) + len(offsets),
                           base_rows + tuple(p + f for p, f in zip(pivot_rows, fibre_rows))))
        for fibre_rows in ([tuple(shifted[i]) for i in kept], [(0,) * len(offsets)] * len(kept)))
    return Lemma2Report(group_ab.invariant_factors == expected.invariant_factors,
                        group_ab, expected)


def h1_h2_base(base: Presentation, module: LinearRep) -> Tuple[AbelianGroup, AbelianGroup]:
    """H^1 and H^2 of the base with coefficients in the given Z^m module,
    from the presentation cochain complex.

    delta1 : A -> A^X,  a |-> ((theta(x) - I) a)_x
    delta2 : A^X -> A^R, (a_x) |-> (sum_x theta(d r / d x) a_x)_r

    H^2 is the h2 of one ``BaseComplex``, the cokernel of its delta2.  H^1 is
    read from two Smith forms: ker delta2 is a saturated sublattice of
    C^1 = A^X, so C^1 / im delta1 is H^1 + C^1 / ker delta2 with the second
    summand free.  H^1 therefore has the torsion of coker delta1 and rank
    m|X| - rank delta1 - rank delta2.  delta1 and its transpose, m x m|X|,
    have the same pivots, so the torsion is that of the cokernel of delta1^T,
    the wide matrix, which is the cheaper to reduce; both ranks are the
    Smith forms' ``rank``.  A relator that the module does not kill is
    named, clipped to QUOTE_CHARS characters.
    """
    m = module.dim
    cx = BaseComplex(base, module)
    for r, (value, _) in zip(base.relators, cx.fox_rows):
        if not value.is_identity():
            raise MalformedSpec(f"module matrices do not kill the relator {_quote(str(r), str)}")

    # delta1^T (m x m|X|): the blocks (theta(x) - I)^T = theta(x)^T - I side by side
    d1t = _action_block(m, [module.matrix(x).transpose() for x in base.generators])
    d1 = d1t.transpose()

    d2 = cx.delta2
    if any(any(row) for row in (d2 @ d1).data):
        raise InvariantError("delta2 . delta1 != 0")

    dec1 = smith_normal_form(d1t)
    torsion = dec1.cokernel().torsion
    return AbelianGroup(torsion + (0,) * (d2.cols - dec1.rank - cx.smith.rank)), cx.h2


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
        offsets = [(0,) * m for _ in base.relators]

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
