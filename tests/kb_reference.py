"""Reference model of Klein-bottle automorphisms for the differential tests.

This is the model the program used before it stored an automorphism as the
three integers (eps, q, eta): an automorphism is the pair of images of x and
y, each a normal form x^a y^b, checked against the defining relation.  It
applies a map by writing x^a y^b as (image of x)^a (image of y)^b with
``kb_power``, composes by applying one map to the other's images, and takes
powers by square and multiply.  ``kb_conjugation`` builds inner
automorphisms from the group law alone.

Only the group law (``kb_multiply``, ``kb_inverse``) is read from the
program.
"""

from __future__ import annotations

from dataclasses import dataclass

from bundlesec.groupring import KbAut, KbElement, kb_center_component, kb_inverse, kb_multiply

X = KbElement(1, 0)
Y = KbElement(0, 1)


def kb_power(p: KbElement, n: int) -> KbElement:
    # y^b x^a = x^a y^((-1)^a b): for even a the factors of p^n commute,
    # for odd a the y-parts cancel in pairs
    if p.a % 2 == 0:
        return KbElement(n * p.a, n * p.b)
    return KbElement(n * p.a, p.b * (n % 2))


@dataclass(frozen=True)
class ImageAut:
    """An automorphism of the Klein-bottle group, by images of x and y.

    Validity requires image_y = y^{+-1} and the x-exponent of image_x to be
    +-1; the defining relation is then automatic (checked anyway).
    """

    image_x: KbElement
    image_y: KbElement

    def __post_init__(self) -> None:
        if self.image_y.a != 0 or self.image_y.b not in (1, -1):
            raise ValueError("image of y must be y or y^-1")
        if self.image_x.a not in (1, -1):
            raise ValueError("image of x must have x-exponent +-1")
        lhs = kb_multiply(kb_multiply(self.image_x, self.image_y), kb_inverse(self.image_x))
        if lhs != kb_inverse(self.image_y):
            raise ValueError("images do not satisfy the defining relation")

    @staticmethod
    def identity() -> "ImageAut":
        return ImageAut(X, Y)

    @staticmethod
    def of(aut: KbAut) -> "ImageAut":
        """The images x^eps y^q and y^eta of the program's (eps, q, eta)."""
        return ImageAut(KbElement(aut.eps, aut.q), KbElement(0, aut.eta))

    def triple(self) -> KbAut:
        """The program's (eps, q, eta) of the same map."""
        return KbAut(self.image_x.a, self.image_x.b, self.image_y.b)

    def apply(self, p: KbElement) -> KbElement:
        return kb_multiply(kb_power(self.image_x, p.a), kb_power(self.image_y, p.b))

    def compose(self, other: "ImageAut") -> "ImageAut":
        """self after other."""
        return ImageAut(self.apply(other.image_x), self.apply(other.image_y))

    def inverse(self) -> "ImageAut":
        p, q = self.image_x.a, self.image_x.b
        eps = self.image_y.b
        return ImageAut(KbElement(p, -q * eps), KbElement(0, eps))

    def power(self, n: int) -> "ImageAut":
        """self^n in O(log |n|) compositions, by square and multiply."""
        out, a = ImageAut.identity(), self
        if n < 0:
            a, n = a.inverse(), -n
        while n:
            if n & 1:
                out = out.compose(a)
            a = a.compose(a)
            n >>= 1
        return out

    def center_action(self) -> int:
        """The +-1 by which the automorphism scales the centre."""
        return kb_center_component(self.apply(KbElement(2, 0)))


def kb_conjugation(g: KbElement) -> ImageAut:
    """The automorphism h |-> g^-1 h g."""
    ginv = kb_inverse(g)
    return ImageAut(kb_multiply(kb_multiply(ginv, X), g), kb_multiply(kb_multiply(ginv, Y), g))
