"""Splitting obstructions for group extensions arising from surface bundles.

Submodules:

* ``zlinalg``       — exact integer linear algebra (Smith form, cokernels)
* ``words``         — free-group words, the presentation DSL, abelianization
* ``groupring``     — word evaluation, Fox derivatives, affine lifts, the Klein-bottle group
* ``extensions``    — the relator obstruction and the abelianization test
* ``transgression`` — the transgression over Z^2: one zig-zag over four Fox rows
* ``mcg``           — mapping classes as 6x6 matrices on H_1 (each generator
                      checked once against the form) and the genus-3 example
* ``specfile``      — the sectioned bundle-file format
* ``cli``           — command-line front end
"""

__version__ = "0.1.0"
