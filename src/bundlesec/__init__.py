"""Splitting obstructions for group extensions arising from surface bundles.

Submodules:

* ``zlinalg``       — exact integer linear algebra (Smith form, cokernels)
* ``words``         — free-group words, the presentation DSL, abelianization
* ``groupring``     — word evaluation, Fox derivatives, affine lifts, the Klein-bottle group
* ``extensions``    — the relator obstruction and the abelianization test
* ``transgression`` — the transgression over Z^2: one zig-zag over four Fox rows
* ``mcg``           — the genus-3 example as bundle text, which ``endo`` checks
* ``specfile``      — the sectioned bundle-file format
* ``cli``           — command-line front end

Importing ``cli`` loads neither ``transgression`` nor ``mcg``: the commands
that use them import them when they run.  Records are plain classes or
``typing.NamedTuple``s, so a command's start-up loads no class generator
(nor the ``inspect`` module that one would load).
"""

__version__ = "0.1.0"
