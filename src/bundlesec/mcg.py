"""The genus-3 example as bundle data: ``endo`` is ``split-check`` of
ENDO_SPEC.

The fibre is the genus-3 surface that bounds (4-holed sphere) x [0,1], two
copies of the holed sphere glued along the four boundary circles, and the
datum is read on its H_1 = Z^6 in the basis (b1, b2, b3, a1, a2, a3): b_i is
the class of the i-th glued circle, a_i that of a loop crossing it once, and
<a_i, b_i> = 1.  Over the genus-3 base, x1, y1, x2, y2, x3, y3 act as the
twists t_x0, t_y0 t_z0 f, t_y0, t_z0 f, t_z0, f t_y0, where x0, y0 and z0 are
the lantern curves of the 0-side (around holes 1 and 2, 2 and 3, 1 and 3)
and f is the hyperelliptic involution, -1 on H_1.  The translations are zero
and the relator's offset is b1.  The module holds no function: the test
suite rebuilds the six matrices from the curves, whose classes it checks
against a triangulated model, and tests/specs/genus3_endo.bundle holds the
same text.
"""

ENDO_SPEC = """\
# the genus-3 example: H_1 of the fibre in the basis (b1, b2, b3, a1, a2, a3)
[base]
< x1, y1, x2, y2, x3, y3 | [x1,y1] [x2,y2] [x3,y3] >
[fibre]
surface 3
[action]
x1 = 1 0 0 1 1 0 ; 0 1 0 1 1 0 ; 0 0 1 0 0 0 ; 0 0 0 1 0 0 ; 0 0 0 0 1 0 ; 0 0 0 0 0 1
y1 = -1 0 0 -1 0 -1 ; 0 -1 0 0 -1 -1 ; 0 0 -1 -1 -1 -2 ; 0 0 0 -1 0 0 ; 0 0 0 0 -1 0 ; 0 0 0 0 0 -1
x2 = 1 0 0 0 0 0 ; 0 1 0 0 1 1 ; 0 0 1 0 1 1 ; 0 0 0 1 0 0 ; 0 0 0 0 1 0 ; 0 0 0 0 0 1
y2 = -1 0 0 -1 0 -1 ; 0 -1 0 0 0 0 ; 0 0 -1 -1 0 -1 ; 0 0 0 -1 0 0 ; 0 0 0 0 -1 0 ; 0 0 0 0 0 -1
x3 = 1 0 0 1 0 1 ; 0 1 0 0 0 0 ; 0 0 1 1 0 1 ; 0 0 0 1 0 0 ; 0 0 0 0 1 0 ; 0 0 0 0 0 1
y3 = -1 0 0 0 0 0 ; 0 -1 0 0 -1 -1 ; 0 0 -1 0 -1 -1 ; 0 0 0 -1 0 0 ; 0 0 0 0 -1 0 ; 0 0 0 0 0 -1
[cocycle]
offset 1 = 1 0 0 0 0 0
"""
