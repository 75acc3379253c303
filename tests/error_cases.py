"""Hostile inputs, one argv each, with the exit code each one documents.

Kept apart from test_src_is_reached.py and free of pytest, so that
tools/same_reports.py runs the same inputs under any interpreter.  Each case
is (exit code, argv, file name, bytes); '{tmp}' in an argv is the directory
that ``write_inputs`` fills.
"""

import pathlib

CASES = (
    (2, ["abelianize", "{tmp}/missing.pres"], None, None),
    # a directory: not a missing file, but no file to read
    (2, ["split-check", "{tmp}"], None, None),
    # no factor after '|': _parse fails at the next token
    (3, ["abelianize", "{tmp}/no_relator.pres"], "no_relator.pres", b"< a | , >\n"),
    # a byte that is not UTF-8, placed by line and column
    (3, ["cohomology", "{tmp}/latin1.bundle"], "latin1.bundle", b"[base]\n< u \xe9 | u >\n"),
    # the repeated name, at its line and column in the file
    (3, ["split-check", "{tmp}/duplicate_generator.bundle"], "duplicate_generator.bundle",
     b"# the base is on line 4\n\n[base]\n< u, v, u | [u,v] >\n[fibre]\ntorus 1\n"
     b"[action]\nu = 1\nv = 1\n"),
    # a digit that int() refuses is no integer
    (3, ["abelianize", "{tmp}/superscript.pres"], "superscript.pres",
     "< x | x^² >\n".encode()),
    # -1 does not kill u: the message formats the relator word
    (4, ["cohomology", "{tmp}/unkilled.bundle"], "unkilled.bundle",
     b"[base]\n< u | u >\n[fibre]\ntorus 1\n[action]\nu = -1\n"),
    # a relator of 1,201 letters that -1 does not kill: the message clips the word
    (4, ["cohomology", "{tmp}/unkilled_long.bundle"], "unkilled_long.bundle",
     b"[base]\n< u, v | " + b"u v " * 600 + b"u >\n[fibre]\ntorus 1\n[action]\nu = -1\nv = 1\n"),
    (4, ["split-check", "{tmp}/repeated_offset.bundle"], "repeated_offset.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\ntorus 1\n[action]\nu = 1\nv = 1\n"
     b"[cocycle]\noffset 1 = 1\noffset 1 = 2\n"),
    # an unknown name and a bad exponent: the name is reported
    (4, ["split-check", "{tmp}/kb_unknown_name.bundle"], "kb_unknown_name.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nkb\n[action]\nu = id\nv = id\n"
     b"[cocycle]\nu = z^a\n"),
    # an empty exponent after '^' is no exponent, in [cocycle] and in [action]
    (4, ["split-check", "{tmp}/kb_empty_exponent.bundle"], "kb_empty_exponent.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nkb\n[action]\nu = id\nv = id\n"
     b"[cocycle]\nu = x^\n"),
    (4, ["split-check", "{tmp}/kb_empty_action_exponent.bundle"],
     "kb_empty_action_exponent.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nkb\n[action]\nu = alpha^\nv = id\n"),
    # a surface fibre: a genus that is not a positive integer, a matrix not of
    # size 2h, and one that does not scale the intersection form by +-1
    (4, ["split-check", "{tmp}/surface_genus_0.bundle"], "surface_genus_0.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nsurface 0\n[action]\nu = 1\nv = 1\n"),
    (4, ["split-check", "{tmp}/surface_genus_x.bundle"], "surface_genus_x.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nsurface x\n[action]\nu = 1\nv = 1\n"),
    (4, ["cohomology", "{tmp}/surface_wrong_size.bundle"], "surface_wrong_size.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nsurface 1\n[action]\n"
     b"u = 1 0 0 ; 0 1 0 ; 0 0 1\nv = 1 0 0 ; 0 1 0 ; 0 0 1\n"),
    (4, ["split-check", "{tmp}/surface_off_the_form.bundle"], "surface_off_the_form.bundle",
     b"[base]\n< u, v | [u,v] >\n[fibre]\nsurface 2\n[action]\n"
     b"u = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\nv = 1 1 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\n"),
    # a valid file first (written below): an error in a later file prints no report at all
    (2, ["split-check", "{tmp}/offset_generator.bundle", "{tmp}/missing.bundle"], None, None),
    (4, ["split-check", "{tmp}/offset_generator.bundle", "{tmp}/no_relator.pres"], None, None),
    (5, ["transgress", "--k", "abc"], None, None),
    # a base generator named 'offset' keeps its translation: SPLITS
    (0, ["split-check", "{tmp}/offset_generator.bundle"], "offset_generator.bundle",
     b"[base]\n< offset, v | [offset,v] >\n[fibre]\ntorus 1\n[action]\noffset = 1\n"
     b"v = 1\n[cocycle]\noffset = 1\n"),
)


def write_inputs(tmp: pathlib.Path) -> list:
    """Write every case's file into tmp; return the argvs that read them."""
    for _, _, name, data in CASES:
        if name:
            (tmp / name).write_bytes(data)
    return [[arg.format(tmp=tmp) for arg in argv] for _, argv, _, _ in CASES]
