"""Independent rebuild of the genus-3 double from a triangulated model.

The surface is two copies of an 11 x 5 grid of unit squares with three
squares removed (the holes), glued along the outer rectangle and the hole
boundaries.  Each kept square is split into two triangles; the copy-1
triangles carry the opposite orientation, so the triangle sum is a
fundamental 2-cycle.

From the simplicial chain complex we compute H_1 (it must be Z^6), a dual
cocycle basis, the intersection pairing via cup products against the
fundamental cycle, and the homology class of every named curve, drawn as an
explicit edge path.  Nothing is imported from the module under test except
raw linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from bundlesec.zlinalg import IntMatrix, SmithDecomposition, smith_normal_form
from smith_reference import from_columns

COLS, ROWS = 11, 5
HOLES = ((2, 2), (5, 2), (8, 2))  # removed unit squares, by lower-left corner


def _hole_corners() -> set:
    corners = set()
    for hc, hr in HOLES:
        corners.update({(hc, hr), (hc + 1, hr), (hc, hr + 1), (hc + 1, hr + 1)})
    return corners


_CORNERS = _hole_corners()


def _is_shared_vertex(c: int, r: int) -> bool:
    return c in (0, COLS) or r in (0, ROWS) or (c, r) in _CORNERS


def _is_boundary_edge(p: Tuple[int, int], q: Tuple[int, int]) -> bool:
    """Outer-rectangle edges and the four edges of each removed square."""
    (c1, r1), (c2, r2) = p, q
    if r1 == r2 and r1 in (0, ROWS):
        return True
    if c1 == c2 and c1 in (0, COLS):
        return True
    for hc, hr in HOLES:
        sides = {
            frozenset({(hc, hr), (hc + 1, hr)}),
            frozenset({(hc, hr + 1), (hc + 1, hr + 1)}),
            frozenset({(hc, hr), (hc, hr + 1)}),
            frozenset({(hc + 1, hr), (hc + 1, hr + 1)}),
        }
        if frozenset({p, q}) in sides:
            return True
    return False


@dataclass
class DoubleComplex:
    vertex_index: Dict[Tuple, int]
    edge_index: Dict[frozenset, int]
    edges: List[Tuple[int, int]]                 # sorted endpoint pairs
    faces: List[Tuple[Tuple[int, int, int], int]]  # sorted triple, orientation

    def vertex(self, point: Tuple[int, int], copy: int) -> int:
        c, r = point
        key = ("s", c, r) if _is_shared_vertex(c, r) else ("i", copy, c, r)
        return self.vertex_index[key]

    def edge(self, u: int, v: int) -> Tuple[int, int]:
        """(edge id, +-1 for traversal u -> v)."""
        idx = self.edge_index[frozenset({u, v})]
        return idx, (1 if u < v else -1)


def build_complex() -> DoubleComplex:
    vertex_index: Dict[Tuple, int] = {}
    for c in range(COLS + 1):
        for r in range(ROWS + 1):
            if _is_shared_vertex(c, r):
                vertex_index[("s", c, r)] = len(vertex_index)
            else:
                for copy in (0, 1):
                    vertex_index[("i", copy, c, r)] = len(vertex_index)

    complex_ = DoubleComplex(vertex_index, {}, [], [])

    def add_edge(p, q, copy):
        u, v = complex_.vertex(p, copy), complex_.vertex(q, copy)
        key = frozenset({u, v})
        if key not in complex_.edge_index:
            complex_.edge_index[key] = len(complex_.edges)
            complex_.edges.append((min(u, v), max(u, v)))

    kept = [(c, r) for c in range(COLS) for r in range(ROWS) if (c, r) not in HOLES]
    for copy in (0, 1):
        for c in range(COLS + 1):
            for r in range(ROWS + 1):
                if c < COLS:
                    add_edge((c, r), (c + 1, r), copy)
                if r < ROWS:
                    add_edge((c, r), (c, r + 1), copy)
        for c, r in kept:
            add_edge((c, r), (c + 1, r + 1), copy)

    for copy in (0, 1):
        sign = 1 if copy == 0 else -1
        for c, r in kept:
            corners = {
                "00": complex_.vertex((c, r), copy),
                "10": complex_.vertex((c + 1, r), copy),
                "11": complex_.vertex((c + 1, r + 1), copy),
                "01": complex_.vertex((c, r + 1), copy),
            }
            for tri in (("00", "10", "11"), ("00", "11", "01")):  # counterclockwise
                verts = [corners[t] for t in tri]
                perm_sign = _sort_sign(verts)
                complex_.faces.append((tuple(sorted(verts)), sign * perm_sign))
    return complex_


def _sort_sign(triple: Sequence[int]) -> int:
    a, b, c = triple
    sign = 1
    seq = [a, b, c]
    for i in range(2):
        for j in range(2 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


@dataclass
class HomologyModel:
    complex: DoubleComplex
    nontree: List[int]              # edge ids of non-tree edges, in order
    nontree_pos: Dict[int, int]
    smith: SmithDecomposition       # of the face boundaries, whose cokernel must be Z^6
    cocycles: List[Tuple[int, ...]]  # dual basis, as values on non-tree edges
    pairing: IntMatrix

    def cycle_coordinates(self, directed_edges: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
        """H_1 class of a closed edge path, as coordinates in the Z^6 basis."""
        lam = [0] * len(self.nontree)
        for u, v in directed_edges:
            idx, sign = self.complex.edge(u, v)
            if idx in self.nontree_pos:
                lam[self.nontree_pos[idx]] += sign
        return self.smith.project(tuple(lam))


def _spanning_tree(complex_: DoubleComplex) -> set:
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for idx, (u, v) in enumerate(complex_.edges):
        adjacency.setdefault(u, []).append((v, idx))
        adjacency.setdefault(v, []).append((u, idx))
    seen = {0}
    tree = set()
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v, idx in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    tree.add(idx)
                    nxt.append(v)
        frontier = nxt
    if len(seen) != len(complex_.vertex_index):
        raise AssertionError("the double is not connected")
    return tree


def _face_boundary_edges(face: Tuple[int, int, int]):
    v0, v1, v2 = face
    return (((v1, v2), 1), ((v0, v2), -1), ((v0, v1), 1))


def build_model() -> HomologyModel:
    complex_ = build_complex()

    # the triangle sum must be a 2-cycle (the fundamental class)
    total: Dict[int, int] = {}
    for face, eps in complex_.faces:
        for (u, v), s in _face_boundary_edges(face):
            idx, _ = complex_.edge(u, v)
            total[idx] = total.get(idx, 0) + eps * s
    if any(c != 0 for c in total.values()):
        raise AssertionError("triangle orientations do not assemble to a cycle")

    tree = _spanning_tree(complex_)
    nontree = [i for i in range(len(complex_.edges)) if i not in tree]
    nontree_pos = {e: k for k, e in enumerate(nontree)}

    # 1-cycles are determined by their coefficients on non-tree edges, so H_1
    # is the cokernel of the face boundaries restricted to those coordinates
    cols = []
    for face, _ in complex_.faces:
        col = [0] * len(nontree)
        for (u, v), s in _face_boundary_edges(face):
            idx, _ = complex_.edge(u, v)
            if idx in nontree_pos:
                col[nontree_pos[idx]] += s
        cols.append(tuple(col))
    smith = smith_normal_form(from_columns(cols, rows=len(nontree)))

    # every factor is 0, so the coordinates are linear: the projections of the
    # unit vectors are the columns of a map that vanishes on boundaries, and its
    # rows, read as coefficient vectors on non-tree edges (zero on tree edges),
    # are cocycles forming the dual basis of the H_1 coordinates
    units = [tuple(int(i == j) for i in range(len(nontree))) for j in range(len(nontree))]
    cocycles = list(zip(*map(smith.project, units)))

    # cup-product pairing against the fundamental cycle:
    # <alpha, beta> = sum over triangles eps * alpha(front edge) * beta(back edge)
    def value(cocycle: Tuple[int, ...], u: int, v: int) -> int:
        idx, _ = complex_.edge(u, v)
        pos = nontree_pos.get(idx)
        return cocycle[pos] if pos is not None else 0

    n = len(cocycles)
    pairing_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for (v0, v1, v2), eps in complex_.faces:
                acc += eps * value(cocycles[i], v0, v1) * value(cocycles[j], v1, v2)
            row.append(acc)
        pairing_rows.append(tuple(row))
    pairing = IntMatrix.from_rows(pairing_rows)
    return HomologyModel(complex_, nontree, nontree_pos, smith, cocycles, pairing)


# --- named curves as edge paths ----------------------------------------------


def _steps(points: Sequence[Tuple[int, int]]) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Expand a polygonal lattice path into unit steps."""
    out = []
    for p, q in zip(points, points[1:]):
        (c1, r1), (c2, r2) = p, q
        dc = (c2 > c1) - (c2 < c1)
        dr = (r2 > r1) - (r2 < r1)
        if dc != 0 and dr != 0:
            raise ValueError("paths must be axis-aligned")
        cur = p
        while cur != q:
            nxt = (cur[0] + dc, cur[1] + dr)
            out.append((cur, nxt))
            cur = nxt
    return out


def _rect(c1: int, r1: int, c2: int, r2: int, clockwise: bool = False):
    pts = [(c1, r1), (c2, r1), (c2, r2), (c1, r2), (c1, r1)]
    if clockwise:
        pts = list(reversed(pts))
    return pts


def _path_edges(complex_: DoubleComplex, points, copy: int):
    return [(complex_.vertex(p, copy), complex_.vertex(q, copy))
            for p, q in _steps(points)]


def curve_classes(model: HomologyModel) -> Dict[str, Tuple[int, ...]]:
    """H_1 coordinates of every named curve, plus the through-loops a1..a3."""
    cx = model.complex
    holes = HOLES
    out: Dict[str, Tuple[int, ...]] = {}

    def put(name, points, copy=0):
        out[name] = model.cycle_coordinates(_path_edges(cx, points, copy))

    for i, (hc, hr) in enumerate(holes, start=1):
        put(f"b{i}", _rect(hc, hr, hc + 1, hr + 1))
    put("b4", _rect(0, 0, COLS, ROWS, clockwise=True))

    # lantern curves on the 0-side: x around holes 1,2; y around 2,3;
    # z around 1,3 (notched past hole 2)
    x_pts = _rect(1, 1, 7, 4)
    y_pts = _rect(4, 1, 10, 4)
    z_pts = [(1, 1), (10, 1), (10, 4), (7, 4), (7, 2), (4, 2), (4, 4), (1, 4), (1, 1)]
    put("x0", x_pts)
    put("y0", y_pts)
    put("z0", z_pts)
    # mirror curves on the 1-side, traversed the other way around
    put("x1", list(reversed(x_pts)), copy=1)
    put("y1", list(reversed(y_pts)), copy=1)
    put("z1", list(reversed(z_pts)), copy=1)

    # parallels of the boundary circles on both sides
    d_rects = [_rect(1, 1, 4, 4), _rect(4, 1, 7, 4), _rect(7, 1, 10, 4),
               _rect(1, 1, 10, 4, clockwise=True)]
    for i, pts in enumerate(d_rects, start=1):
        put(f"d{i}0", pts, copy=0)
        put(f"d{i}1", pts, copy=1)

    # through-loops: down the 0-side from the i-th hole to the outer
    # boundary, back up the 1-side
    for i, (hc, hr) in enumerate(holes, start=1):
        edges = (_path_edges(cx, [(hc, hr), (hc, 0)], copy=0)
                 + _path_edges(cx, [(hc, 0), (hc, hr)], copy=1))
        out[f"a{i}"] = model.cycle_coordinates(edges)
    return out
