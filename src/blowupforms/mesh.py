"""Global triangulations: gluing rules, assembly, and exact cohomology.

A triangulation is combinatorial only (no coordinates): cells are ascending
vertex tuples and every face of every cell carries the ascending orientation.
The loader accepts homology manifolds only: the link of every face (its
star with the face removed) must have the rational Betti numbers of a ball
on the boundary and of a sphere inside.  Signs are local and read off the
cells: ``Triangulation.orient_star`` orients the cells around a face K by
walking across the facets that contain K, and over the whole mesh decides
orientability.  Each walk starts each of its components at +1; another
start sign would only rescale the row a star gives.

The DOFs of a cell are the k-flags of {0..n}, in canonical order, relabelled
onto the ascending cell: the DOF of cell ci and canonical flag j has index
ci * f_k + j (f_k flags per cell), and the coboundary is the local one
shifted by that arithmetic.  Gluing rules impose exact linear constraints on
the DOFs.  The general continuity rule follows the face-by-face
prescription: for every interior face K and every flag F on V_K with one
block fewer than usual, the sum over incident cells of the DOF of F extended
by the opposite vertices, signed by the orientation of star(K), must vanish;
so the rule needs no global orientation.  Those are the DOFs whose flag
minus its last block (its head) is F, so grouping the DOFs by head gives
the rows; boundary faces are skipped and reported.  For codimension one
this is identification across the two neighbors.  Every row, under every
rule, is solved for its pivot, its largest DOF index, which no other row
touches: general rows touch disjoint DOF sets, and the 2D scalar variants
impose stars {first: 1, other: -1}.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

from . import linalg
from .blowcx import MAX_VERTICES, BlowupComplex, build_blowup_complex
from .flagcomb import Flag, enumerate_flags, perm_sign


class MeshError(ValueError):
    """Invalid mesh document or an unsupported mesh for the requested rule."""


GLUING_VARIANTS = (
    "edge-identified",
    "edge-constant",
    "vertex-identified",
    "cell-discontinuous",
    "general-continuity",
)


def gluing_rule(name: str) -> str:
    """The canonical name of a gluing rule: ``general`` is ``general-continuity``."""
    if name == "general":
        return "general-continuity"
    if name not in GLUING_VARIANTS:
        raise MeshError(f"unknown gluing rule {name!r}; choose from {GLUING_VARIANTS}")
    return name


def _opposite(face: tuple[int, ...], cell: tuple[int, ...]) -> tuple[int, ...]:
    """The vertices of ``cell`` outside ``face``, ascending."""
    return tuple(v for v in cell if v not in face)


def _nonneg_int(x) -> bool:
    """A non-negative JSON integer; ``True`` and ``1.0`` are not."""
    return type(x) is int and x >= 0


class Triangulation:
    """Combinatorial simplicial mesh with its full face lattice."""

    def __init__(self, dimension: int, cells, manifold: str = "boundary"):
        if manifold not in ("closed", "boundary"):
            raise MeshError(f"manifold must be closed/boundary, got {manifold!r}")
        if not _nonneg_int(dimension):
            raise MeshError(f"dimension must be a non-negative integer, got {dimension!r}")
        if not 1 <= dimension < MAX_VERTICES:
            raise MeshError(f"dimension must lie in 1..{MAX_VERTICES - 1}, the simplices "
                            f"whose blow-up complex is built (|V| <= {MAX_VERTICES}); "
                            f"got {dimension}")
        self.dimension = dimension
        if not isinstance(cells, (list, tuple)):
            raise MeshError(f"cells must be a list of vertex lists, got {cells!r}")
        seen = set()
        canon = []
        for c in cells:
            if not isinstance(c, (list, tuple)) or not all(_nonneg_int(v) for v in c):
                raise MeshError(f"cell {c!r} must list non-negative integer vertex labels")
            t = tuple(sorted(c))
            if len(t) != self.dimension + 1 or len(set(t)) != len(t):
                raise MeshError(f"cell {c!r} is not a {self.dimension}-simplex")
            if t in seen:
                raise MeshError(f"duplicate cell {t}")
            seen.add(t)
            canon.append(t)
        if not canon:
            raise MeshError("mesh needs at least one cell")
        self.cells: list[tuple[int, ...]] = sorted(canon)
        self.vertices = sorted({v for c in self.cells for v in c})

        # each face's cofaces in ascending cell order
        self.cofaces: dict[tuple[int, ...], list[int]] = {}
        for ci, c in enumerate(self.cells):
            for d in range(self.dimension + 1):
                for f in combinations(c, d + 1):
                    self.cofaces.setdefault(f, []).append(ci)
        self.faces: dict[int, list[tuple[int, ...]]] = {
            d: sorted(f for f in self.cofaces if len(f) == d + 1) for d in range(dimension + 1)}

        self.boundary_facets = {f for f in self.faces[dimension - 1] if len(self.cofaces[f]) == 1}
        self._boundary_faces = {f for bf in self.boundary_facets
                                for d in range(len(bf) + 1) for f in combinations(bf, d)}
        if manifold == "closed" and self.boundary_facets:
            raise MeshError("mesh declared closed but has boundary facets")
        # every link a homology ball on the boundary and a sphere inside, largest faces first
        for d in reversed(range(dimension)):
            for K in self.faces[d]:
                want = [1] + [0] * (dimension - d - 1)
                want[-1] += not self.is_boundary_face(K)
                got = _betti([_opposite(K, self.cells[ci]) for ci in self.cofaces[K]])
                if got != want:
                    name = f"vertex {K[0]}" if len(K) == 1 else f"face {K}"
                    raise MeshError(f"{name} has a link with Betti numbers {got}, not {want}")
        # each cell's facets f, with the sign of f followed by the opposite vertex
        self._facet_signs = [{f: perm_sign(f + _opposite(f, c)) for f in combinations(c, dimension)}
                            for c in self.cells]
        self.orientable = not self.orient_star(())[1]

    # -- structure ------------------------------------------------------------

    def orient_star(self, K: tuple[int, ...]) -> tuple[dict[int, int], bool]:
        """Orient the cells of star(K) (all cells for K = ()) across the facets containing K.

        Neighbours induce opposite orientations on their common facet; the first cell
        of each component is +1.  Returns each cell's sign and whether a cell was
        reached with both signs.
        """
        star = self.cofaces[K] if K else range(len(self.cells))
        inside = set(K)
        sign: dict[int, int] = {}
        conflict = False
        for start in star:
            if start in sign:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                ci = stack.pop()
                for f, s in self._facet_signs[ci].items():
                    if not inside.issubset(f):
                        continue
                    for cj in self.cofaces[f]:
                        want = -sign[ci] * s * self._facet_signs[cj][f]
                        if cj not in sign:
                            sign[cj] = want
                            stack.append(cj)
                        elif cj != ci and sign[cj] != want:
                            conflict = True
        return sign, conflict

    def is_boundary_face(self, face: tuple[int, ...]) -> bool:
        """True iff ``face`` lies in some boundary facet."""
        return tuple(sorted(face)) in self._boundary_faces

    def __repr__(self):
        return (f"Triangulation(dim={self.dimension}, cells={len(self.cells)}, "
                f"vertices={len(self.vertices)})")


def load_mesh(source) -> Triangulation:
    """Build a triangulation from a JSON document, dict, file path, or name.

    Schema: {"dimension": n, "cells": [[v, ...], ...], "manifold": "closed"|"boundary"}.
    Other keys are ignored.  Bundled sample names (see SAMPLE_MESHES) are accepted directly.
    """
    if isinstance(source, Triangulation):
        return source
    if isinstance(source, str) and source in SAMPLE_MESHES:
        doc = SAMPLE_MESHES[source]
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise MeshError(f"{source}: not a JSON document ({exc})") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise MeshError(f"cannot load a mesh from {type(source)!r}")
    if not isinstance(doc, dict) or "dimension" not in doc or "cells" not in doc:
        raise MeshError("mesh document needs 'dimension' and 'cells'")
    return Triangulation(
        dimension=doc["dimension"],
        cells=doc["cells"],
        manifold=doc.get("manifold", "boundary"),
    )


def global_flags(tri: Triangulation, k: int) -> list[tuple[int, Flag]]:
    """Per-cell flags with global vertex ids: entry ci * f_k + j is canonical flag j
    relabelled onto cell ci, an increasing map, so each cell's flags stay in order."""
    local = list(enumerate_flags(range(tri.dimension + 1), k))  # walked once per cell
    return [(ci, F.relabel(cell)) for ci, cell in enumerate(tri.cells) for F in local]


# -- assembly -----------------------------------------------------------------

class GlobalSpace:
    """Constrained global DOF space for one form degree under one rule."""

    __slots__ = ("dofs", "constraints", "skipped_boundary_faces")

    def __init__(self, dofs: list[tuple[int, Flag]], constraints: list[dict[int, int]],
                 skipped_boundary_faces: int):
        self.dofs = dofs
        self.constraints = constraints
        self.skipped_boundary_faces = skipped_boundary_faces

    @property
    def dim(self) -> int:
        return len(self.dofs) - len(self.constraints)

    def basis(self) -> list[dict[int, int]]:
        """Deterministic kernel basis: one vector per free DOF, in index order.

        Each row is solved for its pivot p, its largest DOF index, which no
        other row touches.  The vector of a free DOF is 1 there and sets the
        pivot of every row it meets to -row[idx] * row[p] (every entry is
        +-1, so dividing by row[p] is multiplying).
        """
        pivots = set()
        meets: dict[int, list[tuple[dict[int, int], int]]] = {}
        for row in self.constraints:
            p = max(row)
            pivots.add(p)
            for idx in row:
                if idx != p:
                    meets.setdefault(idx, []).append((row, p))
        basis = []
        for idx in range(len(self.dofs)):
            if idx in pivots:
                continue
            vec = {idx: 1}
            for row, p in meets.get(idx, ()):
                vec[p] = -row[idx] * row[p]
            basis.append(vec)
        return basis


def assemble(tri: Triangulation, k: int, rule: str) -> GlobalSpace:
    """Impose the gluing constraints for k-form DOFs on a triangulation."""
    rule = gluing_rule(rule)
    n = tri.dimension
    if not 0 <= k <= n:
        raise MeshError(f"k={k} out of range for dimension {n}")
    dofs = global_flags(tri, k)
    rows: list[dict[int, int]] = []
    skipped = 0

    if rule == "general-continuity":
        # k = n flags have one block, an empty head: no face to glue across
        if k < n:
            groups: dict[tuple, dict[int, int]] = {}
            boundary = set()
            stars: dict[tuple[int, ...], dict[int, int]] = {}
            for i, (ci, F) in enumerate(dofs):
                tail = F.blocks[-1]
                K = _opposite(tail, tri.cells[ci])
                if tri.is_boundary_face(K):
                    boundary.add(K)
                    continue
                if K not in stars:
                    stars[K] = tri.orient_star(K)[0]
                groups.setdefault(F.blocks[:-1], {})[i] = stars[K][ci] * perm_sign(K + tail)
            rows = list(groups.values())
            skipped = len(boundary)
    else:
        if n != 2 or k != 0:
            raise MeshError(f"rule {rule!r} applies to scalar DOFs on 2D meshes only")
        classes: dict[object, list[int]] = {}
        for i, (ci, F) in enumerate(dofs):
            p = F.blocks[0][0]
            e = tuple(sorted(F.blocks[0] + F.blocks[1]))
            key = {"edge-identified": (p, e), "edge-constant": e,
                   "vertex-identified": p, "cell-discontinuous": (p, ci)}[rule]
            classes.setdefault(key, []).append(i)
        for members in classes.values():
            for other in members[1:]:
                rows.append({members[0]: 1, other: -1})

    return GlobalSpace(dofs=dofs, constraints=rows, skipped_boundary_faces=skipped)


def _global_coboundary(tri: Triangulation, cx: BlowupComplex, k: int) -> list[dict[int, int]]:
    """Block-diagonal coboundary on pre-gluing DOFs, one column per k-DOF in
    ``global_flags`` order: local column c of the complex ``cx`` of the cell
    simplex, in cell ci, with row r moved to ci * f_{k+1} + r."""
    m = len(cx.cells[k + 1])
    return [
        {ci * m + r: sign for r, sign in col.items()}
        for ci in range(len(tri.cells))
        for col in cx.coboundary[k]
    ]


def global_cohomology(tri_or_source, rule: str) -> dict:
    """Betti numbers of the glued global complex, with a simplicial reference.

    Under the general rule all degrees are assembled and the full Betti
    vector is computed; the 2D scalar variants report H^0 and the scalar
    dimension only.  ``match`` says whether the computed Betti numbers are
    the ones the rule must give: the simplicial ones, except that H^0 is the
    number of cells under cell-discontinuous.  The constraint/coboundary
    compatibility check (the global complex property) is exact and recorded
    as ``dd_zero``.
    """
    tri = load_mesh(tri_or_source)
    rule = gluing_rule(rule)
    general = rule == "general-continuity"
    n = tri.dimension
    simplicial = simplicial_cohomology(tri)
    # the named 2D scalar variants assemble degree 0 only
    spaces = [assemble(tri, k, rule) for k in (range(n + 1) if general else [0])]
    report: dict = {
        "dims": [sp.dim for sp in spaces],
        "betti_blowup": [],  # filled below; set here for the report's key order
        "betti_simplicial": list(simplicial),
        "rule": rule,
        "orientable": tri.orientable,
        "nonmanifold": False,  # every loaded mesh is a homology manifold
        "skipped_boundary_faces": spaces[0].skipped_boundary_faces,
        "dd_zero": True,
    }
    cx = build_blowup_complex(tuple(range(n + 1)))
    ranks = []
    for k, sp in enumerate(spaces[:n]):
        D = _global_coboundary(tri, cx, k)
        images = [linalg.combine(D, b) for b in sp.basis()]
        # the image must satisfy the degree-(k+1) constraints exactly; held
        # as columns, one per DOF, they are read only where an image is nonzero
        if k + 1 < len(spaces):
            nxt = spaces[k + 1]
            columns: list[dict[int, int]] = [{} for _ in nxt.dofs]
            for r, row in enumerate(nxt.constraints):
                for idx, x in row.items():
                    columns[idx][r] = x
            if any(linalg.combine(columns, img) for img in images):
                report["dd_zero"] = False
        ranks.append(linalg.rank(images))
    report["betti_blowup"] = linalg.betti(report["dims"], ranks)
    want = list(simplicial)
    if rule == "cell-discontinuous":
        want[0] = len(tri.cells)  # cells share no DOF, so each keeps its own constant
    report["match"] = report["betti_blowup"] == want[:len(spaces)]
    if not general:
        report["degrees"] = [0]
    return report


def simplicial_cohomology(tri_or_source) -> tuple[int, ...]:
    """Betti numbers of the simplicial cochain complex (ascending orientation)."""
    return tuple(_betti(load_mesh(tri_or_source).cells))


def _betti(cells) -> list[int]:
    """Rational Betti numbers of the complex spanned by ``cells``, ascending vertex
    tuples of one size; each boundary row is keyed by the faces themselves."""
    faces = [dict.fromkeys(f for c in cells for f in combinations(c, d + 1))
             for d in range(len(cells[0]))]
    ranks = [linalg.rank([{f[:pos] + f[pos + 1:]: (-1) ** pos for pos in range(len(f))}
                          for f in upper]) for upper in faces[1:]]
    return linalg.betti([len(f) for f in faces], ranks)


# ---------------------------------------------------------------------------
# bundled sample meshes
# ---------------------------------------------------------------------------

def _mobius_torus() -> list[list[int]]:
    """The 7-vertex triangulation of the torus: {i,i+1,i+3} and {i,i+2,i+3} mod 7."""
    cells = []
    for i in range(7):
        cells.append(sorted([i, (i + 1) % 7, (i + 3) % 7]))
        cells.append(sorted([i, (i + 2) % 7, (i + 3) % 7]))
    return cells


SAMPLE_MESHES: dict[str, dict] = {
    "interval-chain": {"dimension": 1, "cells": [[0, 1], [1, 2], [2, 3]], "manifold": "boundary"},
    "triangle": {"dimension": 2, "cells": [[0, 1, 2]], "manifold": "boundary"},
    "triangle-pair": {"dimension": 2, "cells": [[0, 1, 2], [1, 2, 3]], "manifold": "boundary"},
    "fan-disk": {
        "dimension": 2,
        "cells": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 6], [0, 1, 6]],
        "manifold": "boundary",
    },
    "torus-7": {"dimension": 2, "cells": _mobius_torus(), "manifold": "closed"},
    "octahedron": {
        "dimension": 2,
        "cells": [
            [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4],
            [1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5],
        ],
        "manifold": "closed",
    },
    "tetrahedron": {"dimension": 3, "cells": [[0, 1, 2, 3]], "manifold": "boundary"},
    "tet-pair": {"dimension": 3, "cells": [[0, 1, 2, 3], [1, 2, 3, 4]], "manifold": "boundary"},
}


def write_samples(outdir) -> list[str]:
    """Materialize the bundled sample meshes as JSON files; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in SAMPLE_MESHES.items():
        path = outdir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        written.append(str(path))
    return written
