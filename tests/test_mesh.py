import json
import random
import re

import pytest

from blowupforms.flagcomb import enumerate_flags
from blowupforms.mesh import (
    GLUING_VARIANTS,
    MeshError,
    SAMPLE_MESHES,
    Triangulation,
    assemble,
    global_cohomology,
    global_flags,
    gluing_rule,
    load_mesh,
    simplicial_cohomology,
    write_samples,
)

MOBIUS_STRIP = {"dimension": 2, "cells": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]]}
NONMANIFOLD_FAN = {"dimension": 2, "cells": [[0, 1, 2], [0, 1, 3], [0, 1, 4]], "manifold": "none"}
# the 6-vertex real projective plane (the hemi-icosahedron)
RP2 = {"dimension": 2, "manifold": "closed", "cells": [
    [1, 2, 4], [1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5],
    [2, 3, 4], [2, 3, 5], [2, 5, 6], [3, 4, 6], [4, 5, 6]]}


def _pinched_octahedra() -> dict:
    """Two octahedra sharing only vertex 0, accepted under manifold 'none'."""
    octahedron = SAMPLE_MESHES["octahedron"]["cells"]
    return {"dimension": 2, "manifold": "none",
            "cells": octahedron + [[v + 5 if v else 0 for v in c] for c in octahedron]}


def _klein_bottle(m: int) -> dict:
    """An m x m grid whose columns wrap straight and whose rows wrap with a flip."""
    def v(i, j):
        return (i % m) * m + (j if i < m else -j) % m

    cells = []
    for i in range(m):
        for j in range(m):
            cells += [[v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                      [v(i, j), v(i, j + 1), v(i + 1, j + 1)]]
    return {"dimension": 2, "cells": cells, "manifold": "closed"}


# -- loading and validation -----------------------------------------------------

def test_single_triangle_census():
    tri = load_mesh("triangle")
    assert len(tri.vertices) == 3
    assert len(tri.faces[1]) == 3
    assert len(tri.cells) == 1


def test_shared_edge_borders_both():
    tri = load_mesh("triangle-pair")
    assert tri.cofaces[(1, 2)] == [0, 1]
    assert (1, 2) not in tri.boundary_facets


def test_torus_is_closed_with_zero_euler_characteristic():
    tri = load_mesh("torus-7")
    assert len(tri.vertices) == 7
    assert len(tri.faces[1]) == 21
    assert len(tri.cells) == 14
    assert len(tri.vertices) - len(tri.faces[1]) + len(tri.cells) == 0
    assert not tri.boundary_facets
    assert tri.orientable


def test_supplied_orientation_does_not_make_mobius_strip_orientable():
    assert load_mesh(MOBIUS_STRIP).orientable is False
    signed = load_mesh({**MOBIUS_STRIP, "orientation": [1, -1, 1, -1, 1]})
    assert signed.orientable is False
    assert global_cohomology({**MOBIUS_STRIP, "orientation": [1] * 5}, "general")["orientable"] is False


def test_boundary_faces_agree_with_the_facet_scan():
    # the precomputed subface set against the definition: a face lies in a boundary facet
    for source in list(SAMPLE_MESHES) + [MOBIUS_STRIP]:
        tri = load_mesh(source)
        for faces in tri.faces.values():
            for K in faces:
                scan = any(set(K) <= set(bf) for bf in tri.boundary_facets)
                assert tri.is_boundary_face(K) == scan, (source, K)
                assert tri.is_boundary_face(K[::-1]) == scan


def test_duplicate_cells_rejected():
    with pytest.raises(MeshError):
        Triangulation(2, [[0, 1, 2], [2, 1, 0]])


def test_nonmanifold_rejected_unless_allowed():
    cells = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(MeshError):
        Triangulation(2, cells)
    tri = Triangulation(2, cells, manifold="none")
    assert tri.nonmanifold


def test_closed_declaration_checked():
    with pytest.raises(MeshError):
        Triangulation(2, [[0, 1, 2]], manifold="closed")


def test_pinched_vertex_link_rejected():
    cells = [[0, 1, 2], [0, 3, 4]]
    with pytest.raises(MeshError):
        Triangulation(2, cells)


# two tetrahedra sharing only vertex 0, and two sharing only the edge 01: no
# facet borders three cells, but the star of the shared face falls apart
TET_PINCHES = [([[0, 1, 2, 3], [0, 4, 5, 6]], "vertex 0"),
               ([[0, 1, 2, 3], [0, 1, 4, 5]], "face (0, 1)")]


@pytest.mark.parametrize("cells, face", TET_PINCHES)
def test_3d_pinch_rejected_unless_allowed(cells, face):
    with pytest.raises(MeshError, match=rf"^{re.escape(face)} has a disconnected link"):
        Triangulation(3, cells)
    assert Triangulation(3, cells, manifold="none").nonmanifold


def test_bundled_meshes_load_as_manifolds():
    assert len(SAMPLE_MESHES) == 8
    for name in SAMPLE_MESHES:
        assert not load_mesh(name).nonmanifold, name


def test_accepted_pinch_vertex_is_reported_nonmanifold():
    # two octahedra sharing only vertex 0: no facet borders three cells, but
    # the star of vertex 0 falls into two components
    octahedron = SAMPLE_MESHES["octahedron"]["cells"]
    doc = _pinched_octahedra()
    assert Triangulation(2, [[0, 1, 2], [0, 3, 4]], manifold="none").nonmanifold
    assert not Triangulation(2, octahedron, manifold="none").nonmanifold
    rep = global_cohomology(doc, "general")
    assert rep["nonmanifold"] is True
    assert rep["betti_blowup"] == [2, 0, 1]
    assert rep["betti_simplicial"] == [1, 0, 2]
    assert rep["match"] is False


def test_load_from_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SAMPLE_MESHES["triangle-pair"]))
    tri = load_mesh(str(path))
    assert len(tri.cells) == 2


def test_write_samples(tmp_path):
    files = write_samples(tmp_path)
    assert len(files) == len(SAMPLE_MESHES)
    for f in files:
        load_mesh(f)


# -- global flags ------------------------------------------------------------------

def test_global_flag_counts():
    assert len(global_flags(load_mesh("triangle"), 0)) == 6
    assert len(global_flags(load_mesh("triangle-pair"), 0)) == 12
    assert len(global_flags(load_mesh("tetrahedron"), 1)) == 36


def _all_spaces():
    """Every assembled space with its (triangulation, k, rule): each bundled mesh,
    each degree, each rule that applies (the named variants take 2D scalars only)."""
    cases = []
    for name in SAMPLE_MESHES:
        tri = load_mesh(name)
        for k in range(tri.dimension + 1):
            cases.append((tri, k, "general-continuity"))
            if tri.dimension == 2 and k == 0:
                cases += [(tri, k, v) for v in GLUING_VARIANTS if v != "general-continuity"]
    assert len(cases) == 45
    for doc in (MOBIUS_STRIP, NONMANIFOLD_FAN, RP2):
        tri = load_mesh(doc)
        cases += [(tri, 0, rule) for rule in ("general", "edge-identified", "vertex-identified")]
        cases += [(tri, k, "general") for k in (1, 2)]
    return [(assemble(*case), case) for case in cases]


def test_dof_numbering_and_row_pivots():
    # DOF ci * f_k + j is canonical flag j carried onto cell ci, and every
    # constraint row's largest index appears in no other row
    for sp, (tri, k, rule) in _all_spaces():
        local = list(enumerate_flags(range(tri.dimension + 1), k))
        m = len(local)
        assert len(sp.dofs) == len(tri.cells) * m
        for ci, cell in enumerate(tri.cells):
            assert [F for _, F in sp.dofs[ci * m:(ci + 1) * m]] == list(enumerate_flags(cell, k))
            for j, F in enumerate(local):
                assert sp.dofs[ci * m + j] == (ci, F.relabel(dict(enumerate(cell))))
        for row in sp.constraints:
            assert sum(max(row) in other for other in sp.constraints) == 1, (tri, k, rule)


# -- gluing variants ------------------------------------------------------------------

def test_variant_dimensions_on_pair():
    pair = load_mesh("triangle-pair")
    dims = {}
    for rule in ("edge-identified", "edge-constant", "vertex-identified", "cell-discontinuous"):
        dims[rule] = assemble(pair, 0, rule).dim
    assert dims["vertex-identified"] == len(pair.vertices) == 4
    assert dims["cell-discontinuous"] == 3 * len(pair.cells) == 6
    assert dims["edge-constant"] == len(pair.faces[1]) == 5
    assert dims["edge-identified"] == 2 * len(pair.faces[1]) == 10


def test_variants_coincide_with_local_space_on_one_triangle():
    tri = load_mesh("triangle")
    for rule in ("edge-identified", "edge-constant", "vertex-identified", "cell-discontinuous"):
        sp = assemble(tri, 0, rule)
        # no inter-cell constraints on a single triangle for the two edge rules
        if rule == "edge-identified":
            assert sp.dim == 6
    rep = global_cohomology("triangle", "general")
    assert rep["dims"] == [6, 6, 1]


def test_gluing_rule_is_its_canonical_name():
    assert gluing_rule("general") == "general-continuity"
    assert [gluing_rule(v) for v in GLUING_VARIANTS] == list(GLUING_VARIANTS)
    for bad in ("bogus", "General", ""):
        with pytest.raises(MeshError, match="unknown gluing rule"):
            gluing_rule(bad)


def test_variant_requires_2d_scalars():
    with pytest.raises(MeshError):
        assemble(load_mesh("tetrahedron"), 0, "vertex-identified")
    with pytest.raises(MeshError):
        assemble(load_mesh("triangle"), 1, "vertex-identified")


def test_constraint_rows_have_full_rank():
    # GlobalSpace.dim is len(dofs) - len(constraints), so the rows must be
    # independent; closed and 3D meshes included
    from blowupforms import linalg

    cases = [("triangle-pair", rule) for rule in ("edge-identified", "vertex-identified")]
    cases += [(name, "general-continuity")
              for name in ("triangle-pair", "torus-7", "octahedron", "tet-pair")]
    for name, rule in cases:
        tri = load_mesh(name)
        for k in range(tri.dimension + 1 if rule == "general-continuity" else 1):
            sp = assemble(tri, k, rule)
            assert linalg.rank(sp.constraints) == len(sp.constraints), (name, rule, k)


def test_sum_zero_count_around_interior_vertex():
    # fan: one interior vertex, k=1 has exactly one sum-zero row at it,
    # removing one DOF from the vertex-cell family (m triangles -> m-1 DOFs)
    fan = load_mesh("fan-disk")
    sp = assemble(fan, 1, "general-continuity")
    sum_zero_rows = [row for row in sp.constraints if len(row) > 2]
    assert len(sum_zero_rows) == 1
    assert len(sum_zero_rows[0]) == 6
    pt_dofs = [i for i, (ci, F) in enumerate(sp.dofs)
               if len(F.blocks[0]) == 1 and F.blocks[0][0] == 0]
    assert len(pt_dofs) == 6  # pre-gluing, one per incident triangle


def test_basis_annihilates_constraints():
    # on every assembled space; entries stay int
    for sp, _ in _all_spaces():
        basis = sp.basis()
        for vec in basis:
            for row in sp.constraints:
                assert sum(c * vec.get(i, 0) for i, c in row.items()) == 0
        assert len(basis) == sp.dim
        assert all(type(x) is int for v in sp.constraints + basis for x in v.values())


# -- cohomology -------------------------------------------------------------------------

def test_simplicial_reference_values():
    assert simplicial_cohomology("triangle") == (1, 0, 0)
    assert simplicial_cohomology({"dimension": 1, "cells": [[0, 1], [1, 2], [0, 2]]}) == (1, 1)
    assert simplicial_cohomology("torus-7") == (1, 2, 1)
    assert simplicial_cohomology("octahedron") == (1, 0, 1)


@pytest.mark.parametrize("name,expected", [
    ("triangle", [1, 0, 0]),
    ("fan-disk", [1, 0, 0]),
    ("interval-chain", [1, 0]),
    ("tetrahedron", [1, 0, 0, 0]),
])
def test_general_rule_contractible(name, expected):
    rep = global_cohomology(name, "general")
    assert rep["dd_zero"]
    assert rep["betti_blowup"] == expected
    assert rep["match"]


def test_general_rule_closed_surfaces_match_simplicial():
    for name in ("torus-7", "octahedron"):
        rep = global_cohomology(name, "general")
        assert rep["dd_zero"]
        assert rep["betti_blowup"] == rep["betti_simplicial"]


@pytest.mark.parametrize("doc,betti", [
    (MOBIUS_STRIP, [1, 1, 0]),
    (RP2, [1, 0, 0]),
    (_klein_bottle(4), [1, 1, 0]),
])
def test_general_rule_non_orientable_surfaces_match_simplicial(doc, betti):
    # each row takes its signs from the star of its own face, which is
    # orientable even where the whole mesh is not
    rep = global_cohomology(doc, "general")
    assert rep["orientable"] is False
    assert rep["dd_zero"] and rep["match"]
    assert rep["betti_blowup"] == rep["betti_simplicial"] == betti


GAUGE_CASES = [(doc, "general") for doc in (
    "triangle-pair", "fan-disk", "torus-7", "octahedron", "tet-pair",
    MOBIUS_STRIP, NONMANIFOLD_FAN, RP2, _pinched_octahedra())]
GAUGE_CASES += [(doc, "edge-identified") for doc in ("torus-7", MOBIUS_STRIP)]


def _gauge_reports() -> list[dict]:
    return [global_cohomology(doc, rule) for doc, rule in GAUGE_CASES]


def test_supplied_orientation_is_a_gauge(monkeypatch):
    # each row is read off the walk over its own star, so the walk's start
    # sign is a gauge: rescaling a whole walk by a random +-1 changes no
    # reported number, while flipping one cell inside a star does
    want = _gauge_reports()
    walk = Triangulation.orient_star
    rng = random.Random(13)

    def rescaled(self, K):
        signs, components, conflict = walk(self, K)
        t = rng.choice((1, -1))
        return {ci: t * s for ci, s in signs.items()}, components, conflict

    monkeypatch.setattr(Triangulation, "orient_star", rescaled)
    for _ in range(2):
        assert _gauge_reports() == want

    def one_flipped(self, K):
        signs, components, conflict = walk(self, K)
        if len(signs) > 1:
            ci = rng.choice(sorted(signs))
            signs[ci] = -signs[ci]
        return signs, components, conflict

    monkeypatch.setattr(Triangulation, "orient_star", one_flipped)
    assert global_cohomology("torus-7", "general") != want[GAUGE_CASES.index(("torus-7", "general"))]
    monkeypatch.undo()
    # the program reads no orientation key: a document that carries one loads the same
    for signs in ([1] * 5, [1, -1, 1, -1, 1]):
        assert global_cohomology({**MOBIUS_STRIP, "orientation": signs}, "general") \
            == want[GAUGE_CASES.index((MOBIUS_STRIP, "general"))]


def test_orient_star_components_and_conflicts():
    mobius = load_mesh(MOBIUS_STRIP)
    signs, components, conflict = mobius.orient_star(())
    assert sorted(signs) == list(range(5)) and components == 1 and conflict
    for v in mobius.vertices:
        _, components, conflict = mobius.orient_star((v,))
        assert components == 1 and not conflict
    torus = load_mesh("torus-7")
    signs, components, conflict = torus.orient_star(())
    assert sorted(signs) == list(range(14)) and signs[0] == 1
    assert components == 1 and not conflict
    # each component starts at +1
    bowtie = Triangulation(2, [[0, 1, 2], [0, 3, 4]], manifold="none")
    assert bowtie.orient_star((0,)) == ({0: 1, 1: 1}, 2, False)
    assert bowtie.orient_star(())[1:] == (2, False)


def test_h0_counts_components_under_both_rules():
    two_pieces = {"dimension": 2, "cells": [[0, 1, 2], [3, 4, 5]]}
    for rule in ("edge-identified", "general"):
        rep = global_cohomology(two_pieces, rule)
        assert rep["betti_blowup"][0] == 2
    rep = global_cohomology("torus-7", "edge-identified")
    assert rep["betti_blowup"][0] == 1


def test_lagrange_and_discontinuous_h0():
    rep = global_cohomology("triangle-pair", "vertex-identified")
    assert rep["dims"] == [4]
    assert rep["betti_blowup"][0] == 1
    rep = global_cohomology("triangle-pair", "cell-discontinuous")
    assert rep["dims"] == [6]
    assert rep["betti_blowup"][0] == 2  # constants decouple per cell


def test_tet_pair_general():
    rep = global_cohomology("tet-pair", "general")
    assert rep["dd_zero"]
    assert rep["betti_blowup"] == [1, 0, 0, 0]


def test_local_complex_built_once_per_dimension(monkeypatch):
    from blowupforms import mesh

    calls = []
    real = mesh.build_blowup_complex

    def spy(V):
        calls.append(V)
        return real(V)

    monkeypatch.setattr(mesh, "build_blowup_complex", spy)
    rep = global_cohomology("tet-pair", "general")
    assert rep["betti_blowup"] == [1, 0, 0, 0]
    assert calls == [(0, 1, 2, 3)]


def test_sign_error_in_local_coboundary_fails_dd_zero(monkeypatch):
    from blowupforms import mesh
    from blowupforms.blowcx import BlowupComplex

    cx = mesh.build_blowup_complex((0, 1, 2))
    col = dict(cx.coboundary[0][0])
    first = next(iter(col))
    col[first] = -col[first]
    cob = dict(cx.coboundary)
    cob[0] = [col] + cob[0][1:]
    broken = BlowupComplex(cells=cx.cells, coboundary=cob)
    monkeypatch.setattr(mesh, "build_blowup_complex", lambda V: broken)
    rep = global_cohomology("triangle-pair", "general")
    assert rep["dd_zero"] is False


def test_nonmanifold_verbatim_mode():
    # three triangles around one edge: accepted with manifold="none",
    # constraints applied verbatim, report marked non-manifold
    # a codimension-one face with three cofaces gets a single verbatim
    # sum-zero row, which does not force constancy across the three pages
    rep = global_cohomology(NONMANIFOLD_FAN, "general")
    assert rep["nonmanifold"] is True
    assert rep["dd_zero"] is True
    assert rep["betti_blowup"][0] == 2
