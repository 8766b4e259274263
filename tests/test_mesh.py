import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

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
# the 6-vertex real projective plane (the hemi-icosahedron)
RP2 = {"dimension": 2, "manifold": "closed", "cells": [
    [1, 2, 4], [1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5],
    [2, 3, 4], [2, 3, 5], [2, 5, 6], [3, 4, 6], [4, 5, 6]]}
# the tetrahedron subdivided at an interior vertex 4, whose link is a 2-sphere
SUBDIVIDED_TET = {"dimension": 3, "cells": [[0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]}
# the cone from vertex 6 over an annulus: no facet borders three cells and the
# star of every face is connected, yet the link of vertex 6 is no disk
ANNULUS_CONE = {"dimension": 3, "cells": [[0, 1, 2, 6], [0, 1, 5, 6], [0, 3, 5, 6],
                                          [1, 2, 4, 6], [2, 3, 4, 6], [3, 4, 5, 6]]}


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


def _refused(message: str):
    """Expect a MeshError whose message is exactly ``message``."""
    return pytest.raises(MeshError, match=f"^{re.escape(message)}$")


NONMANIFOLD_FAN = {"dimension": 2, "cells": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}
FAN_MESSAGE = "face (0, 1) has a link with Betti numbers [3], not [2]"


def test_nonmanifold_rejected_unless_allowed():
    # three triangles on one edge: the edge's link is three points, not two;
    # no manifold value allows it, and "none" is itself refused
    with _refused(FAN_MESSAGE):
        Triangulation(2, NONMANIFOLD_FAN["cells"])
    for manifold in ("none", "bogus"):
        with pytest.raises(MeshError, match="^manifold must be closed/boundary"):
            Triangulation(2, NONMANIFOLD_FAN["cells"], manifold=manifold)
        with pytest.raises(MeshError, match="^manifold must be closed/boundary"):
            load_mesh({**MOBIUS_STRIP, "manifold": manifold})


def test_nonmanifold_verbatim_mode():
    # the fan once got a verbatim sum-zero row and a wrong H^0 of 2; now no
    # rule assembles it, with or without a manifold declaration
    for rule in ("general", "edge-identified"):
        with _refused(FAN_MESSAGE):
            global_cohomology(NONMANIFOLD_FAN, rule)
        for manifold in ("closed", "boundary"):
            with pytest.raises(MeshError):
                global_cohomology({**NONMANIFOLD_FAN, "manifold": manifold}, rule)
        with pytest.raises(MeshError, match="^manifold must be closed/boundary"):
            global_cohomology({**NONMANIFOLD_FAN, "manifold": "none"}, rule)


def test_closed_declaration_checked():
    with pytest.raises(MeshError):
        Triangulation(2, [[0, 1, 2]], manifold="closed")


def test_pinched_vertex_link_rejected():
    cells = [[0, 1, 2], [0, 3, 4]]
    with _refused("vertex 0 has a link with Betti numbers [2, 0], not [1, 0]"):
        Triangulation(2, cells)


# two tetrahedra sharing only vertex 0, and two sharing only the edge 01: no
# facet borders three cells, but the link of the shared face falls apart
TET_PINCHES = [([[0, 1, 2, 3], [0, 4, 5, 6]], "vertex 0"),
               ([[0, 1, 2, 3], [0, 1, 4, 5]], "face (0, 1)")]


@pytest.mark.parametrize("cells, face", TET_PINCHES)
def test_3d_pinch_rejected(cells, face):
    with pytest.raises(MeshError, match=rf"^{re.escape(face)} has a link with Betti numbers \[2, "):
        Triangulation(3, cells)


def test_annulus_vertex_link_rejected():
    with _refused("vertex 6 has a link with Betti numbers [1, 1, 0], not [1, 0, 0]"):
        load_mesh(ANNULUS_CONE)


def test_bundled_meshes_load_as_manifolds():
    assert len(SAMPLE_MESHES) == 8
    for name in SAMPLE_MESHES:
        load_mesh(name)
    # the report keeps its key; a mesh that loads is a homology manifold
    assert global_cohomology("triangle-pair", "general")["nonmanifold"] is False


def test_pinched_octahedra_rejected():
    # two octahedra sharing only vertex 0: no facet borders three cells, but
    # the link of vertex 0 is two circles; each octahedron alone loads
    octahedron = SAMPLE_MESHES["octahedron"]["cells"]
    cells = octahedron + [[v + 5 if v else 0 for v in c] for c in octahedron]
    with _refused("vertex 0 has a link with Betti numbers [2, 2], not [1, 1]"):
        Triangulation(2, cells)
    Triangulation(2, octahedron)


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
    for doc in (MOBIUS_STRIP, _klein_bottle(3), RP2):
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
    MOBIUS_STRIP, _klein_bottle(4), RP2, SUBDIVIDED_TET)]
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
        signs, conflict = walk(self, K)
        t = rng.choice((1, -1))
        return {ci: t * s for ci, s in signs.items()}, conflict

    monkeypatch.setattr(Triangulation, "orient_star", rescaled)
    for _ in range(2):
        assert _gauge_reports() == want

    def one_flipped(self, K):
        signs, conflict = walk(self, K)
        if len(signs) > 1:
            ci = rng.choice(sorted(signs))
            signs[ci] = -signs[ci]
        return signs, conflict

    monkeypatch.setattr(Triangulation, "orient_star", one_flipped)
    assert global_cohomology("torus-7", "general") != want[GAUGE_CASES.index(("torus-7", "general"))]
    monkeypatch.undo()
    # the program reads no orientation key: a document that carries one loads the same
    for signs in ([1] * 5, [1, -1, 1, -1, 1]):
        assert global_cohomology({**MOBIUS_STRIP, "orientation": signs}, "general") \
            == want[GAUGE_CASES.index((MOBIUS_STRIP, "general"))]


def test_orient_star_components_and_conflicts():
    mobius = load_mesh(MOBIUS_STRIP)
    signs, conflict = mobius.orient_star(())
    assert sorted(signs) == list(range(5)) and conflict
    for v in mobius.vertices:
        assert not mobius.orient_star((v,))[1]
    torus = load_mesh("torus-7")
    signs, conflict = torus.orient_star(())
    assert sorted(signs) == list(range(14)) and signs[0] == 1
    assert not conflict
    # each component starts at +1
    two_pieces = Triangulation(2, [[0, 1, 2], [3, 4, 5]])
    assert two_pieces.orient_star(()) == ({0: 1, 1: 1}, False)


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


# -- the link rule against assembly, and against the former rule ----------------------

def _star_rule(dimension: int, cells) -> bool:
    """The loader's former manifold test: no facet borders more than two cells,
    and the cells around each face of codimension at least two stay connected
    across the facets that contain the face."""
    cofaces: dict[tuple, list[int]] = {}
    for ci, c in enumerate(cells):
        for size in range(1, dimension + 1):
            for f in combinations(c, size):
                cofaces.setdefault(f, []).append(ci)
    if any(len(star) > 2 for f, star in cofaces.items() if len(f) == dimension):
        return False
    for K, star in cofaces.items():
        if len(K) == dimension:
            continue
        reached, stack = {star[0]}, [star[0]]
        while stack:
            for f in combinations(cells[stack.pop()], dimension):
                if set(K) <= set(f):
                    new = set(cofaces[f]) - reached
                    reached |= new
                    stack += sorted(new)
        if len(reached) < len(star):
            return False
    return True


@st.composite
def pure_complexes(draw) -> dict:
    """A pure complex of dimension 1-3 on at most 9 vertices, or the cone from
    vertex 8 over a 2D one, where the link of the apex is the whole base."""
    if draw(st.booleans()):
        base = draw(st.lists(st.frozensets(st.integers(0, 7), min_size=3, max_size=3),
                             min_size=1, max_size=10, unique=True))
        return {"dimension": 3, "cells": [sorted(c) + [8] for c in base]}
    n = draw(st.integers(1, 3))
    cells = draw(st.lists(st.frozensets(st.integers(0, 8), min_size=n + 1, max_size=n + 1),
                          min_size=1, max_size=10, unique=True))
    return {"dimension": n, "cells": [sorted(c) for c in cells]}


@st.composite
def strip_cones(draw) -> dict:
    """The cone from a new apex over n >= 3 quads glued end to end into a ring,
    straight (an annulus) or with a half twist (a Moebius band), each quad cut
    along a drawn diagonal, with one boundary circle optionally capped by a fan
    (a disk, or the projective plane)."""
    n, twist = draw(st.integers(3, 5)), draw(st.booleans())
    us, ws = list(range(n)), list(range(n, 2 * n))
    ends = list(zip(us, ws)) + [(ws[0], us[0]) if twist else (us[0], ws[0])]
    base = []
    for (a, b), (c, d) in zip(ends, ends[1:]):
        base += [[a, b, c], [b, c, d]] if draw(st.booleans()) else [[a, b, d], [a, c, d]]
    if draw(st.booleans()):
        ring = us + ws if twist else us
        base += [[u, w, 2 * n] for u, w in zip(ring, ring[1:] + ring[:1])]
    return {"dimension": 3, "cells": [sorted(c) + [2 * n + 1] for c in base]}


@settings(max_examples=150, deadline=None)
@given(st.one_of(pure_complexes(), strip_cones()))
@example(ANNULUS_CONE)
def test_loader_refuses_what_general_assembly_would_get_wrong(doc):
    # a mesh either is refused with its face named, or gets the simplicial
    # Betti numbers under the general rule; in 1D and 2D the link rule
    # accepts exactly what the former facet-count and star test accepted
    try:
        tri = load_mesh(doc)
    except MeshError as exc:
        assert re.match(r"^(vertex \d+|face \([\d, ]+\)) has a link with Betti numbers", str(exc))
        accepted = False
    else:
        rep = global_cohomology(tri, "general")
        assert rep["match"] and rep["dd_zero"], rep
        accepted = True
    if doc["dimension"] < 3:
        assert accepted == _star_rule(doc["dimension"], [tuple(c) for c in doc["cells"]])


def _stellar(cells, K, w):
    """Stellar subdivision of the face K at the new vertex w: each cell c that
    contains K becomes the cells c - {v} + {w}, v in K."""
    out = [c for c in cells if not set(K) <= set(c)]
    return out + [sorted(set(c) - {v} | {w}) for c in cells if set(K) <= set(c) for v in K]


def _flip(cells, f, a, b):
    """The bistellar flip across the facet f of the cells f + {a} and f + {b}:
    they become the cells f - {v} + {a, b}, v in f (a 2-2 flip in 2D)."""
    out = [c for c in cells if sorted(c) not in (sorted(f + (a,)), sorted(f + (b,)))]
    return out + [sorted(set(f) - {v} | {a, b}) for v in f]


def _random_move(doc: dict, rnd) -> dict:
    """One stellar subdivision of a face of dimension >= 1, or one flip across an
    interior facet whose opposite vertices span no edge yet."""
    tri = load_mesh(doc)
    cells = [list(c) for c in tri.cells]
    flips = [(f, *(v for ci in tri.cofaces[f] for v in tri.cells[ci] if v not in f))
             for f in tri.faces[tri.dimension - 1] if len(tri.cofaces[f]) == 2]
    flips = [(f, a, b) for f, a, b in flips if tuple(sorted((a, b))) not in tri.cofaces]
    if flips and rnd.random() < 0.5:
        return {**doc, "cells": _flip(cells, *rnd.choice(flips))}
    K = rnd.choice([K for d in range(1, tri.dimension + 1) for K in tri.faces[d]])
    return {**doc, "cells": _stellar(cells, K, max(tri.vertices) + 1)}


@pytest.mark.parametrize("base", ["torus-7", "octahedron", "tet-pair", "mobius"])
@settings(max_examples=4, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_pachner_moves_keep_the_cohomology(base, rnd):
    # stellar subdivisions and flips change the mesh, not its topology: after
    # every move it loads, and the general rule gives its simplicial Betti
    # numbers, which stay those of the base; the 2D variants keep their H^0,
    # except cell-discontinuous, whose H^0 counts the cells
    doc = MOBIUS_STRIP if base == "mobius" else SAMPLE_MESHES[base]
    want = list(simplicial_cohomology(doc))
    variants = [v for v in GLUING_VARIANTS if v != "general-continuity" and doc["dimension"] == 2]
    h0 = {rule: global_cohomology(doc, rule)["betti_blowup"] for rule in variants}
    for _ in range(3):
        doc = _random_move(doc, rnd)
        rep = global_cohomology(doc, "general")
        assert rep["dd_zero"] and rep["betti_blowup"] == rep["betti_simplicial"] == want
        for rule in variants:
            rep = global_cohomology(doc, rule)
            assert rep["match"], rule
            assert rule == "cell-discontinuous" or rep["betti_blowup"] == h0[rule], rule
