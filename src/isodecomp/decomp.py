"""Facewise affine maps, decomposability dimension, summand extraction,
and symmetry-restricted bounds.

A vertex-value vector g (one rational per vertex) is facewise affine when
on every facet the values are compatible with an affine function, i.e.
g is orthogonal to every affine dependence of the facet's vertices.  The
space F(P) of such vectors is linearly isomorphic to the span of the
Minkowski-summand cone of the polar body, so dim F(P) is the dimension
of decomposability of P's polar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GroupTooLarge, InternalCheckFailed, NotASymmetry, PreconditionError
from .exactnum import Matrix, Vec, dot, is_zero_vec, kernel_basis, rat, rref_rank, vec
from .polytope import Facet, Polytope, polar


@dataclass(frozen=True)
class DependenceSpace:
    """Affine dependences of one facet's vertex tuple.

    Basis vectors x satisfy sum x_i v_i = 0 and sum x_i = 0, indexed by
    the facet's local vertex order.
    """

    facet: Facet
    basis: tuple[Vec, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FacewiseAffineSpace:
    """Canonical (RREF) basis of the facewise affine maps of a polytope."""

    polytope: Polytope
    basis: tuple[Vec, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    lower_bound: int


@dataclass(frozen=True)
class SymmetryGroup:
    generators: tuple[Matrix, ...]
    elements: tuple[Matrix, ...]
    v_dim: int
    w_dim: int


@dataclass(frozen=True)
class SymmetryReport:
    group: SymmetryGroup
    fixed_space_dim: int
    bound: int
    satisfies: bool


@dataclass(frozen=True)
class ThresholdReport:
    dim: int
    bound: int
    exceeds: bool


def dependence_space(p: Polytope, facet) -> DependenceSpace:
    """Kernel of the facet vertex matrix stacked with a row of ones."""
    f = p.facets[facet] if isinstance(facet, int) else facet
    pts = [p.vertices[i] for i in f.vertex_indices]
    rows = [[pt[i] for pt in pts] for i in range(p.dim)]
    rows.append([Fraction(1)] * len(pts))
    basis = kernel_basis(Matrix.from_rows(rows, len(pts)))
    return DependenceSpace(f, tuple(basis))


def _dependence_rows(p: Polytope) -> list[Vec]:
    """All facet dependences embedded into R^(#vertices)."""
    m = len(p.vertices)
    rows: list[Vec] = []
    for f in p.facets:
        ds = dependence_space(p, f)
        for x in ds.basis:
            row = [Fraction(0)] * m
            for local, gi in enumerate(f.vertex_indices):
                row[gi] = x[local]
            rows.append(tuple(row))
    return rows


def facewise_affine_space(p: Polytope) -> FacewiseAffineSpace:
    """F(P) as the kernel of the stacked facet dependence constraints."""
    m = len(p.vertices)
    rows = _dependence_rows(p)
    basis = kernel_basis(Matrix.from_rows(rows, m))
    # canonicalize: RREF of the basis matrix, rows are the basis vectors
    if basis:
        reduced, rank, _ = rref_rank(Matrix.from_rows(basis, m))
        basis = [reduced.rows[i] for i in range(rank)]
    return FacewiseAffineSpace(p, tuple(basis))


def smilansky_dimension(p: Polytope) -> int:
    """#vertices minus the rank of the union of facet dependence spaces.

    An independent route to dim F(P): rank of stacked dependence bases
    instead of a kernel computation; the two are asserted to agree.
    """
    m = len(p.vertices)
    rows = _dependence_rows(p)
    dim = m - rref_rank(Matrix.from_rows(rows, m))[1]
    other = facewise_affine_space(p).dimension
    if dim != other:
        raise InternalCheckFailed(
            "dimension cross-check failed: %d (dependence rank) != %d (kernel)" % (dim, other))
    return dim


def decomposability_threshold(n: int) -> int:
    return (n * n + 3 * n) // 2


def threshold_check(p: Polytope) -> ThresholdReport:
    """Compare dim F(P) (= dim of the summand span of the polar) with the
    bound (n^2+3n)/2 that a local maximizer of the isotropic constant
    cannot exceed; exceeding it certifies 'not a local maximizer'."""
    dim = facewise_affine_space(p).dimension
    bound = decomposability_threshold(p.dim)
    return ThresholdReport(dim=dim, bound=bound, exceeds=dim > bound)


def is_facewise_affine(p: Polytope, g: Sequence) -> bool:
    g = vec(g)
    for row in _dependence_rows(p):
        if dot(row, g) != 0:
            return False
    return True


def hypergraph_components(p: Polytope) -> ComponentReport:
    """Connected components after the non-simplex facets are read as
    hyperedges; isolated vertices count 0, a single facet n-1, else n."""
    m = len(p.vertices)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    hyperedges = [f.vertex_indices for f in p.facets if len(f.vertex_indices) > p.dim]
    for edge in hyperedges:
        for i in edge[1:]:
            union(edge[0], i)

    comp: dict[int, list[int]] = {}
    for i in range(m):
        comp.setdefault(find(i), []).append(i)
    edge_count: dict[int, list[tuple[int, ...]]] = {}
    for edge in hyperedges:
        edge_count.setdefault(find(edge[0]), []).append(edge)

    components, dims = [], []
    for root, members in sorted(comp.items(), key=lambda kv: kv[1][0]):
        members_t = tuple(sorted(members))
        edges = edge_count.get(root, [])
        if not edges:
            d = 0
        elif len(edges) == 1 and set(edges[0]) == set(members_t):
            d = p.dim - 1
        else:
            d = p.dim
        components.append(members_t)
        dims.append(d)
    lower = sum(d + 1 for d in dims)
    fdim = facewise_affine_space(p).dimension
    if lower > fdim:
        raise InternalCheckFailed("component lower bound %d exceeds dim F(P) = %d" % (lower, fdim))
    return ComponentReport(tuple(components), tuple(dims), lower)


def summand_pair(p: Polytope, g: Sequence, eps: Fraction) -> tuple[Polytope, Polytope]:
    """Non-trivial Minkowski summands of 2 * polar(P) from a facewise
    affine direction: polars of the radially perturbed bodies at +-eps.

    Their support functions are gauge(P) +- eps*f, so the two bodies sum
    to 2 * polar(P) exactly.
    """
    from .variations import radial_polytope

    g = vec(g)
    eps = rat(eps)
    if is_zero_vec(g):
        raise PreconditionError("speed must be nonzero")
    plus = radial_polytope(p, g, eps)
    minus = radial_polytope(p, tuple(-x for x in g), eps)
    return polar(plus), polar(minus)


def _closure(generators: list[Matrix], cap: int) -> list[Matrix]:
    def key(m: Matrix):
        return m.rows

    seen = {key(Matrix.identity(generators[0].nrows)): Matrix.identity(generators[0].nrows)}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for m in frontier:
            for gen in generators:
                prod = gen.matmul(m)
                k = key(prod)
                if k not in seen:
                    if len(seen) >= cap:
                        raise GroupTooLarge("group closure exceeded %d elements" % cap)
                    seen[k] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def _vertex_permutation(p: Polytope, u: Matrix) -> list[int]:
    index = {v: i for i, v in enumerate(p.vertices)}
    perm = []
    for v in p.vertices:
        image = u.matvec(v)
        j = index.get(image)
        if j is None:
            raise NotASymmetry("generator does not map the vertex set to itself")
        perm.append(j)
    return perm


def symmetry_analysis(p: Polytope, generators: Sequence, cap: int = 10_000) -> SymmetryReport:
    """Symmetry-restricted decomposability bound.

    V_G is the space of symmetric matrices commuting with the group, W_G
    its fixed vectors; within the G-symmetric class a local maximizer's
    polar satisfies dim of the G-symmetric summand span <= dim V_G +
    dim W_G.  The report compares that bound with the dimension of the
    G-invariant part of F(P).
    """
    n = p.dim
    gens = [g if isinstance(g, Matrix) else Matrix.from_rows(g) for g in generators]
    if not gens:
        raise PreconditionError("need at least one generator")
    ident = Matrix.identity(n)
    for g in gens:
        if g.nrows != n or g.ncols != n:
            raise NotASymmetry("generator shape does not match dimension")
        if g.transpose().matmul(g).rows != ident.rows:
            raise NotASymmetry("generator is not exactly orthogonal")
    perms = [_vertex_permutation(p, g) for g in gens]
    elements = _closure(gens, cap)

    # V_G: symmetric matrices with U A = A U for all generators
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = []
    for u in gens:
        for r in range(n):
            for c in range(n):
                row = []
                for (i, j) in pairs:
                    # d/dA_{ij} of (U A - A U)_{rc} with A symmetric
                    val = Fraction(0)
                    if j == c:
                        val += u.rows[r][i]
                    if i == c and i != j:
                        val += u.rows[r][j]
                    if i == r:
                        val -= u.rows[j][c]
                    if j == r and i != j:
                        val -= u.rows[i][c]
                    row.append(val)
                rows.append(row)
    v_dim = len(kernel_basis(Matrix.from_rows(rows, len(pairs))))

    # W_G: common fixed vectors of the generators
    wrows = []
    for u in gens:
        for r in range(n):
            wrows.append([u.rows[r][c] - (1 if r == c else 0) for c in range(n)])
    w_dim = len(kernel_basis(Matrix.from_rows(wrows, n)))

    # G-invariant facewise affine maps: g(Uv) = g(v)
    m = len(p.vertices)
    fam_rows = list(_dependence_rows(p))
    for perm in perms:
        for i in range(m):
            if perm[i] == i:
                continue
            row = [Fraction(0)] * m
            row[perm[i]] += 1
            row[i] -= 1
            fam_rows.append(tuple(row))
    fg_dim = len(kernel_basis(Matrix.from_rows(fam_rows, m)))

    group = SymmetryGroup(tuple(gens), tuple(elements), v_dim, w_dim)
    bound = v_dim + w_dim
    return SymmetryReport(group, fg_dim, bound, fg_dim <= bound)
