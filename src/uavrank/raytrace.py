"""Exact specular path tracing via the image method.

Facets are the ground plane plus the walls and roofs of axis-aligned box
buildings.  Mirroring the transmitter across one or two facets enumerates
every candidate specular path up to reflection order 2; each candidate is
validated by a forward occlusion test against all geometry.  Tree trunks
block a path outright, canopies only attenuate.

trace_paths traces one link, and that per-link code is the reference; given an
array of receivers it returns the same paths for all of them as one
struct-of-arrays PathTable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .scene import SPEED_OF_LIGHT, Material, Scene, Tree, block_length, permittivity

# Segments grazing geometry within this distance count as unblocked, which
# keeps reflection points from occluding their own facet.
GRAZE_TOL = 1e-6
# Containment tolerance for reflection points on facet rectangles.
POINT_TOL = 1e-9

MIN_RX_ALTITUDE = 0.5


@dataclass(frozen=True)
class Reflection:
    """One specular bounce: surface material, incidence angle, polarization."""

    material: Material
    angle: float  # radians from the facet normal
    pol: str  # "TE" or "TM"


@dataclass(frozen=True)
class RayPath:
    kind: str  # "los" or "reflected"
    order: int
    vertices: tuple  # ordered 3D points: tx, bounce points..., rx
    length: float
    delay: float
    aod: tuple[float, float]  # (azimuth, elevation) of departure at tx
    aoa: tuple[float, float]  # (azimuth, elevation) of the arriving direction at rx
    gain: complex
    reflections: tuple[Reflection, ...]
    foliage_db: float


@dataclass(frozen=True)
class _Facet:
    axis: int  # 0, 1 or 2: which coordinate is constant
    value: float
    sign: float  # outward normal direction along `axis`
    lo: tuple[float, float, float]  # bounding box; `value` on `axis`, +-inf for the ground
    hi: tuple[float, float, float]
    material: Material

    def front_of(self, p) -> bool:
        return self.sign * (p[self.axis] - self.value) > POINT_TOL

    def mirror(self, p) -> np.ndarray:
        q = np.array(p, dtype=float)
        q[self.axis] = 2.0 * self.value - q[self.axis]
        return q

    def contains(self, p) -> bool:
        # as _contains: p lies on the facet plane, so only the in-plane bounds can fail
        return all(lo - POINT_TOL <= x <= hi + POINT_TOL
                   for x, lo, hi in zip(p, self.lo, self.hi))


def scene_facets(s: Scene) -> list[_Facet]:
    inf = np.inf
    facets = [_Facet(2, 0.0, 1.0, (-inf, -inf, 0.0), (inf, inf, 0.0), s.ground_material)]
    for b in s.buildings:
        x0, x1 = b.x, b.x + b.w
        y0, y1 = b.y, b.y + b.h
        z1, m = b.height, b.material
        facets += [
            _Facet(0, x0, -1.0, (x0, y0, 0.0), (x0, y1, z1), m),
            _Facet(0, x1, +1.0, (x1, y0, 0.0), (x1, y1, z1), m),
            _Facet(1, y0, -1.0, (x0, y0, 0.0), (x1, y0, z1), m),
            _Facet(1, y1, +1.0, (x0, y1, 0.0), (x1, y1, z1), m),
            _Facet(2, z1, +1.0, (x0, y0, z1), (x1, y1, z1), m),  # roof
        ]
    return facets


def fresnel_reflection(eps_r: complex, incidence_angle: float, pol: str) -> complex:
    """Fresnel reflection coefficient of a dielectric half-space.

    `incidence_angle` is measured from the surface normal.  Both polarizations
    give (1 - sqrt(eps)) / (1 + sqrt(eps)) at normal incidence; TE tends to -1
    at grazing.
    """
    if not (0 <= incidence_angle < np.pi / 2 + 1e-12):
        raise ValueError(f"incidence angle out of range: {incidence_angle}")
    cos_t = np.cos(incidence_angle)
    sin2 = np.sin(incidence_angle) ** 2
    g = np.sqrt(eps_r - sin2)
    if pol == "TE":
        return complex((cos_t - g) / (cos_t + g))
    if pol == "TM":
        return complex((g - eps_r * cos_t) / (g + eps_r * cos_t))
    raise ValueError(f"polarization must be 'TE' or 'TM', got {pol!r}")


# ---------------------------------------------------------------------------
# Occlusion and foliage
# ---------------------------------------------------------------------------


def _segment_box_blocked(p0, p1, x0, x1, y0, y1, z0, z1) -> bool:
    """True if the segment has a chord longer than GRAZE_TOL inside the box."""
    lo = np.array([x0, y0, z0]) + GRAZE_TOL
    hi = np.array([x1, y1, z1]) - GRAZE_TOL
    if np.any(lo >= hi):
        return False
    d = p1 - p0
    tmin, tmax = 0.0, 1.0
    for i in range(3):
        if abs(d[i]) < 1e-15:
            if p0[i] < lo[i] or p0[i] > hi[i]:
                return False
        else:
            ta = (lo[i] - p0[i]) / d[i]
            tb = (hi[i] - p0[i]) / d[i]
            if ta > tb:
                ta, tb = tb, ta
            tmin = max(tmin, ta)
            tmax = min(tmax, tb)
            if tmin >= tmax:
                return False
    return (tmax - tmin) * np.linalg.norm(d) > GRAZE_TOL


def _quad_le0_interval(A, B, C):
    """Solution of A t^2 + B t + C <= 0 as a list of (lo, hi) intervals."""
    if abs(A) < 1e-15:
        if abs(B) < 1e-15:
            return [(-np.inf, np.inf)] if C <= 0 else []
        t = -C / B
        return [(-np.inf, t)] if B > 0 else [(t, np.inf)]
    disc = B * B - 4 * A * C
    if disc <= 0:
        return [] if A > 0 else [(-np.inf, np.inf)]
    r = np.sqrt(disc)
    t1 = (-B - r) / (2 * A)
    t2 = (-B + r) / (2 * A)
    t1, t2 = min(t1, t2), max(t1, t2)
    if A > 0:
        return [(t1, t2)]
    return [(-np.inf, t1), (t2, np.inf)]


def _sum_in_order(values):
    """The sum of values added left to right, as the batched tracer adds: not
    the builtin sum, which Python >= 3.12 compensates."""
    total = 0
    for v in values:
        total = total + v
    return total


def _clip_intervals(intervals, lo, hi):
    out = []
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            out.append((a, b))
    return out


def _z_interval(z0, dz, zlo, zhi):
    """t-interval where z0 + t*dz lies in [zlo, zhi]."""
    if abs(dz) < 1e-15:
        return (0.0, 1.0) if zlo <= z0 <= zhi else None
    ta = (zlo - z0) / dz
    tb = (zhi - z0) / dz
    return (min(ta, tb), max(ta, tb))


def _near_trees(trees, p0, p1, radii):
    """Indices of trees whose horizontal reach may touch the segment."""
    c = np.array([[t.x, t.y] for t in trees])
    u0 = c - p0[:2]
    du = (p1 - p0)[:2]
    L2 = du @ du
    if L2 < 1e-30:
        d2 = np.einsum("ij,ij->i", u0, u0)
    else:
        t = np.clip((u0 @ du) / L2, 0.0, 1.0)
        closest = np.outer(t, du) - u0
        d2 = np.einsum("ij,ij->i", closest, closest)
    return np.nonzero(d2 <= (radii + GRAZE_TOL) ** 2)[0]


def _trunk_blocked(tree: Tree, p0, p1) -> bool:
    d = p1 - p0
    seg_len = np.linalg.norm(d)
    if seg_len < 1e-15:
        return False
    r = tree.trunk_radius - GRAZE_TOL
    if r <= 0:
        return False
    u0 = p0[:2] - np.array([tree.x, tree.y])
    du = d[:2]
    A = du @ du
    B = 2.0 * (u0 @ du)
    C = u0 @ u0 - r * r
    ivs = _quad_le0_interval(A, B, C)
    zi = _z_interval(p0[2], d[2], GRAZE_TOL, tree.trunk_height - GRAZE_TOL)
    if zi is None:
        return False
    ivs = _clip_intervals(ivs, max(0.0, zi[0]), min(1.0, zi[1]))
    chord = _sum_in_order(b - a for a, b in ivs) * seg_len
    return chord > GRAZE_TOL


def _canopy_chord(tree: Tree, p0, p1) -> float:
    """Chord length (m) of the segment through the canopy cone."""
    d = p1 - p0
    seg_len = np.linalg.norm(d)
    if seg_len < 1e-15:
        return 0.0
    z_base = tree.trunk_height
    z_apex = tree.trunk_height + tree.canopy_height
    k = tree.canopy_base_radius / tree.canopy_height
    u0 = p0[:2] - np.array([tree.x, tree.y])
    du = d[:2]
    w0 = z_apex - p0[2]
    dz = d[2]
    A = du @ du - k * k * dz * dz
    B = 2.0 * (u0 @ du) + 2.0 * k * k * w0 * dz
    C = u0 @ u0 - k * k * w0 * w0
    ivs = _quad_le0_interval(A, B, C)
    zi = _z_interval(p0[2], dz, z_base, z_apex)  # also excludes the mirror cone
    if zi is None:
        return 0.0
    ivs = _clip_intervals(ivs, max(0.0, zi[0]), min(1.0, zi[1]))
    return _sum_in_order(b - a for a, b in ivs) * seg_len


def foliage_loss(p0, p1, trees) -> float:
    """Foliage attenuation of a segment in dB; +inf if a trunk is crossed."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    trees = list(trees)
    if not trees:
        return 0.0
    reach = np.array([max(t.trunk_radius, t.canopy_base_radius) for t in trees])
    total = 0.0
    for i in _near_trees(trees, p0, p1, reach):
        t = trees[i]
        if _trunk_blocked(t, p0, p1):
            return np.inf
        total += _canopy_chord(t, p0, p1) * t.attenuation_db_per_m
    return total


# ---------------------------------------------------------------------------
# Path construction
# ---------------------------------------------------------------------------


def _angles(direction) -> tuple[float, float]:
    az = float(np.arctan2(direction[1], direction[0]))
    el = float(np.arcsin(np.clip(direction[2], -1.0, 1.0)))
    return az, el


def _facet_pol(facet: _Facet) -> str:
    # Horizontal facets (ground, roofs) see the vertically polarized component
    # of the field; vertical walls see the horizontal one.
    return "TM" if facet.axis == 2 else "TE"


def _make_path(s: Scene, vertices, facets_hit) -> RayPath | None:
    verts = [np.asarray(v, dtype=float) for v in vertices]
    segs = list(zip(verts[:-1], verts[1:]))
    length = _sum_in_order(float(np.linalg.norm(b - a)) for a, b in segs)
    fol = 0.0
    for a, b in segs:
        for bl in s.buildings:
            if _segment_box_blocked(a, b, bl.x, bl.x + bl.w, bl.y, bl.y + bl.h, 0.0, bl.height):
                return None
        fol += foliage_loss(a, b, s.trees)
    if not np.isfinite(fol):  # a tree trunk blocks a segment
        return None

    reflections = []
    for i, facet in enumerate(facets_hit):
        q = verts[i + 1]
        d_in = q - verts[i]
        d_in = d_in / np.linalg.norm(d_in)
        n = np.zeros(3)
        n[facet.axis] = facet.sign
        cos_t = abs(float(d_in @ n))
        angle = float(np.arccos(np.clip(cos_t, 0.0, 1.0)))
        reflections.append(
            Reflection(material=facet.material, angle=angle, pol=_facet_pol(facet))
        )

    d_out = verts[1] - verts[0]
    d_out = d_out / np.linalg.norm(d_out)
    d_arr = verts[-1] - verts[-2]
    d_arr = d_arr / np.linalg.norm(d_arr)

    order = len(facets_hit)
    path = RayPath(
        kind="los" if order == 0 else "reflected",
        order=order,
        vertices=tuple(tuple(v) for v in verts),
        length=length,
        delay=length / SPEED_OF_LIGHT,
        aod=_angles(d_out),
        aoa=_angles(d_arr),
        gain=0j,
        reflections=tuple(reflections),
        foliage_db=fol,
    )
    return replace(path, gain=path_gain(path, s))


def path_gain(p: RayPath, s: Scene) -> complex:
    """Complex amplitude: spreading, reflection products, foliage loss, phase."""
    lam = s.wavelength_m
    g = lam / (4.0 * np.pi * p.length)
    for r in p.reflections:
        eps = permittivity(r.material, s.frequency_hz)
        g *= fresnel_reflection(eps, r.angle, r.pol)
    g *= 10.0 ** (-p.foliage_db / 20.0)
    g *= np.exp(-2j * np.pi * p.length / lam)
    return complex(g)


def _reflect_once(facet: _Facet, src_image, target):
    """Reflection point of the mirrored source toward target, or None."""
    a, v = facet.axis, facet.value
    denom = target[a] - src_image[a]
    if abs(denom) < 1e-15:
        return None
    t = (v - src_image[a]) / denom
    if not (POINT_TOL < t < 1.0 - POINT_TOL):
        return None
    q = src_image + t * (target - src_image)
    q[a] = v  # exact by construction
    if not facet.contains(q):
        return None
    return q


def trace_paths(s: Scene, tx, rx):
    """All unblocked specular paths from tx to rx of up to two reflections.

    For one receiver point, returns a list of RayPath, empty when the
    receiver is out of coverage.  For an (N, 3) array of receivers, returns
    the same paths of all N links as one PathTable.  Receiver altitudes below
    0.5 m are clamped to 0.5 m.
    """
    if np.ndim(rx) == 2:
        return _trace_grid(s, tx, rx)
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float).copy()
    rx[2] = max(rx[2], MIN_RX_ALTITUDE)
    if np.allclose(tx, rx):
        raise ValueError("tx and rx must be distinct points")

    facets = scene_facets(s)
    paths = []

    los = _make_path(s, [tx, rx], [])
    if los is not None:
        paths.append(los)

    for f in facets:
        if not (f.front_of(tx) and f.front_of(rx)):
            continue
        q = _reflect_once(f, f.mirror(tx), rx)
        if q is None:
            continue
        p = _make_path(s, [tx, q, rx], [f])
        if p is not None:
            paths.append(p)

    for i, f1 in enumerate(facets):
        if not f1.front_of(tx):
            continue
        img1 = f1.mirror(tx)
        for j, f2 in enumerate(facets):
            if j == i or not f2.front_of(rx):
                continue
            img2 = f2.mirror(img1)
            q2 = _reflect_once(f2, img2, rx)
            if q2 is None:
                continue
            if not f1.front_of(q2):
                continue
            q1 = _reflect_once(f1, img1, q2)
            if q1 is None:
                continue
            if not f2.front_of(q1):
                continue
            p = _make_path(s, [tx, q1, q2, rx], [f1, f2])
            if p is not None:
                paths.append(p)

    return paths


# ---------------------------------------------------------------------------
# Receiver-batched tracing
#
# The same enumeration, occlusion and gain as trace_paths, solved as numpy
# arrays over many receivers at once.  Every formula repeats the scalar
# operation order, and dot products go through np.matmul so that they use the
# same BLAS kernel as the scalar `@` and np.linalg.norm: the results are
# bit-identical to trace_paths, which the tests use as the oracle.
# ---------------------------------------------------------------------------

# Elements a receiver adds to a block of receivers (scene.block_length)
# besides its candidates: its own point, LOS segment, angles and gains, which
# dominate when a scene has few facets.
_RX_ELEMENTS = 16


class PathRow(NamedTuple):
    """One path of a PathTable, as iterating the table yields it: the
    benchmark's tracer counts the paths of every trace_paths table this way."""

    cell: int
    order: int
    aod: tuple[float, float]
    aoa: tuple[float, float]
    gain: complex


@dataclass(frozen=True)
class PathTable:
    """Struct-of-arrays specular paths of many links.

    Rows are grouped by receiver (`cell` indexes the receiver list) and, for
    each receiver, ordered as trace_paths returns them: LOS, then first order
    by facet index, then second order by facet pair.  len() is the number of
    paths; iterating yields PathRow records.
    """

    cell: np.ndarray  # (P,) int
    order: np.ndarray  # (P,) int
    aod: np.ndarray  # (P, 2) azimuth, elevation of departure
    aoa: np.ndarray  # (P, 2) azimuth, elevation of arrival
    gain: np.ndarray  # (P,) complex

    def __len__(self) -> int:
        return len(self.cell)

    def __iter__(self):
        cols = (self.cell.tolist(), self.order.tolist(), map(tuple, self.aod.tolist()),
                map(tuple, self.aoa.tolist()), self.gain.tolist())
        return (PathRow(*row) for row in zip(*cols))

    def links(self, lo: int, hi: int) -> PathTable:
        """The rows of links lo .. hi - 1, with `cell` counted from lo."""
        a, b = np.searchsorted(self.cell, (lo, hi))
        return PathTable(self.cell[a:b] - lo, self.order[a:b], self.aod[a:b],
                         self.aoa[a:b], self.gain[a:b])


class _FacetArrays(NamedTuple):
    axis: np.ndarray  # (F,) constant coordinate
    value: np.ndarray
    sign: np.ndarray
    others: np.ndarray  # (F, 2) the in-plane axes, ascending
    lo: np.ndarray  # (F, 3) each facet's _Facet.lo and _Facet.hi
    hi: np.ndarray
    eps: np.ndarray  # (F,) complex relative permittivity
    tm: np.ndarray  # (F,) bool: TM polarization (horizontal facet)


def _facet_arrays(s: Scene) -> _FacetArrays:
    facets = scene_facets(s)
    eps = {m: permittivity(m, s.frequency_hz) for m in {f.material for f in facets}}
    axis = np.array([f.axis for f in facets])
    value = np.array([f.value for f in facets], dtype=float)
    others = np.array([[i for i in range(3) if i != a] for a in axis]).reshape(-1, 2)
    return _FacetArrays(axis=axis, value=value, sign=np.array([f.sign for f in facets]),
                        others=others, lo=np.array([f.lo for f in facets], dtype=float),
                        hi=np.array([f.hi for f in facets], dtype=float),
                        eps=np.array([eps[f.material] for f in facets], dtype=complex),
                        tm=axis == 2)


class _ImageTree(NamedTuple):
    """Images of one transmitter, in trace_paths enumeration order."""

    order: np.ndarray  # (C,) 1 or 2
    first: np.ndarray  # (C,) facet next to tx (order 2), else -1
    last: np.ndarray  # (C,) facet next to rx
    img: np.ndarray  # (C, 3) tx mirrored in every facet of the path
    img1: np.ndarray  # (C, 3) tx mirrored in `first` (order 2)


def _mirror(fa: _FacetArrays, f, p):
    q = p.copy()
    rows = np.arange(len(q))
    q[rows, fa.axis[f]] = 2.0 * fa.value[f] - q[rows, fa.axis[f]]
    return q


def _facing(fa: _FacetArrays, f, g):
    """False where no point of facet f lies in front of facet g.

    Points count within a margin well beyond the containment tolerance, so
    the test never drops a pair that the scalar enumeration accepts.
    """
    a = fa.axis[g]
    best = np.where(fa.sign[g] > 0, fa.hi[f, a] + 1e-6, fa.lo[f, a] - 1e-6)
    return fa.sign[g] * (best - fa.value[g]) > POINT_TOL


# The 8 corners of a box: corner k takes the upper bound on the axes whose bit
# is set in k.
_CORNERS = (np.arange(8)[:, None] >> np.arange(3) & 1).astype(bool)


def _projection_meets(fa: _FacetArrays, src, f, lo, hi):
    """False where the box lo .. hi, projected from src onto facet f's plane,
    misses facet f.

    A path that reaches facet f from src, an image behind f, runs straight on
    to a point of the box in front of f.  The corners of the box, clipped to
    the front of f, project with _reflect_once's formula to a convex polygon
    that holds every such reflection point; its bounding box must meet f
    grown by 1e-6 m.  The caller has kept only rows where src lies behind f
    and the box reaches in front of it.  Rows with the infinite ground, as f
    or as the box, are kept.
    """
    meets = ~(np.all(np.isfinite(fa.lo[f]), axis=1) & np.all(np.isfinite(lo), axis=1))
    k = np.flatnonzero(~meets)
    f, src, lo, hi = f[k], src[k], lo[k], hi[k]
    rows = np.arange(len(k))
    a, v, ahead = fa.axis[f], fa.value[f], fa.sign[f] > 0
    lo_a = np.where(ahead, np.maximum(lo[rows, a], v), lo[rows, a])
    hi_a = np.where(ahead, hi[rows, a], np.minimum(hi[rows, a], v))
    s_a = src[rows, a][:, None]
    c_a = np.where(_CORNERS[:, a].T, hi_a[:, None], lo_a[:, None])  # (P, 8)
    t = (v[:, None] - s_a) / (c_a - s_a)
    inside = True
    for o in fa.others[f].T:
        # only the in-plane coordinates of the projected corners
        s_o = src[rows, o][:, None]
        p = s_o + t * (np.where(_CORNERS[:, o].T, hi[rows, o, None], lo[rows, o, None]) - s_o)
        inside = (inside & (p.min(axis=1) <= fa.hi[f, o] + 1e-6)
                  & (p.max(axis=1) >= fa.lo[f, o] - 1e-6))
    meets[k] = inside
    return meets


def _image_tree(fa: _FacetArrays, tx) -> _ImageTree:
    n = len(fa.axis)
    front = np.nonzero(fa.sign * (tx[fa.axis] - fa.value) > POINT_TOL)[0]
    img1 = _mirror(fa, front, np.tile(tx, (len(front), 1)))
    i = np.repeat(np.arange(len(front)), n)
    j = np.tile(np.arange(n), len(front))
    # a second-order path needs q1 in front of facet j and q2 in front of
    # facet i, so facet pairs that never face each other are dropped
    keep = (j != front[i]) & _facing(fa, front[i], j) & _facing(fa, j, front[i])
    i, j = i[keep], j[keep]
    keep = _projection_meets(fa, img1[i], front[i], fa.lo[j] - 1e-6, fa.hi[j] + 1e-6)
    i, j = i[keep], j[keep]
    return _ImageTree(
        order=np.concatenate([np.ones(len(front), int), np.full(len(j), 2)]),
        first=np.concatenate([np.full(len(front), -1), front[i]]),
        last=np.concatenate([front, j]),
        img=np.concatenate([img1, _mirror(fa, j, img1[i])]),
        img1=np.concatenate([img1, img1[i]]),
    )


def _contains(fa: _FacetArrays, f, q):
    # q lies on the facet plane exactly, so only the in-plane bounds can fail
    return np.all((q >= fa.lo[f] - POINT_TOL) & (q <= fa.hi[f] + POINT_TOL), axis=1)


def _front_of(fa: _FacetArrays, f, p):
    return fa.sign[f] * (p[np.arange(len(p)), fa.axis[f]] - fa.value[f]) > POINT_TOL


def _reflect(fa: _FacetArrays, f, src, target):
    """_reflect_once per row: (ok, reflection point)."""
    rows = np.arange(len(f))
    a = fa.axis[f]
    s_a = src[rows, a]
    denom = target[rows, a] - s_a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (fa.value[f] - s_a) / denom
        q = src + t[:, None] * (target - src)  # inf or nan where `ok` fails
    ok = (np.abs(denom) >= 1e-15) & (POINT_TOL < t) & (t < 1.0 - POINT_TOL)
    q[rows, a] = fa.value[f]
    return ok & _contains(fa, f, q), q


def row_dot(a, b):
    """Row-wise dot product through the BLAS kernel of the scalar `@`."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _Obstacles(NamedTuple):
    box_lo: np.ndarray  # (B, 3) box corners shrunk by GRAZE_TOL
    box_hi: np.ndarray
    box_ok: np.ndarray  # (B,) False for boxes thinner than 2 * GRAZE_TOL
    tree_xy: np.ndarray  # (T, 2)
    reach: np.ndarray  # (T,) horizontal reach of trunk and canopy
    trunk_r: np.ndarray
    trunk_h: np.ndarray
    z_apex: np.ndarray
    k: np.ndarray  # canopy radius per metre below the apex
    att: np.ndarray  # dB/m


def _obstacles(s: Scene) -> _Obstacles:
    b, t = s.buildings, s.trees
    lo = np.array([[x.x, x.y, 0.0] for x in b], dtype=float).reshape(-1, 3) + GRAZE_TOL
    hi = np.array([[x.x + x.w, x.y + x.h, x.height] for x in b],
                  dtype=float).reshape(-1, 3) - GRAZE_TOL
    return _Obstacles(
        box_lo=lo, box_hi=hi, box_ok=~np.any(lo >= hi, axis=1),
        tree_xy=np.array([[x.x, x.y] for x in t], dtype=float).reshape(-1, 2),
        reach=np.array([max(x.trunk_radius, x.canopy_base_radius) for x in t], dtype=float),
        trunk_r=np.array([x.trunk_radius for x in t], dtype=float),
        trunk_h=np.array([x.trunk_height for x in t], dtype=float),
        z_apex=np.array([x.trunk_height + x.canopy_height for x in t], dtype=float),
        k=np.array([x.canopy_base_radius / x.canopy_height for x in t], dtype=float),
        att=np.array([x.attenuation_db_per_m for x in t], dtype=float),
    )


def _boxes_block(ob: _Obstacles, p0, d, seg_len):
    """_segment_box_blocked of each segment against every box: any hit."""
    if len(ob.box_lo) == 0:
        return np.zeros(len(p0), dtype=bool)
    tmin = np.zeros((len(p0), len(ob.box_lo)))
    tmax = np.ones_like(tmin)
    alive = np.broadcast_to(ob.box_ok, tmin.shape).copy()
    for i in range(3):
        p, di = p0[:, i:i + 1], d[:, i:i + 1]
        lo, hi = ob.box_lo[:, i], ob.box_hi[:, i]
        par = np.abs(di) < 1e-15
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - p) / di
            tb = (hi - p) / di
        alive &= ~par | ((p >= lo) & (p <= hi))
        tmin = np.where(par, tmin, np.maximum(tmin, np.minimum(ta, tb)))
        tmax = np.where(par, tmax, np.minimum(tmax, np.maximum(ta, tb)))
    alive &= tmin < tmax
    return np.any(alive & ((tmax - tmin) * seg_len[:, None] > GRAZE_TOL), axis=1)


def _chord_fraction(A, B, C, z0, dz, zlo, zhi):
    """Total length, in units of the segment parameter t, of
    _clip_intervals(_quad_le0_interval(A, B, C), z-range within [0, 1])."""
    inf = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = np.abs(A) < 1e-15
        flat = np.abs(B) < 1e-15
        t = -C / B
        disc = B * B - 4 * A * C
        root = np.sqrt(disc)
        r1 = (-B - root) / (2 * A)
        r2 = (-B + root) / (2 * A)
        t1, t2 = np.minimum(r1, r2), np.maximum(r1, r2)
        # two intervals per row; an absent one is (inf, -inf)
        all_t = (lin & flat & (C <= 0)) | (~lin & (disc <= 0) & (A <= 0))
        bowl = ~lin & (disc > 0) & (A > 0)
        cap = ~lin & (disc > 0) & (A <= 0)
        line = lin & ~flat
        a1 = np.select([all_t, line & (B > 0), line, bowl, cap], [-inf, -inf, t, t1, -inf], inf)
        b1 = np.select([all_t, line & (B > 0), line, bowl, cap], [inf, t, inf, t2, t1], -inf)
        a2 = np.where(cap, t2, inf)
        b2 = np.where(cap, inf, -inf)

        zflat = np.abs(dz) < 1e-15
        za = (zlo - z0) / dz
        zb = (zhi - z0) / dz
    lo = np.where(zflat, 0.0, np.maximum(0.0, np.minimum(za, zb)))
    hi = np.where(zflat, 1.0, np.minimum(1.0, np.maximum(za, zb)))
    total = np.zeros(len(A))
    for a, b in ((a1, b1), (a2, b2)):
        a, b = np.maximum(a, lo), np.minimum(b, hi)
        total = total + np.where(b > a, b - a, 0.0)
    z_in = ~zflat | ((zlo <= z0) & (z0 <= zhi))
    return np.where(z_in, total, 0.0)


def _tree_terms(ob: _Obstacles, p0, p1, d, seg_len):
    """(trunk blocked, canopy loss in dB) of each segment, as foliage_loss
    computes them."""
    blocked = np.zeros(len(p0), dtype=bool)
    loss = np.zeros(len(p0))
    if len(ob.reach) == 0:
        return blocked, loss
    # A tree outside the horizontal bounding box of a segment, grown by its
    # reach, can neither block nor attenuate it.  One (segment, tree) array
    # per bound costs half as much as one (segment, tree, 2) array.
    m = ob.reach + 1e-3
    x, y = ob.tree_xy.T
    (x0, y0), (x1, y1) = np.minimum(p0[:, :2], p1[:, :2]).T, np.maximum(p0[:, :2], p1[:, :2]).T
    si, ti = np.nonzero((x + m >= x0[:, None]) & (x - m <= x1[:, None])
                        & (y + m >= y0[:, None]) & (y - m <= y1[:, None]))
    if len(si) == 0:
        return blocked, loss
    q0, dd, length = p0[si], d[si], seg_len[si]
    u0 = q0[:, :2] - ob.tree_xy[ti]
    du = dd[:, :2]
    dudu, u0du, u0u0 = row_dot(du, du), row_dot(u0, du), row_dot(u0, u0)
    z0, dz = q0[:, 2], dd[:, 2]
    has_len = length >= 1e-15

    r = ob.trunk_r[ti] - GRAZE_TOL
    chord = _chord_fraction(dudu, 2.0 * u0du, u0u0 - r * r, z0, dz,
                            GRAZE_TOL, ob.trunk_h[ti] - GRAZE_TOL) * length
    blocked[si[has_len & (r > 0) & (chord > GRAZE_TOL)]] = True

    k, w0 = ob.k[ti], ob.z_apex[ti] - z0
    A = dudu - k * k * dz * dz
    B = 2.0 * u0du + 2.0 * k * k * w0 * dz
    C = u0u0 - k * k * w0 * w0
    chord = _chord_fraction(A, B, C, z0, dz, ob.trunk_h[ti], ob.z_apex[ti]) * length
    # np.nonzero lists each segment's trees in ascending order and bincount
    # adds them in that order from 0.0, as foliage_loss does
    loss = np.bincount(si, np.where(has_len, chord, 0.0) * ob.att[ti], minlength=len(p0))
    return blocked, loss


def _segment_terms(ob: _Obstacles, p0, p1):
    """(length, unit direction, blocked, foliage dB) of each segment."""
    d = p1 - p0
    seg_len = np.sqrt(row_dot(d, d))
    blocked = np.zeros(len(p0), dtype=bool)
    loss = np.zeros(len(p0))
    step = block_length(max(len(ob.box_lo), len(ob.reach)))
    for k in range(0, len(p0), step):
        sl = slice(k, k + step)
        trunk, loss[sl] = _tree_terms(ob, p0[sl], p1[sl], d[sl], seg_len[sl])
        blocked[sl] = trunk | _boxes_block(ob, p0[sl], d[sl], seg_len[sl])
    return seg_len, d / seg_len[:, None], blocked, loss


def _angles_of(u):
    return np.column_stack([np.arctan2(u[:, 1], u[:, 0]),
                            np.arcsin(np.clip(u[:, 2], -1.0, 1.0))])


def _gains(s: Scene, fa: _FacetArrays, length, foliage_db, bounces):
    """path_gain per row; `bounces` is [(facet, incoming unit direction)]."""
    lam = s.wavelength_m
    gr = lam / (4.0 * np.pi * length)
    gi = np.zeros_like(gr)
    for f, u in bounces:
        angle = np.arccos(np.clip(np.abs(u[np.arange(len(f)), fa.axis[f]]), 0.0, 1.0))
        cos_t = np.cos(angle)
        # float_power is libm pow, as np.float64 ** 2 is; the array square
        # differs from it in the last bit now and then
        sin2 = np.float_power(np.sin(angle), 2.0)
        eps = fa.eps[f]
        g = np.sqrt(eps - sin2)
        r = np.where(fa.tm[f], (g - eps * cos_t) / (g + eps * cos_t),
                     (cos_t - g) / (cos_t + g))
        # Python's complex product, which unlike numpy's never fuses a multiply-add
        gr, gi = gr * r.real - gi * r.imag, gr * r.imag + gi * r.real
    fol = np.float_power(10.0, -foliage_db / 20.0)  # libm pow too
    gr, gi = gr * fol, gi * fol
    phase = np.zeros(len(length), dtype=complex)
    phase.imag = -2.0 * np.pi * length / lam
    phase = np.exp(phase)
    gain = np.empty(len(length), dtype=complex)
    gain.real = gr * phase.real - gi * phase.imag
    gain.imag = gr * phase.imag + gi * phase.real
    return gain


def _block_candidates(fa: _FacetArrays, tree: _ImageTree, front_rx):
    """Indices of the candidates whose image lies behind their last facet
    with some receiver of the block in front of it: the exact last-bounce
    test of _trace_block passes no other candidate."""
    last = tree.last
    behind = fa.sign[last] * (tree.img[np.arange(len(last)), fa.axis[last]] - fa.value[last]) < 0
    return np.flatnonzero(behind & front_rx.any(axis=1)[last])


def _trace_block(s, fa, tree, ob, tx, rx):
    """PathTable rows of one block of receivers, plus each row's candidate."""
    n_rx = len(rx)
    front_rx = fa.sign[:, None] * (rx[:, fa.axis].T - fa.value[:, None]) > POINT_TOL
    kept = _block_candidates(fa, tree, front_rx)
    tree = _ImageTree(*(col[kept] for col in tree))

    # last bounce toward every receiver, one coordinate at a time so that only
    # the candidates that hit their facet get a reflection point
    last, rows = tree.last, np.arange(len(tree.last))
    a = fa.axis[last]
    s_a = tree.img[rows, a]
    denom = rx.T[a] - s_a[:, None]
    # rows with a zero denom are dropped by `ok`; their t is inf or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (fa.value[last] - s_a)[:, None] / denom
        ok = front_rx[last] & (np.abs(denom) >= 1e-15) & (POINT_TOL < t) & (t < 1.0 - POINT_TOL)
        for k in range(2):
            o = fa.others[last, k]
            s_o = tree.img[rows, o][:, None]
            p = s_o + t * (rx.T[o] - s_o)
            ok &= (p >= fa.lo[last, o, None] - POINT_TOL) & (p <= fa.hi[last, o, None] + POINT_TOL)
    c, r = np.nonzero(ok)
    # the reflection points of the survivors, from the same t
    q = tree.img[c] + t[c, r][:, None] * (rx[r] - tree.img[c])
    q[np.arange(len(c)), a[c]] = fa.value[last[c]]

    # the first bounce of second-order candidates, in trace_paths' order: q2
    # in front of the first facet, then the reflection point q1 on it
    two = tree.order[c] == 2
    c2, r2, q2 = c[two], r[two], q[two]
    ahead = _front_of(fa, tree.first[c2], q2)
    c2, r2, q2 = c2[ahead], r2[ahead], q2[ahead]
    ok, q1 = _reflect(fa, tree.first[c2], tree.img1[c2], q2)
    ok &= _front_of(fa, tree.last[c2], q1)
    c2, r2, q1, q2 = c2[ok], r2[ok], q1[ok], q2[ok]
    c1, r1, q = c[~two], r[~two], q[~two]

    # (receiver, candidate, vertices, facets hit) per order; LOS is candidate -1
    groups = (
        (np.arange(n_rx), np.full(n_rx, -1), [np.broadcast_to(tx, rx.shape), rx], []),
        (r1, kept[c1], [np.broadcast_to(tx, q.shape), q, rx[r1]], [tree.last[c1]]),
        (r2, kept[c2], [np.broadcast_to(tx, q1.shape), q1, q2, rx[r2]],
         [tree.first[c2], tree.last[c2]]),
    )
    p0 = np.concatenate([v for g in groups for v in g[2][:-1]])
    p1 = np.concatenate([v for g in groups for v in g[2][1:]])
    seg_len, unit, blocked, loss = _segment_terms(ob, p0, p1)

    out, start = [], 0
    for order, (rcv, cand, verts, facets) in enumerate(groups):
        n = len(rcv)
        segs = [slice(start + k * n, start + (k + 1) * n) for k in range(order + 1)]
        start += n * (order + 1)
        length, fol, valid = 0, 0.0, np.ones(n, dtype=bool)
        for sl in segs:
            length = length + seg_len[sl]
            fol = fol + loss[sl]
            valid &= ~blocked[sl]
        bounces = [(f[valid], unit[sl][valid]) for f, sl in zip(facets, segs)]
        length, fol = length[valid], fol[valid]
        out.append((rcv[valid], cand[valid], np.full(len(length), order),
                    _angles_of(unit[segs[0]][valid]), _angles_of(unit[segs[-1]][valid]),
                    _gains(s, fa, length, fol, bounces)))
    cols = [np.concatenate(col) for col in zip(*out)]
    return cols[0], cols[1], cols[2:]


def _trace_grid(s: Scene, tx, rx_points) -> PathTable:
    """trace_paths from one transmitter to many receivers, as one PathTable.

    `rx_points` is an (N, 3) array; row i of the receivers is `cell` i of the
    table.  The facet arrays and the image tree of tx are built once and
    solved for blocks of receivers at a time.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.array(rx_points, dtype=float).reshape(-1, 3)
    rx[:, 2] = np.maximum(rx[:, 2], MIN_RX_ALTITUDE)
    if np.any(np.all(np.isclose(tx, rx), axis=1)):
        raise ValueError("tx and rx must be distinct points")

    fa = _facet_arrays(s)
    tree = _image_tree(fa, tx)
    ob = _obstacles(s)
    step = block_length(len(tree.order) + _RX_ELEMENTS)
    parts = []
    for k in range(0, len(rx), step) or [0]:
        cell, cand, cols = _trace_block(s, fa, tree, ob, tx, rx[k:k + step])
        keep = np.lexsort((cand, cell))
        parts.append([cell[keep] + k] + [col[keep] for col in cols])
    return PathTable(*[np.concatenate(col) for col in zip(*parts)])
