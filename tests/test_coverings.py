import functools
import json
import re

import numpy as np
import pytest

from dqs import (
    BranchReport,
    CoveringMap,
    branch_vertex,
    check_riemann_hurwitz,
    gen_cube_double_cover,
    gen_torus,
    gen_torus_unbranched_cover,
    genus,
    sheet_count,
    validate,
    validate_map,
)
from dqs import coverings
from dqs.errors import AmbiguousGluingError, DqsError
from dqs.surface import QuadComplex, require_star_cycles

from conftest import edge_pairs


@pytest.fixture(scope="module")
def cover():
    return gen_cube_double_cover()


class TestValidateMap:
    def test_identity(self, torus44):
        m = CoveringMap(torus44, torus44, range(16))
        assert validate_map(m).ok

    def test_cube_cover(self, cover):
        total, base, cmap = cover
        assert validate(total).ok and validate(base).ok
        assert validate_map(cmap).ok

    def test_color_break_detected(self, torus44):
        vm = list(range(16))
        vm[0] = 1  # black onto white
        rep = validate_map(CoveringMap(torus44, torus44, vm))
        assert not rep.ok

    def test_star_condition_violation(self, torus44):
        vm = list(range(16))
        vm[0] = 10  # tears quad corners apart
        rep = validate_map(CoveringMap(torus44, torus44, vm))
        assert not rep.ok

    def test_reflected_quad_is_not_a_rotation(self, torus44):
        # the mirror image of the torus: every quad lists its white corners
        # swapped, so each image is a reflection of its target quad
        mirror = QuadComplex.build(
            torus44.colors, [(bm, wp, bp, wm) for (bm, wm, bp, wp) in torus44.quads],
            torus44.rho)
        rep = validate_map(CoveringMap(mirror, torus44, range(16)))
        assert rep.violations == tuple(
            f"quad {q} image {mirror.quads[q]} is not a rotation of any target quad"
            for q in range(16))

    def test_star_condition_matches_full_scan(self, torus44):
        rng = np.random.default_rng(3)
        blacks = [v for v in range(16) if torus44.colors[v] == 0]
        for _ in range(20):
            vm = list(range(16))
            v = int(rng.choice(blacks))
            vm[v] = int(rng.choice(blacks))
            m = CoveringMap(torus44, torus44, vm)
            got = [s for s in validate_map(m).violations if "star condition" in s]
            assert got == _scan_star_violations(m)


class TestBranchVertex:
    def test_regular_points(self, torus44):
        m = CoveringMap(torus44, torus44, range(16))
        assert all(branch_vertex(m, v) == 1 for v in range(16))

    def test_cover_branch_points(self, cover):
        total, base, cmap = cover
        ks = [branch_vertex(cmap, v) for v in range(total.nv)]
        assert sorted(ks)[-8:] == [2] * 8
        assert sorted(ks)[:-8] == [1] * (total.nv - 8)
        # every branch point sits over an original cube corner
        for v in range(total.nv):
            if branch_vertex(cmap, v) == 2:
                assert cmap.image(v) < 8

    def test_biconstant_everywhere_gives_zero(self, torus44):
        vm = [0 if torus44.colors[v] == 0 else 1 for v in range(16)]
        m = CoveringMap(torus44, torus44, vm)
        assert (m.corner_images == coverings._BICONSTANT).all()
        assert branch_vertex(m, 0) == 0


class TestSheetCount:
    def test_identity(self, torus44):
        assert sheet_count(CoveringMap(torus44, torus44, range(16))) == 1

    def test_cube_cover(self, cover):
        _, _, cmap = cover
        assert sheet_count(cmap) == 2

    def test_per_quad_counts_match(self, cover):
        # every base quad has exactly two bijective preimages
        total, base, cmap = cover
        counts = np.zeros(base.nq, int)
        for q in range(total.nq):
            counts[_image(cmap, q)] += 1
        assert set(counts.tolist()) == {2}


class TestRiemannHurwitz:
    def test_identity_torus(self, torus44):
        rep = check_riemann_hurwitz(CoveringMap(torus44, torus44, range(16)))
        assert rep.sheets == 1
        assert rep.total_branching == 0
        assert rep.genus_residual == 0

    def test_cube_cover_integers(self, cover):
        _, _, cmap = cover
        rep = check_riemann_hurwitz(cmap)
        assert (rep.genus_source, rep.genus_target) == (3, 0)
        assert rep.sheets == 2
        assert rep.total_branching == 8
        assert rep.genus_source == rep.sheets * (rep.genus_target - 1) + 1 \
            + rep.total_branching // 2
        assert rep.quad_branch_numbers == {}

    def test_unbranched_torus_cover(self):
        src, tgt, cmap = gen_torus_unbranched_cover(4, 4, 0.3 + 1.2j)
        assert validate_map(cmap).ok
        rep = check_riemann_hurwitz(cmap)
        assert rep.sheets == 2
        assert rep.total_branching == 0
        assert genus(src) == 1 == genus(tgt)
        assert rep.genus_residual == 0

    def test_residual_is_the_doubled_identity(self):
        # g = N = g' = 1 with b = 1: 1 != 1*0 + 1 + 1/2, which b // 2 hid
        assert BranchReport(1, {}, {0: 1}, 1, 1, 1).genus_residual == -1
        assert BranchReport(2, {}, {}, 8, 3, 0).genus_residual == 0  # the cube cover

    def test_surjectivity_of_cover(self, cover):
        total, base, cmap = cover
        assert set(cmap.vertex_map) == set(range(base.nv))


class TestGenerators:
    def test_cover_shape(self, cover):
        total, base, cmap = cover
        assert (base.nv, base.nq) == (56, 54)
        assert (total.nv, total.nq) == (104, 108)
        assert genus(base) == 0 and genus(total) == 3
        assert all(r == 1 for r in base.rho)


# ---------------------------------------------------------------------------
# table lookups against the whole-target scans they replaced


def _image(m, q):
    """The target quad of q read off ``corner_images``, None where q is biconstant."""
    i = int(m.corner_images[4 * q])
    return None if i == coverings._BICONSTANT else i // 4


def _scan_quad_image(m, q):
    """Reference image of quad q, None where it is biconstant: compare with
    both rotations of every target quad."""
    imgs = tuple(m.image(v) for v in m.source.quads[q])
    if imgs[0] == imgs[2] and imgs[1] == imgs[3]:
        return None
    for q2, t in enumerate(m.target.quads):
        for shift in (0, 2):
            if imgs == tuple(t[(shift + i) % 4] for i in range(4)):
                return q2
    raise DqsError(f"quad {q} image {imgs} is not a rotation of any target quad")


def _scan_star_violations(m):
    """Reference star condition: look for a target quad among all of them."""
    out = []
    for q in range(m.source.nq):
        imgs = [m.image(v) for v in m.source.quads[q]]
        if not any(all(v in t for v in imgs) for t in m.target.quads):
            out.append(f"quad {q}: images {imgs} share no target quad (star condition)")
    return out


def _covering(name):
    if name == "cube-cover":
        return gen_cube_double_cover()[2]
    if name == "identity":
        cx = gen_torus(4, 6, 0.3 + 1.2j)
        return CoveringMap(cx, cx, range(cx.nv))
    m = int(name.split("-")[1])
    return gen_torus_unbranched_cover(m, m + 2, 0.2 + 1.1j)[2]


@pytest.mark.parametrize("name", ["cube-cover", "torus-4", "torus-6", "identity"])
def test_riemann_hurwitz_matches_full_scan(name):
    m = _covering(name)
    fast = check_riemann_hurwitz(m)
    assert [_image(m, q) for q in range(m.source.nq)] \
        == [_scan_quad_image(m, q) for q in range(m.source.nq)]
    ref = _reference_riemann_hurwitz(m)
    assert _counts(fast) == ref


def test_riemann_hurwitz_work_is_linear(counted_quads):
    """Operation count, no timing: every comparison of an image with a
    target quad reads that quad, and a scan of all target quads per source
    quad reads about nq_source * nq_target of them."""
    source, target, cmap = gen_torus_unbranched_cover(16, 16, 0.2 + 1.1j)
    m = CoveringMap(source, counted_quads(target), cmap.vertex_map)
    assert check_riemann_hurwitz(m).sheets == 2
    assert m.target.quads.reads <= 32 * (source.nq + target.nq)


def _hurwitz_job(tmp_path, capsys):
    """The JSON report of ``dqs hurwitz`` on the 16 x 16 torus cover."""
    from dqs import cli
    from dqs.io import serialize_map_bundle

    source, target, cmap = gen_torus_unbranched_cover(16, 16, 0.2 + 1.1j)
    path = tmp_path / "cover.json"
    path.write_text(serialize_map_bundle(source, target, cmap.vertex_map))
    assert cli.main(["hurwitz", "--format", "json", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def _count_computations(monkeypatch, name, computed):
    """Append the map to computed each time its cached ``name`` is computed."""
    original = CoveringMap.__dict__[name].func

    def counting(m):
        computed.append(m)
        return original(m)

    prop = functools.cached_property(counting)
    prop.__set_name__(CoveringMap, name)
    monkeypatch.setattr(CoveringMap, name, prop)


def test_hurwitz_command_validates_and_winds_once(monkeypatch, tmp_path, capsys):
    """Call counts, no timing: ``dqs hurwitz`` checks the map once, winds
    every source star in one pass, and neither surface lists its stars."""
    from dqs import cli

    calls = {"validate_map": 0, "stars": 0}

    def counting(*args, **kwargs):
        calls["validate_map"] += 1
        return validate_map(*args, **kwargs)

    def stars(cx):
        calls["stars"] += 1
        return QuadComplex.__dict__["stars"].func(cx)

    monkeypatch.setattr(cli, "validate_map", counting)
    monkeypatch.setattr(coverings, "validate_map", counting)
    monkeypatch.setattr(QuadComplex, "stars", property(stars))
    wound = []
    _count_computations(monkeypatch, "wrap_counts", wound)
    assert _hurwitz_job(tmp_path, capsys)["outputs"]["sheets"] == 2
    assert calls == {"validate_map": 1, "stars": 0} and len(wound) == 1


def test_hurwitz_reports_a_failed_identity(monkeypatch, tmp_path, capsys):
    """The identity is judged by the report: with a wrong source genus,
    ``dqs hurwitz`` prints the counts, one FAIL line and exits 1."""
    from dqs import cli
    from dqs.io import serialize_map_bundle

    source, target, cmap = gen_torus_unbranched_cover(4, 4, 0.2 + 1.1j)
    path = tmp_path / "cover.json"
    path.write_text(serialize_map_bundle(source, target, cmap.vertex_map))
    # the true genus is 1 on both sides
    monkeypatch.setattr(coverings, "genus", lambda cx: 2 if cx.nq == source.nq else 1)
    assert cli.main(["hurwitz", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-3:] == ['identity: "2 = 2*(1-1)+1+0/2"', "[ok] map-valid",
                                     "[FAIL] riemann-hurwitz-identity"]
    assert cli.main(["hurwitz", "--format", "json", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][-1] == {
        "name": "riemann-hurwitz-identity", "pass": False, "residual": None}


def test_hurwitz_command_images_each_quad_once(monkeypatch, tmp_path, capsys):
    """Work count, no timing: a ``dqs hurwitz`` job computes the corner
    images of its map once, and its report is unchanged."""
    computed = []
    _count_computations(monkeypatch, "corner_images", computed)
    doc = _hurwitz_job(tmp_path, capsys)
    assert len(computed) == 1
    assert doc["outputs"]["sheets"] == 2 and doc["outputs"]["total_branching"] == 0
    assert all(c["pass"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# wrap counts, sheets and branch numbers against the star walks they replaced


def _reference_branch_vertex(m, v, image=_scan_quad_image):
    """Reference branch_vertex: walks the stars of v and of its image;
    image(m, q) is the target quad of q, None where q is biconstant."""
    star = m.source.stars[v]
    v2 = m.image(v)
    target_star = [q for (q, _) in m.target.stars[v2]]
    mlen = len(target_star)
    images = []
    for q, _ in star:
        q2 = image(m, q)
        if q2 is not None:
            images.append(q2)
    if not images:
        return 0
    if len(images) % mlen:
        raise DqsError(
            f"star of {v}: {len(images)} quad images cannot wrap a star of {mlen}")
    succ = {target_star[i]: target_star[(i + 1) % mlen] for i in range(mlen)}
    for i in range(len(images)):
        if succ[images[i]] != images[(i + 1) % len(images)]:
            raise DqsError(f"star of {v} does not wind monotonically around {v2}")
    return len(images) // mlen


def _reference_sheets(m, wraps, image=_scan_quad_image) -> int:
    """Reference sheet count, the wrap count of source vertex v given as wraps(v)."""
    fibers = {}
    for v in range(m.source.nv):
        fibers.setdefault(m.image(v), []).append(v)
    counts = set()
    for v2 in range(m.target.nv):
        total = sum(wraps(v) for v in fibers.get(v2, []))
        counts.add(total)
    if len(counts) != 1:
        raise DqsError(f"fiber sums disagree: {sorted(counts)}")
    n = counts.pop()
    quad_counts = np.zeros(m.target.nq, dtype=int)
    for q in range(m.source.nq):
        q2 = image(m, q)
        if q2 is not None:
            quad_counts[q2] += 1
    if set(quad_counts.tolist()) != {n}:
        raise DqsError(
            f"per-quad preimage counts {sorted(set(quad_counts.tolist()))} != sheet count {n}")
    return n


def _reference_riemann_hurwitz(m, image=_scan_quad_image):
    """Reference check_riemann_hurwitz: (sheets, vertex and quad branch
    numbers, total branching, whether g = N(g' - 1) + 1 + b/2 holds), or
    the error it raises."""
    report = _reference_validate_map(m)
    if report:
        raise DqsError("map invalid:\n" + "\n".join(report))
    wraps = [_reference_branch_vertex(m, v, image) for v in range(m.source.nv)]
    vb = {v: k - 1 for v, k in enumerate(wraps) if k != 1}
    qb = {q: 1 for q in range(m.source.nq) if image(m, q) is None}
    b = sum(vb.values()) + sum(qb.values())
    n = _reference_sheets(m, wraps.__getitem__, image)
    g, g2 = genus(m.source), genus(m.target)
    return n, vb, qb, b, g == n * (g2 - 1) + 1 + b / 2


def _counts(r):
    """The counts of a BranchReport in the order of the reference."""
    return (r.sheets, r.vertex_branch_numbers, r.quad_branch_numbers, r.total_branching,
            r.genus_residual == 0)


def _outcome(fn, *args):
    """fn(*args), or the type and text of the DqsError it raises."""
    try:
        return fn(*args)
    except DqsError as exc:
        return type(exc), str(exc)


def _mutated_maps(m):
    """40 seeded mutations of the vertex table of m, then m onto
    reweighted target quads."""
    rng = np.random.default_rng(7)
    by_color = [[v for v in range(m.target.nv) if m.target.colors[v] == c] for c in (0, 1)]
    for trial in range(40):
        vm = list(m.vertex_map)
        for v in rng.choice(m.source.nv, size=int(rng.integers(1, 4)), replace=False).tolist():
            # mostly within the color, now and then across it
            pool = by_color[m.source.colors[v] ^ (trial % 10 == 0)]
            vm[v] = int(rng.choice(pool))
        yield CoveringMap(m.source, m.target, vm)
    yield CoveringMap(m.source, QuadComplex.build(
        m.target.colors, m.target.quads, [r + 0.5 for r in m.target.rho]), m.vertex_map)


def _oracle_maps(name):
    if name.startswith("mutated-"):
        m = _covering(name[len("mutated-"):])
        return [m, *_mutated_maps(m)]
    if name == "identity-44":
        cx = gen_torus(4, 4, 0.3 + 1.2j)
        return [CoveringMap(cx, cx, range(cx.nv))]
    if name == "biconstant":
        cx = gen_torus(4, 4, 0.3 + 1.2j)
        return [CoveringMap(cx, cx, [cx.colors[v] for v in range(cx.nv)])]
    if name == "doubled-edge":
        cx = gen_torus(2, 4, 1j)
        return [CoveringMap(cx, cx, range(cx.nv))]
    return [_covering(name)]


@pytest.mark.parametrize("name", [
    "identity-44", "identity", "cube-cover", "torus-4", "torus-6", "biconstant",
    "mutated-cube-cover", "mutated-torus-4", "mutated-identity", "doubled-edge"])
def test_wraps_and_sheets_match_star_walks(name):
    """Every wrap count, sheet count and branch report, or the type and
    text of the error in their place."""
    for m in _oracle_maps(name):
        image = functools.lru_cache(maxsize=None)(_scan_quad_image)
        assert [_outcome(branch_vertex, m, v) for v in range(m.source.nv)] \
            == [_outcome(_reference_branch_vertex, m, v, image) for v in range(m.source.nv)]
        assert _outcome(sheet_count, m) == _outcome(
            _reference_sheets, m, lambda v: _reference_branch_vertex(m, v, image), image)

        assert _outcome(lambda: _counts(check_riemann_hurwitz(m))) \
            == _outcome(_reference_riemann_hurwitz, m, image)


def _rotation_or_biconstant_maps(source, target):
    """Every color-preserving vertex map under which each source quad is a
    rotation of a target quad or biconstant.

    A depth-first search assigns the vertices in the order the quads list
    them and drops a partial map as soon as the assigned corners of a quad
    fit no such image (a corner not yet assigned reads None)."""
    images = {t[s:] + t[:s] for t in target.quads for s in (0, 2)}
    by_color = [[w for w in range(target.nv) if target.colors[w] == c] for c in (0, 1)]
    images |= {(x, y, x, y) for x in by_color[0] for y in by_color[1]}
    fits = {tuple(t[s] if mask >> s & 1 else None for s in range(4))
            for t in images for mask in range(16)}
    quads_at = [[] for _ in range(source.nv)]
    for t in source.quads:
        for v in t:
            quads_at[v].append(t)
    order = list(dict.fromkeys(v for t in source.quads for v in t))
    vm = [None] * source.nv
    out = []

    def extend(k):
        if k == len(order):
            out.append(CoveringMap(source, target, vm))
            return
        v = order[k]
        for w in by_color[source.colors[v]]:
            vm[v] = w
            if all(tuple(vm[u] for u in t) in fits for t in quads_at[v]):
                extend(k + 1)
        vm[v] = None

    extend(0)
    return out


# source and target sides of the square tori (all weights 1) searched
# exhaustively, and the number of maps the search finds
_SEARCHED = {"4x4-onto-4x4": ((4, 4), (4, 4), 96), "6x4-onto-4x4": ((6, 4), (4, 4), 64),
             "4x6-onto-4x4": ((4, 6), (4, 4), 64), "4x4-onto-6x4": ((4, 4), (6, 4), 144),
             "4x4-onto-4x6": ((4, 4), (4, 6), 144)}


@pytest.mark.parametrize("name", [
    "identity-44", "identity", "cube-cover", "torus-4", "torus-6", "biconstant",
    "mutated-cube-cover", "mutated-torus-4", "mutated-identity", "doubled-edge", *_SEARCHED])
def test_deleted_covering_checks_are_unreachable(name):
    """Where both surfaces pass ``require_star_cycles`` and every quad is a
    rotation or biconstant, the star walks raise no winding or divisibility
    error and the sheet count no fibre-sum or per-quad error: the checks
    that ``dqs.coverings`` leaves out could not fail.  The arrays agree
    with the walks there."""
    if name in _SEARCHED:
        source, target, count = _SEARCHED[name]
        maps = _rotation_or_biconstant_maps(gen_torus(*source, 1j), gen_torus(*target, 1j))
        assert len(maps) == count
    else:
        maps = _oracle_maps(name)
    judged = 0
    for m in maps:
        try:
            for cx in (m.source, m.target):
                require_star_cycles(cx)
            for q in range(m.source.nq):
                _scan_quad_image(m, q)
        except DqsError:  # a doubled edge, or a quad that is no rotation
            continue
        judged += 1
        wraps = [_reference_branch_vertex(m, v) for v in range(m.source.nv)]
        n = _reference_sheets(m, wraps.__getitem__)
        assert [branch_vertex(m, v) for v in range(m.source.nv)] == wraps
        assert sheet_count(m) == n

        assert _outcome(lambda: _counts(check_riemann_hurwitz(m))) \
            == _outcome(_reference_riemann_hurwitz, m)
    if name in _SEARCHED:
        assert judged == len(maps)


def test_doubled_edge_identity_is_an_ambiguous_gluing():
    cx = gen_torus(2, 4, 1j)
    with pytest.raises(AmbiguousGluingError, match=re.escape(
            "edge {1, 0} occurs in 4 quad boundaries; rotation system is ambiguous")):
        check_riemann_hurwitz(CoveringMap(cx, cx, range(cx.nv)))


@pytest.mark.parametrize("bad", [16, -1])
def test_covering_map_refuses_unknown_target_vertices(torus44, bad):
    vm = list(range(16))
    vm[5] = bad
    with pytest.raises(DqsError, match=re.escape(f"target vertex id {bad} out of range 0..15")):
        CoveringMap(torus44, torus44, vm)


def test_map_bundle_is_the_surface_documents_and_the_vertex_table(cover):
    from dqs.io import serialize_dqs, serialize_map_bundle
    from dqs.homology import standard_torus_basis

    total, base, cmap = cover
    torus = gen_torus(4, 4, 0.3 + 1.2j)
    basis = standard_torus_basis(torus, 4, 4)
    for args in ((total, base, cmap.vertex_map, None, None),
                 (torus, torus, range(16), basis, basis)):
        source, target, vm, sb, tb = args
        assert serialize_map_bundle(*args) == json.dumps({
            "source": json.loads(serialize_dqs(source, sb)),
            "target": json.loads(serialize_dqs(target, tb)),
            "vertex_map": [[i, int(t)] for i, t in enumerate(vm)],
        })


# ---------------------------------------------------------------------------
# the array constructions against the Python loops they replaced


def _reference_double_cover(base, flip_edges):
    """Reference double_cover: a union-find over the 8 nq corner slots."""
    flip_edges = {(min(u, w), max(u, w)) for (u, w) in flip_edges}
    parent = list(range(8 * base.nq))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def slot_id(q, s, slot):
        return (q * 2 + s) * 4 + slot

    for pair, entries in edge_pairs(base).items():
        (q1, _, _), (q2, _, _) = entries
        f = 1 if pair in flip_edges else 0
        for s in (0, 1):
            for v in pair:
                parent[find(slot_id(q1, s, base.quads[q1].index(v)))] = \
                    find(slot_id(q2, s ^ f, base.quads[q2].index(v)))
    classes = {}
    for x in range(8 * base.nq):
        classes.setdefault(find(x), len(classes))
    colors, vm, quads, rho = [0] * len(classes), [0] * len(classes), [], []
    for q in range(base.nq):
        for s in (0, 1):
            t = tuple(classes[find(slot_id(q, s, slot))] for slot in range(4))
            quads.append(t)
            rho.append(base.rho[q])
            for slot in range(4):
                colors[t[slot]] = base.colors[base.quads[q][slot]]
                vm[t[slot]] = base.quads[q][slot]
    return QuadComplex.build(colors, quads, rho), tuple(vm)


def test_double_cover_matches_union_find(monkeypatch):
    """The cube cover and random flip sets on a 6x4 torus, vertex numbering
    included."""
    calls = []

    def recorded(base, flips, original=coverings.double_cover):
        calls.append((base, flips, original(base, flips)))
        return calls[-1][2]

    monkeypatch.setattr(coverings, "double_cover", recorded)
    gen_cube_double_cover()
    rng = np.random.default_rng(11)
    torus = gen_torus(6, 4, 0.3 + 1.2j)
    edges = sorted(edge_pairs(torus))
    for _ in range(20):
        picked = rng.random(len(edges)) < rng.random()
        recorded(torus, [e[::-1] if rng.random() < 0.5 else e
                         for e, p in zip(edges, picked) if p])
    assert len(calls) == 21
    for base, flips, (total, m) in calls:
        assert (total, m.vertex_map) == _reference_double_cover(base, flips)
        assert m.source is total and m.target is base


@pytest.mark.parametrize("flips, message", [
    ([(0, 5)], "flip pair (0, 5) is not an edge of the base"),
    ([(0, 1), (99, 100)], "vertex id 99 out of range 0..15"),
    # 0 * 16 + 18 is the key of the edge (1, 2)
    ([(0, 18)], "vertex id 18 out of range 0..15"),
], ids=["not-an-edge", "out-of-range", "aliased-key"])
def test_double_cover_refuses_flip_pairs_off_the_base_edges(flips, message):
    with pytest.raises(DqsError, match=re.escape(message)):
        coverings.double_cover(gen_torus(4, 4, 1j), flips)


def _reference_validate_map(m, tol=1e-12):
    """Reference validate_map: the star condition checked for every quad."""
    bad = []
    for v in range(m.source.nv):
        if m.source.colors[v] != m.target.colors[m.image(v)]:
            bad.append(f"vertex {v} maps across colors")
    if bad:
        return tuple(bad)
    for q in range(m.source.nq):
        imgs = [m.image(v) for v in m.source.quads[q]]
        if not any(all(v in t for v in imgs) for t in m.target.quads):
            bad.append(f"quad {q}: images {imgs} share no target quad (star condition)")
            continue
        try:
            q2 = _scan_quad_image(m, q)
        except DqsError as exc:
            bad.append(str(exc))
            continue
        if q2 is None:
            continue
        if abs(m.source.rho[q] - m.target.rho[q2]) > tol * max(1.0, abs(m.target.rho[q2])):
            bad.append(
                f"quad {q} maps onto {q2} with weight {m.source.rho[q]} != "
                f"{m.target.rho[q2]}")
    return tuple(bad)


@pytest.mark.parametrize("name", ["cube-cover", "torus-4", "identity"])
def test_validate_map_matches_reference_on_mutated_maps(name):
    m = _covering(name)
    assert validate_map(m).violations == _reference_validate_map(m) == ()
    *mutated, weights = _mutated_maps(m)
    for mm in mutated:
        assert validate_map(mm).violations == _reference_validate_map(mm)
    assert validate_map(weights).violations == _reference_validate_map(weights) != ()


def _hurwitz_error(tmp_path, capsys, source, target, vertex_map):
    from dqs import cli
    from dqs.io import serialize_map_bundle

    path = tmp_path / "map.json"
    path.write_text(serialize_map_bundle(source, target, vertex_map))
    code = cli.main(["hurwitz", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz_refuses_a_disconnected_source(tmp_path, capsys):
    torus = gen_torus(4, 4, 0.1 + 1.1j)
    two = QuadComplex.build(torus.colors * 2,
                            list(torus.quads) + [tuple(v + 16 for v in t) for t in torus.quads],
                            torus.rho * 2)
    assert _hurwitz_error(tmp_path, capsys, two, torus, [v % 16 for v in range(32)]) \
        == (1, "", "error: source: only 16 of 32 vertices connected\n")


def test_hurwitz_refuses_a_reflected_target_quad(tmp_path, capsys):
    torus = gen_torus(4, 4, 0.1 + 1.1j)
    quads = list(torus.quads)
    bm, wm, bp, wp = quads[3]
    quads[3] = (bm, wp, bp, wm)
    reflected = QuadComplex.build(torus.colors, quads, torus.rho)
    assert _hurwitz_error(tmp_path, capsys, torus, reflected, range(16)) \
        == (1, "", "error: target: edge (0, 3) traversed 2x forward, 0x backward\n")


def _reference_corner_images(m):
    """The corner images from a dict of the target rotations, lower id first."""
    first = {}
    for q2, t in enumerate(m.target.quads):
        for shift in (0, 2):
            first.setdefault(t[shift:] + t[:shift], 4 * q2 + shift)
    out = []
    for t in m.source.quads:
        img = tuple(m.image(v) for v in t)
        if img[0] == img[2] and img[1] == img[3]:
            out += [coverings._BICONSTANT] * 4
        elif img not in first:
            out += [coverings._NOT_A_ROTATION] * 4
        else:
            i = first[img]
            out += [i - i % 4 + (i + s) % 4 for s in range(4)]
    return out


def _onto_2x2(vm=None):
    """The 4x4 torus onto the 2x2 torus, whose quads 0 and 3 (and 1 and 2)
    are turns of each other by two slots; by default (i, j) -> (i % 2, j % 2)."""
    if vm is None:
        vm = [(v // 4 % 2) * 2 + v % 2 for v in range(16)]
    return CoveringMap(gen_torus(4, 4, 1j), gen_torus(2, 2, 1j), vm)


@pytest.mark.parametrize("make", [
    lambda: gen_torus_unbranched_cover(4, 4, 0.2 + 1.1j)[2],
    lambda: gen_torus_unbranched_cover(8, 6, 0.2 + 1.1j)[2],
    lambda: gen_cube_double_cover()[2],
    _onto_2x2,
    lambda: _onto_2x2(np.random.default_rng(2).integers(0, 4, 16)),
], ids=["cover4", "cover8x6", "cube-cover", "onto-2x2", "random-onto-2x2"])
def test_corner_images_match_the_rotation_dict(make):
    m = make()
    assert m.corner_images.tolist() == _reference_corner_images(m)
    if m.target.nq == 4:
        t = m.target.quads
        assert t[0] == t[3][2:] + t[3][:2] and t[1] == t[2][2:] + t[2][:2]
