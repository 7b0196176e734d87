import json

import numpy as np
import pytest

from dqs import (
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
from dqs.coverings import is_biconstant_quad
from dqs.errors import DqsError
from dqs.surface import QuadComplex

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
        assert all(is_biconstant_quad(m, q) for q in range(16))
        assert branch_vertex(m, 0) == 0


class TestSheetCount:
    def test_identity(self, torus44):
        assert sheet_count(CoveringMap(torus44, torus44, range(16))) == 1

    def test_cube_cover(self, cover):
        _, _, cmap = cover
        assert sheet_count(cmap) == 2

    def test_per_quad_counts_match(self, cover):
        # every base quad has exactly two bijective preimages
        from dqs.coverings import quad_image

        total, base, cmap = cover
        counts = np.zeros(base.nq, int)
        for q in range(total.nq):
            counts[quad_image(cmap, q)] += 1
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


def _scan_quad_image(m, q):
    """Reference quad_image: compare with both rotations of every target quad."""
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
def test_riemann_hurwitz_matches_full_scan(name, monkeypatch):
    m = _covering(name)
    fast = check_riemann_hurwitz(m)
    assert [coverings.quad_image(m, q) for q in range(m.source.nq)] \
        == [_scan_quad_image(m, q) for q in range(m.source.nq)]
    monkeypatch.setattr(coverings, "quad_image", _scan_quad_image)
    ref = check_riemann_hurwitz(m)
    assert fast.sheets == ref.sheets
    assert fast.vertex_branch_numbers == ref.vertex_branch_numbers
    assert fast.quad_branch_numbers == ref.quad_branch_numbers


def test_riemann_hurwitz_work_is_linear(counted_quads):
    """Operation count, no timing: every comparison of an image with a
    target quad reads that quad, and a scan of all target quads per source
    quad reads about nq_source * nq_target of them."""
    source, target, cmap = gen_torus_unbranched_cover(16, 16, 0.2 + 1.1j)
    m = CoveringMap(source, counted_quads(target), cmap.vertex_map)
    assert check_riemann_hurwitz(m).sheets == 2
    assert m.target.quads.reads <= 32 * (source.nq + target.nq)


def test_hurwitz_command_validates_and_winds_once(monkeypatch, tmp_path, capsys):
    """Call counts, no timing: ``dqs hurwitz`` checks the map once and
    winds each source star once."""
    from dqs import cli
    from dqs.io import serialize_map_bundle

    source, target, cmap = gen_torus_unbranched_cover(16, 16, 0.2 + 1.1j)
    path = tmp_path / "cover.json"
    path.write_text(serialize_map_bundle(source, target, cmap.vertex_map))
    calls = {"validate_map": 0, "branch_vertex": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "validate_map", counting("validate_map", validate_map))
    monkeypatch.setattr(coverings, "validate_map", counting("validate_map", validate_map))
    monkeypatch.setattr(coverings, "branch_vertex", counting("branch_vertex", branch_vertex))
    assert cli.main(["hurwitz", "--format", "json", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["outputs"]["sheets"] == 2
    assert calls == {"validate_map": 1, "branch_vertex": source.nv}


def test_hurwitz_command_images_each_quad_once(monkeypatch, tmp_path, capsys):
    """Work count, no timing: a ``dqs hurwitz`` job computes the image of
    each source quad at most once, and its report is unchanged."""
    from dqs import cli
    from dqs.io import serialize_map_bundle

    source, target, cmap = gen_torus_unbranched_cover(16, 16, 0.2 + 1.1j)
    path = tmp_path / "cover.json"
    path.write_text(serialize_map_bundle(source, target, cmap.vertex_map))
    computed = [0]

    def counting(m, original=coverings._quad_images):
        images = original(m)
        computed[0] += len(images)
        return images

    monkeypatch.setattr(coverings, "_quad_images", counting)
    assert cli.main(["hurwitz", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < computed[0] <= source.nq
    assert doc["outputs"]["sheets"] == 2 and doc["outputs"]["total_branching"] == 0
    assert all(c["pass"] for c in doc["checks"])



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
    rng = np.random.default_rng(7)
    by_color = [[v for v in range(m.target.nv) if m.target.colors[v] == c] for c in (0, 1)]
    for trial in range(40):
        vm = list(m.vertex_map)
        for v in rng.choice(m.source.nv, size=int(rng.integers(1, 4)), replace=False).tolist():
            # mostly within the color, now and then across it
            pool = by_color[m.source.colors[v] ^ (trial % 10 == 0)]
            vm[v] = int(rng.choice(pool))
        mutated = CoveringMap(m.source, m.target, vm)
        assert validate_map(mutated).violations == _reference_validate_map(mutated)
    weights = CoveringMap(m.source, QuadComplex.build(
        m.target.colors, m.target.quads, [r + 0.5 for r in m.target.rho]), m.vertex_map)
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
