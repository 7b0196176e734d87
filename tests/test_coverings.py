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

