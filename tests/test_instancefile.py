import json

import numpy as np
import pytest

from ossmax import (
    BoxPolytope,
    CardinalityPolytope,
    Instance,
    MonotoneLinearPolytope,
    make_coverage_instance,
    make_semimetric_instance,
    random_semimetric_instance,
    read_instance,
    write_instance,
)


def roundtrip(tmp_path, instance):
    path = tmp_path / "inst.json"
    write_instance(path, instance)
    return read_instance(path)


class TestRoundTrip:
    def test_coverage_value_exact(self, tmp_path):
        obj = make_coverage_instance(4, 6, density=0.5, seed=3)
        inst = Instance(obj, CardinalityPolytope(4, 2), label="cov", seed=3)
        back = roundtrip(tmp_path, inst)
        assert back.label == "cov"
        assert back.seed == 3
        assert np.array_equal(back.objective.weights, obj.weights)
        assert back.objective.covers == obj.covers
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(size=4)
            assert back.objective.value(x) == obj.value(x)  # bit-exact
        assert back.polytope.budget == 2

    def test_quadratic_value_exact(self, tmp_path):
        obj = random_semimetric_instance(5, seed=8)
        inst = Instance(obj, BoxPolytope(5, 0.9), label="quad", seed=8)
        back = roundtrip(tmp_path, inst)
        assert np.array_equal(back.objective.M, obj.M)
        assert np.array_equal(back.objective.b, obj.b)
        assert back.objective.sigma_claimed == 1.0
        assert np.array_equal(back.polytope.upper, np.full(5, 0.9))
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(size=5)
            assert back.objective.value(x) == obj.value(x)

    def test_monotone_linear_polytope(self, tmp_path):
        obj = make_semimetric_instance([[0.0], [0.0]], [2.0, 1.0])
        inst = Instance(obj, MonotoneLinearPolytope(2, [(0, 1)]))
        back = roundtrip(tmp_path, inst)
        assert back.polytope.pairs == ((0, 1),)

    def test_write_is_deterministic(self, tmp_path):
        obj = make_coverage_instance(3, 5, seed=11)
        inst = Instance(obj, BoxPolytope(3), label="det", seed=11)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(a, inst)
        write_instance(b, inst)
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            read_instance(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "tag.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            read_instance(path)

    def test_unknown_objective_kind(self, tmp_path):
        path = tmp_path / "kind.json"
        path.write_text(
            json.dumps(
                {
                    "format": "oss-instance-v1",
                    "objective": {"kind": "mystery"},
                    "polytope": {"kind": "box"},
                }
            )
        )
        with pytest.raises(ValueError):
            read_instance(path)

    def test_unknown_polytope_kind(self, tmp_path):
        obj = make_coverage_instance(2, 3, seed=0)
        path = tmp_path / "poly.json"
        write_instance(path, Instance(obj, BoxPolytope(2)))
        data = json.loads(path.read_text())
        data["polytope"] = {"kind": "sphere"}
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            read_instance(path)

    def test_nan_box_bound(self, tmp_path):
        # json reads the bare NaN token, so the region must reject it
        obj = make_coverage_instance(2, 3, seed=0)
        path = tmp_path / "nan.json"
        write_instance(path, Instance(obj, BoxPolytope(2)))
        data = json.loads(path.read_text())
        data["polytope"]["upper"] = [float("nan"), 1.0]
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError):
            read_instance(path)

    @pytest.mark.parametrize("covers", [[[0], [1]], [[0], [1], [2], [0]]])
    def test_coverage_stanza_with_wrong_cover_count(self, tmp_path, covers):
        obj = make_coverage_instance(3, 3, seed=0)
        path = tmp_path / "covers.json"
        write_instance(path, Instance(obj, BoxPolytope(3)))
        data = json.loads(path.read_text())
        data["objective"]["covers"] = covers
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="cover sets for dimension 3"):
            read_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_instance(tmp_path / "absent.json")
