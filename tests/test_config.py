import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_configs import BENCH_CONFIGS
from loewner import BoundaryPoint, ConfigError, CorollaryField
from loewner.checks import CHECK_NAMES
from loewner.config import MAX_GRID_POINTS, RunConfig, config_digest, emit_config, parse_config

PI = math.pi

MINIMAL = {
    "field": {"kind": "corollary", "schedule": {"segments": [
        {"t0": 0, "t1": 1, "measure": {
            "atoms": [{"angle": 3.141592653589793, "weight": 1.0}],
            "excluded_angle": 0.0}}]}},
    "integration": {"t0": 0, "t1": 1, "rel_tol": 1e-10, "abs_tol": 1e-12},
    "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
    "checks": ["semigroup", "dilation_tracking"],
}


def as_bytes(d):
    return json.dumps(d).encode()


def variant(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(as_bytes(MINIMAL))
        assert isinstance(cfg.field, CorollaryField)
        assert cfg.integration.t1 == 1.0
        assert cfg.grid.points().size == 48
        assert cfg.checks == ("semigroup", "dilation_tracking")

    def test_round_trip_is_semantic_identity(self):
        cfg = parse_config(as_bytes(MINIMAL))
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_with_everything(self):
        d = variant(
            fixed_points=[{"angle": PI, "expected_role": "brfp"},
                          {"angle": 0.0, "expected_role": "dw"}],
            output={"trajectory_csv": "out", "report_json": "rep.json", "combined": True},
            tolerances={"semigroup": 1e-7},
        )
        cfg = parse_config(as_bytes(d))
        assert parse_config(emit_config(cfg)) == cfg

    def test_syntax_error_carries_byte_offset(self):
        with pytest.raises(ConfigError) as e:
            parse_config(b'{"field": }')
        assert e.value.byte_offset == 10

    def test_non_utf8(self):
        with pytest.raises(ConfigError):
            parse_config(b'\xff\xfe{}')

    def test_probability_error_pointer(self):
        d = variant()
        d["field"]["schedule"]["segments"][0]["measure"]["atoms"][0]["weight"] = 0.9
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/field/schedule/segments/0/measure"
        assert "probability mass" in str(e.value)

    def test_unknown_check_names_registry(self):
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(variant(checks=["frobnicate"])))
        assert e.value.pointer == "/checks/0"
        assert "semigroup" in str(e.value)  # registry listing included

    def test_missing_member(self):
        d = variant()
        del d["grid"]
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/grid"

    def test_window_ordering(self):
        d = variant(integration={"t0": 2, "t1": 1})
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/integration"

    def test_grid_radii_range(self):
        d = variant(grid={"kind": "polar", "radii": [0.5, 1.2], "angles": 8})
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/grid/radii/1"

    def test_grid_size_is_capped_before_allocation(self):
        # parse only: points() would allocate the grid
        for radii, angles in (([0.3, 0.6, 0.9], 10 ** 12), ([0.5] * 4, MAX_GRID_POINTS // 4 + 1)):
            d = variant(grid={"kind": "polar", "radii": radii, "angles": angles})
            with pytest.raises(ConfigError) as e:
                parse_config(as_bytes(d))
            assert e.value.pointer == "/grid/angles"
        d = variant(grid={"kind": "polar", "radii": [0.5] * 4, "angles": MAX_GRID_POINTS // 4})
        assert parse_config(as_bytes(d)).grid.angles == MAX_GRID_POINTS // 4

    def test_unsupported_grid_kind(self):
        d = variant(grid={"kind": "cartesian", "radii": [0.5], "angles": 8})
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))

    def test_corollary_excluded_angle_matches_within_angle_gap(self):
        d = variant()
        measure = d["field"]["schedule"]["segments"][0]["measure"]
        measure["excluded_angle"] = 1e-13
        parse_config(as_bytes(d))
        measure["excluded_angle"] = 1e-10
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/field/schedule/segments/0/measure"
        assert "exclude angle 0" in str(e.value)

    def test_t1_past_schedule_end(self):
        d = variant(integration={"t0": 0, "t1": 2})
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/integration/t1"
        assert "t1 = 2.0 is past the schedule end 1.0" in str(e.value)
        d["field"]["schedule"]["hold_last"] = True
        assert parse_config(as_bytes(d)).integration.t1 == 2.0

    def test_values_past_python_limits(self):
        # an integer past the digit limit of int(), and nesting past the recursion limit
        for text in ('{"field": ' + "1" * 5000 + "}", "[" * 100000):
            with pytest.raises(ConfigError, match="JSON value out of range"):
                parse_config(text)
        # an integer no float can hold
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(variant(integration={"t0": 0, "t1": 10 ** 400})))
        assert str(e.value) == "/integration/t1: number must be finite"

    def test_tolerance_override_for_unknown_check(self):
        d = variant(tolerances={"nope": 1.0})
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/tolerances/nope"


RECIPROCAL_DATA = [{"angle": 2 * PI / 3, "alpha": 1.0}, {"angle": 4 * PI / 3, "alpha": 1.0}]

FIELDS = {
    "corollary": MINIMAL["field"],
    "reciprocal-circle": {"kind": "reciprocal", "tau": {"angle": 0.0}, "data": RECIPROCAL_DATA},
    "reciprocal-inside": {"kind": "reciprocal", "tau": {"re": 0.2, "im": 0.0},
                          "data": RECIPROCAL_DATA},
    "berkson_porta-circle": {"kind": "berkson_porta", "tau": {"angle": 0.0},
                             "p": {"const_re": 1.0}},
    "berkson_porta-inside": {"kind": "berkson_porta", "tau": {"re": 0.2, "im": 0.0},
                             "p": {"const_re": 1.0}},
}

#: (field, expected_role, angle, accepted); fixed points match field data
#: within 1e-9 radians
FIXED_POINT_TABLE = [
    ("corollary", "brfp", PI, True),
    ("corollary", "brfp", PI + 5e-10, True),
    ("corollary", "brfp", PI + 2e-9, False),
    ("corollary", "brfp", 1.0, False),
    ("corollary", "dw", 0.0, True),
    ("corollary", "dw", 2 * PI - 5e-10, True),
    ("corollary", "dw", PI, False),
    ("reciprocal-circle", "brfp", 2 * PI / 3, True),
    ("reciprocal-circle", "brfp", 4 * PI / 3 - 5e-10, True),
    ("reciprocal-circle", "brfp", 1.0, False),
    ("reciprocal-circle", "brfp", 0.0, False),
    ("reciprocal-circle", "dw", 0.0, True),
    ("reciprocal-circle", "dw", 2e-9, False),
    ("reciprocal-circle", "dw", 2 * PI / 3, False),
    ("reciprocal-inside", "brfp", 4 * PI / 3, True),
    ("reciprocal-inside", "brfp", 1.0, False),
    ("reciprocal-inside", "dw", 0.0, False),
    ("reciprocal-inside", "dw", PI, False),
    ("berkson_porta-circle", "brfp", 0.0, False),
    ("berkson_porta-circle", "brfp", PI, False),
    ("berkson_porta-circle", "dw", 0.0, True),
    ("berkson_porta-circle", "dw", PI, False),
    ("berkson_porta-inside", "brfp", PI, False),
    ("berkson_porta-inside", "dw", 0.0, False),
]


class TestFixedPointConsistency:
    @pytest.mark.parametrize("field,role,angle,accepted", FIXED_POINT_TABLE)
    def test_accept_reject_table(self, field, role, angle, accepted):
        d = variant(field=FIELDS[field], fixed_points=[{"angle": angle, "expected_role": role}])
        if accepted:
            assert parse_config(as_bytes(d)).fixed_points[0].role == role
        else:
            with pytest.raises(ConfigError) as e:
                parse_config(as_bytes(d))
            assert e.value.pointer == "/fixed_points/0"

    def test_corollary_roles(self):
        d = variant(fixed_points=[{"angle": PI, "expected_role": "brfp"},
                                  {"angle": 0.0, "expected_role": "dw"}])
        parse_config(as_bytes(d))

    def test_corollary_wrong_brfp_angle(self):
        d = variant(fixed_points=[{"angle": 1.0, "expected_role": "brfp"}])
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(d))
        assert e.value.pointer == "/fixed_points/0"

    def test_corollary_wrong_dw_angle(self):
        d = variant(fixed_points=[{"angle": PI, "expected_role": "dw"}])
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))

    def test_a_listed_angle_reads_and_writes_back_as_the_fields_point(self):
        listed = [{"angle": PI + 5e-10, "expected_role": "brfp"},
                  {"angle": 2 * PI - 5e-10, "expected_role": "dw"}]
        cfg = parse_config(as_bytes(variant(fixed_points=listed)))
        assert [fp.point for fp in cfg.fixed_points] == [BoundaryPoint(PI), BoundaryPoint(0.0)]
        assert [fp["angle"] for fp in cfg.to_dict()["fixed_points"]] == [PI, 0.0]
        assert parse_config(emit_config(cfg)) == cfg
        # without field validation nothing names a field point: the angle stays
        cfg = parse_config(as_bytes(variant(fixed_points=listed, skip_field_validation=True)))
        assert [fp.point.angle for fp in cfg.fixed_points] == [PI + 5e-10, 2 * PI - 5e-10]

    def test_bad_role_name(self):
        d = variant(fixed_points=[{"angle": PI, "expected_role": "fixed"}])
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))

    def test_reciprocal_fixed_points(self):
        d = variant(field={"kind": "reciprocal", "tau": {"re": 0.0, "im": 0.0},
                           "data": [{"angle": 0.0, "alpha": 1.0},
                                    {"angle": 2 * PI / 3, "alpha": 1.0}]},
                    fixed_points=[{"angle": 0.0, "expected_role": "brfp"}])
        parse_config(as_bytes(d))
        d["fixed_points"] = [{"angle": 1.0, "expected_role": "brfp"}]
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))
        # interior DW point cannot be listed by a boundary angle
        d["fixed_points"] = [{"angle": 0.0, "expected_role": "dw"}]
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))

    def test_berkson_porta_dw(self):
        d = variant(field={"kind": "berkson_porta", "tau": {"angle": 0.0},
                           "p": {"const_re": 1.0, "const_im": 0.0}},
                    fixed_points=[{"angle": 0.0, "expected_role": "dw"}])
        parse_config(as_bytes(d))
        d["fixed_points"] = [{"angle": PI, "expected_role": "brfp"}]
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))


class TestTauForms:
    @pytest.mark.parametrize("re", [1.0 + 5e-13, 1.0 - 5e-13])
    def test_tau_just_off_the_circle_round_trips(self, re):
        # within the circle test of the fixed points, but no angle reads back
        # to it: it is written as given, so the digest names the tau integrated
        d = json.loads(json.dumps(BENCH_CONFIGS[("verify_dilation", 1)]))
        d["field"]["tau"] = {"re": re, "im": 0.0}
        cfg = parse_config(as_bytes(d))
        assert cfg.field.tau == complex(re, 0.0)
        assert cfg.to_dict()["field"]["tau"] == {"re": re, "im": 0.0}
        assert parse_config(emit_config(cfg)) == cfg
        d["field"]["tau"] = {"angle": 0.0}
        assert config_digest(cfg) != config_digest(parse_config(as_bytes(d)))


class TestRepeatedMembers:
    def test_repeated_member_is_rejected_at_its_pointer(self):
        # were the last copy to win, this config would verify with no fixed points
        text = as_bytes(BENCH_CONFIGS[("verify_dilation", 1)])
        with pytest.raises(ConfigError) as e:
            parse_config(text[:-1] + b', "fixed_points": []}')
        assert str(e.value) == "/fixed_points: repeated member 'fixed_points'"

    def test_repeated_member_inside_tau(self):
        text = as_bytes(BENCH_CONFIGS[("verify_dilation", 1)])
        assert text.count(b'"tau": {"angle": 0.0}') == 1
        with pytest.raises(ConfigError) as e:
            parse_config(text.replace(b'"tau": {"angle": 0.0}',
                                      b'"tau": {"angle": 0.0, "angle": 0.5}'))
        assert str(e.value) == "/field/tau/angle: repeated member 'angle'"


class TestValidationHook:
    def test_skip_field_validation(self):
        d = variant(skip_field_validation=True)
        d["field"]["schedule"]["segments"][0]["measure"]["atoms"][0]["weight"] = 1.5
        cfg = parse_config(as_bytes(d))
        assert cfg.skip_field_validation
        # without the hook the same text is rejected
        d["skip_field_validation"] = False
        with pytest.raises(ConfigError):
            parse_config(as_bytes(d))


SCHEDULE = {"segments": [
    {"t0": 0, "t1": 1, "measure": {"atoms": [{"angle": 1.0, "weight": 0.5},
                                             {"angle": 4.0, "weight": 0.7}]}},
    {"t0": 1, "t1": 2, "measure": {"atoms": [{"angle": 2.5, "weight": 1.0}],
                                   "excluded_angle": None}}], "hold_last": True}

#: valid configs that together hold every member the parser reads
MUTATION_BASES = [
    variant(fixed_points=[{"angle": PI, "expected_role": "brfp"},
                          {"angle": 0.0, "expected_role": "dw"}],
            output={"trajectory_csv": "out", "report_json": "rep.json", "combined": True},
            tolerances={"semigroup": 1e-7}, skip_field_validation=False),
    variant(field=FIELDS["reciprocal-circle"],
            fixed_points=[{"angle": 2 * PI / 3, "expected_role": "brfp"},
                          {"angle": 0.0, "expected_role": "dw"}]),
    variant(field={"kind": "berkson_porta", "tau": {"re": 0.2, "im": 0.1},
                   "p": {"schedule": SCHEDULE, "imag_const": 0.3}},
            integration={"t0": 0.5, "t1": 3.0}),
    variant(field={"kind": "berkson_porta", "tau": {"angle": PI},
                   "p": {"measure": SCHEDULE["segments"][0]["measure"]}}),
    variant(field={"kind": "berkson_porta", "tau": {"angle": 0.0},
                   "p": {"const_re": 1.0, "const_im": -0.5}}),
]


def _members(node, path=()):
    """The path of every member below node, objects and arrays alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _members(child, path + (key,))


REPLACEMENTS = st.one_of(
    st.none(),
    st.integers(-10 ** 13, 10 ** 13),
    st.floats(),
    st.text(max_size=12),
    st.booleans(),
    st.lists(st.one_of(st.none(), st.integers(-3, 3), st.floats(), st.text(max_size=4)),
             max_size=3),
    st.dictionaries(st.text(max_size=8), st.one_of(st.none(), st.floats(), st.text(max_size=4)),
                    max_size=3),
)


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _pointer(path):
    return "".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in path)


#: every member name that some config object takes; an added member
#: avoids them all, so it is unknown wherever it lands
READER_NAMES = CHECK_NAMES | {
    "skip_field_validation", "field", "integration", "grid", "checks", "fixed_points",
    "output", "tolerances", "kind", "tau", "p", "data", "schedule", "angle", "re", "im",
    "alpha", "const_re", "const_im", "measure", "imag_const", "segments", "hold_last",
    "t0", "t1", "atoms", "weight", "excluded_angle", "rel_tol", "abs_tol", "radii",
    "angles", "expected_role", "trajectory_csv", "report_json", "combined"}


@st.composite
def added_members(draw):
    """(config, path, message): a base with a member of a random name
    added to one of its objects."""
    config = json.loads(json.dumps(draw(st.sampled_from(MUTATION_BASES))))
    objects = [()] + [p for p in _members(config) if isinstance(_at(config, p), dict)]
    path = draw(st.sampled_from(objects))
    name = draw(st.text(max_size=12).filter(lambda n: n not in READER_NAMES))
    _at(config, path)[name] = draw(REPLACEMENTS)
    return config, path + (name,), f"unknown member {name!r}"


@st.composite
def replaced_containers(draw):
    """(config, path, message): a base with one of its objects or lists
    replaced by a string or a number."""
    config = json.loads(json.dumps(draw(st.sampled_from(MUTATION_BASES))))
    path = draw(st.sampled_from(
        [p for p in _members(config) if isinstance(_at(config, p), (dict, list))]))
    kind = "an object" if isinstance(_at(config, path), dict) else "a list"
    value = draw(st.one_of(st.text(max_size=12), st.integers(-10 ** 13, 10 ** 13),
                           st.floats(allow_nan=False, allow_infinity=False)))
    _at(config, path[:-1])[path[-1]] = value
    return config, path, f"expected {kind}, got {value!r}"


@st.composite
def single_member_mutations(draw):
    base = draw(st.sampled_from(MUTATION_BASES))
    config = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_members(config))))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return config


class TestMutatedConfigs:
    @pytest.mark.parametrize("base", range(len(MUTATION_BASES)))
    def test_bases_are_valid(self, base):
        assert isinstance(parse_config(as_bytes(MUTATION_BASES[base])), RunConfig)

    @given(single_member_mutations())
    @settings(max_examples=500, deadline=None)
    def test_one_changed_member_parses_or_names_a_config_error(self, config):
        # deleting a member, or replacing it by null, a number, a string, a
        # bool, a list or an object, never escapes as another exception
        try:
            parsed = parse_config(as_bytes(config))
        except ConfigError:
            return
        assert isinstance(parsed, RunConfig)

    @given(st.one_of(added_members(), replaced_containers()))
    @settings(max_examples=500, deadline=None)
    def test_unknown_member_or_wrong_container_names_its_pointer(self, mutation):
        config, path, message = mutation
        with pytest.raises(ConfigError) as e:
            parse_config(as_bytes(config))
        assert e.value.pointer == _pointer(path)
        assert str(e.value) == f"{_pointer(path)}: {message}"

    @pytest.mark.parametrize("base", range(len(MUTATION_BASES)))
    def test_bases_emit_pinned_bytes(self, base):
        emitted = emit_config(parse_config(as_bytes(MUTATION_BASES[base])))
        assert hashlib.sha256(emitted).hexdigest() == BASE_EMIT_SHA256[base]


#: sha256 of the emit_config bytes of each MUTATION_BASES entry and each
#: bench config, recorded with the parser that preceded the one-pass
#: reader; a config without unknown or conflicting members parses to the
#: same RunConfig, so the report digests and outputs do not move
BASE_EMIT_SHA256 = [
    "099536ebbc86ceebc1f200dd96d4ba0b139741d1d69683ce3dbe029d0c76feb5",
    "1f5097980a96a1f008c3585e762575c7a6c33a99edf9d70498e50529c4ab2b13",
    "d738eae7170ecb9fffe080d5c36de3a62e85d8722f42f0e6489c108635496aa5",
    "fd8b3f0492d9a3566bf6baf62c641c146d679112ff9afd80eb1878ebc765aa44",
    "f50c14164ab1188f384d6e070283daed30fc0a5318f8d078bcd2a685d4a16269",
]
BENCH_EMIT_SHA256 = {
    ("verify_oracle", 1): "12be3fe8eb1ea8c223b04f2252b0a291b2dd4e74794e4b17a6a7c11b7bf56a18",
    ("verify_dilation", 1): "3e19de059571221d11ddb814bf49b560dd3597a7ddbc1002f6850cc4889729cc",
    ("simulate_grid", 1): "94a74712eab6cfbbe038db71f08e0ac641b2ff99ade8800582d188a88c33110b",
    ("verify_oracle", 7): "cf1cf1d71e8b0d840ad851955c4bc96b1403e1f4c0f61806e092262d5b1d8987",
    ("verify_dilation", 7): "50579efc7e5e5c7615eb7cd8ec4c3d055260a59192c049ea3cca79b5ceef5770",
    ("simulate_grid", 7): "d2735e45beec13fa890b75c4a806e6fb8c0a0d4dcd59cac8f01a2a57cf8374b0",
}


@pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
def test_bench_configs_emit_pinned_bytes(workload):
    emitted = emit_config(parse_config(as_bytes(BENCH_CONFIGS[workload])))
    assert hashlib.sha256(emitted).hexdigest() == BENCH_EMIT_SHA256[workload]
