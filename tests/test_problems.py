"""Problem-file parsing, serialization round-trips, and generators."""

import random

import pytest

from spanmin import (ProblemFormatError, build_grid_complex, generate_faceset,
                     linking_loops, parse_problem, serialize_problem)
from spanmin.problems import ProblemSpec

from loop_oracles import faces_where_by_scan

MINIMAL = """\
# 2D separation
n 2
d 1
box 2 2
init generator separating-row
constraint point-pair 1 0 ; 1 2
"""


def test_parse_minimal():
    spec = parse_problem(MINIMAL)
    assert (spec.n, spec.d, spec.box) == (2, 1, (2, 2))
    assert spec.init_kind == "generator"
    assert spec.constraints == (("point-pair", ((1, 0), (1, 2))),)
    assert spec.budget == 10000  # default


def test_parse_comments_and_blank_lines():
    spec = parse_problem("n 2\n\n# comment only\nd 1  # trailing\nbox 3 3\n")
    assert spec.box == (3, 3)


def test_parse_weight_table():
    text = MINIMAL + "weight table 1.0\nw 3 2.5\nw 7 1.5\nM 4.0\n"
    spec = parse_problem(text)
    assert spec.weight_kind == "table"
    assert spec.weight_table == ((3, 2.5), (7, 1.5))
    w = spec.weight_field()
    assert w.at(3) == 2.5 and w.at(0) == 1.0


def test_parse_rejects_w_lines_without_weight_table():
    # a 'w' line is a table-mode line: under 'weight constant' (the default)
    # its value would go unread
    text = MINIMAL + "weight constant 1.0\nw 4 3.0\nw 11 3.0\nM 4.0\n"
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(text)
    assert exc.value.violations == ["line 8: 'w' needs 'weight table'",
                                    "line 9: 'w' needs 'weight table'"]
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(MINIMAL + "w 4 3.0\n")  # constant is the default
    assert exc.value.violations == ["line 7: 'w' needs 'weight table'"]
    spec = parse_problem(text.replace("constant", "table"))
    assert spec.weight_field().at(4) == 3.0


def test_parse_collects_all_violations():
    bad = "n 9\nd 9\nbox 2\nweight funky\nscale -1\nbudget -5\nzorp 1\n"
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(bad)
    msgs = exc.value.violations
    assert len(msgs) >= 5
    assert any("outside 1..4" in m for m in msgs)
    assert any("cell dimension must be below ambient" in m for m in msgs)
    assert any("scale" in m for m in msgs)
    assert any("zorp" in m for m in msgs)


def test_parse_violations_carry_line_numbers():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem("n 2\nd 1\nbox 2 2\nconstraint blob 0 0 ; 1 1\n")
    assert any(m.startswith("line 4:") for m in exc.value.violations)


def test_parse_rejects_sub_unit_weight():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(MINIMAL + "weight constant 0.5\n")
    assert any("1 <= h <= M" in m for m in exc.value.violations)


def test_parse_point_arity_checked():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem("n 2\nd 1\nbox 2 2\nconstraint point-pair 0 ; 1 1 1\n")
    assert len(exc.value.violations) == 2


def test_parse_missing_required_keys():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem("scale 1.0\n")
    joined = " ".join(exc.value.violations)
    for key in ("'n'", "'d'", "'box'"):
        assert key in joined


def test_parse_unknown_generator():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem("n 2\nd 1\nbox 2 2\ninit generator mystery\n")
    assert any("unknown generator" in m for m in exc.value.violations)


@pytest.mark.parametrize("line", ["tol 1e-9", "raster 1024"])
def test_parse_rejects_removed_keys(line):
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(MINIMAL + line + "\n")
    assert any("unknown key" in m for m in exc.value.violations)


def test_round_trip_minimal():
    spec = parse_problem(MINIMAL)
    assert parse_problem(serialize_problem(spec)) == spec


def test_round_trip_randomized():
    rng = random.Random(12)
    rejected = 0
    for _ in range(25):
        n = rng.randint(2, 4)
        d = rng.randint(1, n - 1)
        box = tuple(rng.randint(1, 3) for _ in range(n))
        fields = dict(
            n=n, d=d, box=box,
            scale=rng.choice([1.0, 0.5, 2.25]),
            weight_kind=rng.choice(["constant", "table"]),
            weight_value=round(rng.uniform(1.0, 3.0), 3),
            weight_table=tuple(sorted(
                (rng.randrange(10), round(rng.uniform(1.0, 3.0), 3))
                for _ in range(rng.randint(0, 3)))),
            weight_upper=10.0,
            init_kind="faces",
            init_faces=tuple(sorted(rng.sample(range(12), rng.randint(0, 4)))),
            constraints=(("point-pair",
                          (tuple(0 for _ in range(n)), box)),),
            region=((tuple(0 for _ in range(n)), box)
                    if rng.random() < 0.5 else None),
            seed=rng.randrange(100),
            budget=rng.randrange(20000))
        if fields["weight_kind"] == "constant" and fields["weight_table"]:
            # a table the constant kind would ignore is refused up front
            rejected += 1
            with pytest.raises(ProblemFormatError):
                ProblemSpec(**fields)
            continue
        spec = ProblemSpec(**fields)
        assert parse_problem(serialize_problem(spec)) == spec
    assert rejected == 12


def test_spec_refuses_a_table_its_weight_kind_ignores():
    fields = dict(n=2, d=1, box=(2, 2), weight_table=((0, 2.0),),
                  init_faces=(0,))
    with pytest.raises(ProblemFormatError):
        ProblemSpec(weight_kind="constant", **fields)
    spec = ProblemSpec(weight_kind="table", **fields)
    assert parse_problem(serialize_problem(spec)) == spec
    w = spec.weight_field()
    assert (w.at(0), w.at(1)) == (2.0, 1.0)


def test_generator_separating_row():
    K = build_grid_complex(2, [2, 2])
    F = generate_faceset("separating-row", K, 1)
    assert len(F) == 2
    assert all(K.grid.points[v][1] == 1
               for f in F.faces for v in K.simplex(1, f))


def test_generator_straight_path():
    K = build_grid_complex(2, [3, 3])
    F = generate_faceset("straight-path", K, 1)
    assert len(F) == 3
    assert all(K.grid.points[v][1] == 0
               for f in F.faces for v in K.simplex(1, f))


def test_generator_two_planes():
    K = build_grid_complex(4, [2, 2, 2, 2])
    F = generate_faceset("two-planes-orthogonal", K, 2)
    assert len(F) == 16  # two planes of 2x2 cells, two triangles per cell


def test_generator_dimension_mismatch():
    K = build_grid_complex(2, [2, 2])
    with pytest.raises(ProblemFormatError):
        generate_faceset("two-planes-orthogonal", K, 1)
    with pytest.raises(ProblemFormatError):
        generate_faceset("separating-row", K, 0)


def test_linking_loops_shape():
    loops = linking_loops((2, 2, 2, 2))
    assert len(loops) == 2
    for loop in loops:
        assert loop.kind == "loop" and loop.degree == 1
        # closed lattice rectangle: consecutive points differ by one step
        pts = loop.points
        for p, q in zip(pts, pts[1:] + pts[:1]):
            assert sum(abs(a - b) for a, b in zip(p, q)) == 1


@pytest.mark.parametrize("box", [(2, 2), (3, 4), (5, 1), (1, 3)])
def test_2d_generators_match_the_predicate_scan(box):
    K = build_grid_complex(2, box)
    mid = box[1] // 2
    assert generate_faceset("separating-row", K, 1).faces == \
        faces_where_by_scan(K, 1, lambda pts: all(p[1] == mid for p in pts))
    assert generate_faceset("straight-path", K, 1).faces == \
        faces_where_by_scan(K, 1, lambda pts: all(p[1] == 0 for p in pts))


@pytest.mark.parametrize("box", [(2, 2, 2, 2), (3, 2, 1, 3), (1, 1, 2, 2)])
def test_two_planes_generator_matches_the_predicate_scan(box):
    K = build_grid_complex(4, box)
    c = [b // 2 for b in box]
    p1 = faces_where_by_scan(K, 2, lambda pts: all(
        p[2] == c[2] and p[3] == c[3] for p in pts))
    p2 = faces_where_by_scan(K, 2, lambda pts: all(
        p[0] == c[0] and p[1] == c[1] for p in pts))
    assert generate_faceset("two-planes-orthogonal", K, 2).faces == \
        tuple(sorted(set(p1) | set(p2)))
