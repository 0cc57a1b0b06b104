"""Problem definitions: a small text format plus named instance generators.

A problem file is line-oriented ``key value...`` text.  ``#`` starts a
comment.  Keys:

    n 2                     ambient dimension (1..4)
    d 1                     cell dimension (0 < d < n)
    box 3 3                 cells per axis
    scale 1.0               lattice spacing
    weight constant 1.0     or: weight table <default>, then face lines
    w 12 1.5                per-face weight (needs 'weight table')
    M 4.0                   upper weight bound
    init faces 0 1 5        explicit face indices
    init generator separating-row
    constraint point-pair 0 0 ; 3 3
    constraint loop 0 0 ; 1 0 ; 1 1 ; 0 1
    region 0 0 ; 3 3        competitor-check sub-box (lo ; hi)
    seed 7
    budget 10000

Named generators expand to face sets on the problem's own grid:
``separating-row`` (horizontal 1-faces across the middle of a 2D box),
``straight-path`` (1-faces along the bottom edge of a 2D box), and
``two-planes-orthogonal`` (the two coordinate 2-planes of a 4D box meeting
the box center).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import Complex, FaceSet, build_grid_complex
from .complement import ConstraintCycle, Region
from .errors import ProblemFormatError
from .solver import WeightField

GENERATORS = ("separating-row", "straight-path", "two-planes-orthogonal")


@dataclass(frozen=True)
class ProblemSpec:
    """A fully validated problem instance."""

    n: int
    d: int
    box: Tuple[int, ...]
    scale: float = 1.0
    weight_kind: str = "constant"          # "constant" | "table"
    weight_value: float = 1.0              # constant value / table default
    weight_table: Tuple[Tuple[int, float], ...] = ()
    weight_upper: float = 100.0
    init_kind: str = "faces"               # "faces" | "generator"
    init_faces: Tuple[int, ...] = ()
    generator: str = ""
    constraints: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...] = ()
    region: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    seed: int = 0
    budget: int = 10000

    def __post_init__(self):
        if self.weight_kind == "constant" and self.weight_table:
            raise ProblemFormatError(
                ["weight_table needs weight_kind 'table', not 'constant'"])

    def build_complex(self) -> Complex:
        return build_grid_complex(self.n, self.box, self.scale)

    def weight_field(self) -> WeightField:
        return WeightField(table=dict(self.weight_table),
                           default=self.weight_value, upper=self.weight_upper)

    def initial_faceset(self, K: Complex) -> FaceSet:
        if self.init_kind == "generator":
            return generate_faceset(self.generator, K, self.d)
        return FaceSet(K, self.d, self.init_faces)

    def constraint_cycles(self) -> List[ConstraintCycle]:
        return [ConstraintCycle(kind=kind, points=pts)
                for kind, pts in self.constraints]

    def region_box(self) -> Optional[Region]:
        if self.region is None:
            return None
        return Region(lo=self.region[0], hi=self.region[1])


def generate_faceset(name: str, K: Complex, d: int) -> FaceSet:
    """Expand a named generator on the grid complex K."""
    if K.grid is None:
        raise ProblemFormatError(["generators need a grid-built complex"])
    box = K.grid.box
    if name == "separating-row":
        if len(box) != 2 or d != 1:
            raise ProblemFormatError(
                ["separating-row needs n=2, d=1"])
        m = box[1] // 2
        return FaceSet(K, 1, Region((0, m), (box[0], m)).faces(K, 1))
    if name == "straight-path":
        if len(box) != 2 or d != 1:
            raise ProblemFormatError(["straight-path needs n=2, d=1"])
        return FaceSet(K, 1, Region((0, 0), (box[0], 0)).faces(K, 1))
    if name == "two-planes-orthogonal":
        if len(box) != 4 or d != 2:
            raise ProblemFormatError(["two-planes-orthogonal needs n=4, d=2"])
        # each plane is a lattice box with lo = hi on the axes it misses
        c = [b // 2 for b in box]
        p1 = Region((0, 0) + tuple(c[2:]), tuple(box[:2]) + tuple(c[2:]))
        p2 = Region(tuple(c[:2]) + (0, 0), tuple(c[:2]) + tuple(box[2:]))
        return FaceSet(K, 2, p1.faces(K, 2) + p2.faces(K, 2))
    raise ProblemFormatError([f"unknown generator '{name}'"])


def linking_loops(box: Sequence[int]) -> List[ConstraintCycle]:
    """The two loops linking the coordinate 2-planes of a 4D box.

    Each loop is a lattice rectangle around one plane, living in the pair of
    coordinates the plane misses, placed at a corner of the other pair.
    """
    def rect(ax_a: int, ax_b: int) -> ConstraintCycle:
        la, lb = box[ax_a], box[ax_b]
        pts = ([(t, 0) for t in range(la)] + [(la, t) for t in range(lb)]
               + [(t, lb) for t in range(la, 0, -1)]
               + [(0, t) for t in range(lb, 0, -1)])
        out = []
        for a, b in pts:
            p = [0, 0, 0, 0]  # the other pair's corner (0, 0)
            p[ax_a], p[ax_b] = a, b
            out.append(tuple(p))
        return ConstraintCycle(kind="loop", points=tuple(out))

    # loop around the plane x3=x4=center lives in the (x3, x4) coordinates
    return [rect(2, 3), rect(0, 1)]


# ---------------------------------------------------------------------------
# parsing / serialization


def _parse_points(arg: str, n: int, lineno: int, errors: List[str]):
    pts = []
    for chunk in arg.split(";"):
        words = chunk.split()
        if not words:
            errors.append(f"line {lineno}: empty point")
            continue
        try:
            coords = tuple(int(w) for w in words)
        except ValueError:
            errors.append(f"line {lineno}: non-integer coordinate in "
                          f"'{chunk.strip()}'")
            continue
        if n and len(coords) != n:
            errors.append(f"line {lineno}: point has {len(coords)} "
                          f"coordinates, expected {n}")
            continue
        pts.append(coords)
    return tuple(pts)


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file, collecting every violation before failing."""
    errors: List[str] = []
    fields: Dict[str, object] = {}
    table: List[Tuple[int, float]] = []
    table_lines: List[int] = []
    constraints: List[Tuple[str, Tuple[Tuple[int, ...], ...]]] = []

    lines = text.splitlines()
    # first pass for n so point arity can be checked in line order
    n_guess = 0
    for raw in lines:
        w = raw.split("#", 1)[0].split()
        if len(w) >= 2 and w[0] == "n":
            try:
                n_guess = int(w[1])
            except ValueError:
                pass
            break

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, arg = line.partition(" ")
        arg = arg.strip()
        try:
            if key == "n":
                fields["n"] = int(arg)
            elif key == "d":
                fields["d"] = int(arg)
            elif key == "box":
                fields["box"] = tuple(int(w) for w in arg.split())
            elif key == "scale":
                fields["scale"] = float(arg)
            elif key == "weight":
                kind, _, val = arg.partition(" ")
                if kind not in ("constant", "table"):
                    errors.append(f"line {lineno}: weight kind must be "
                                  "'constant' or 'table'")
                    continue
                fields["weight_kind"] = kind
                fields["weight_value"] = float(val) if val else 1.0
            elif key == "w":
                idx, val = arg.split()
                table.append((int(idx), float(val)))
                table_lines.append(lineno)
            elif key == "M":
                fields["weight_upper"] = float(arg)
            elif key == "init":
                kind, _, rest = arg.partition(" ")
                if kind == "faces":
                    fields["init_kind"] = "faces"
                    fields["init_faces"] = tuple(int(w) for w in rest.split())
                elif kind == "generator":
                    fields["init_kind"] = "generator"
                    fields["generator"] = rest.strip()
                else:
                    errors.append(f"line {lineno}: init must be 'faces' or "
                                  "'generator'")
            elif key == "constraint":
                kind, _, rest = arg.partition(" ")
                if kind not in ("point-pair", "loop"):
                    errors.append(f"line {lineno}: unknown constraint kind "
                                  f"'{kind}'")
                    continue
                pts = _parse_points(rest, n_guess, lineno, errors)
                constraints.append((kind, pts))
            elif key == "region":
                pts = _parse_points(arg, n_guess, lineno, errors)
                if len(pts) != 2:
                    errors.append(f"line {lineno}: region needs 'lo ; hi'")
                else:
                    fields["region"] = (pts[0], pts[1])
            elif key == "seed":
                fields["seed"] = int(arg)
            elif key == "budget":
                fields["budget"] = int(arg)
            else:
                errors.append(f"line {lineno}: unknown key '{key}'")
        except ValueError:
            errors.append(f"line {lineno}: malformed value for '{key}'")

    # semantic validation
    n = fields.get("n")
    d = fields.get("d")
    if n is None:
        errors.append("missing required key 'n'")
    if d is None:
        errors.append("missing required key 'd'")
    if "box" not in fields:
        errors.append("missing required key 'box'")
    if n is not None and not 1 <= n <= 4:
        errors.append(f"ambient dimension n={n} outside 1..4")
    if n is not None and d is not None and not 0 < d < n:
        errors.append("cell dimension must be below ambient "
                      f"(got d={d}, n={n})")
    box = fields.get("box")
    if box is not None:
        if n is not None and len(box) != n:
            errors.append(f"box has {len(box)} axes, expected n={n}")
        if any(b < 1 for b in box):
            errors.append("box axes must be positive")
    if fields.get("scale", 1.0) <= 0:
        errors.append("scale must be positive")
    if fields.get("weight_kind") != "table":
        errors.extend(f"line {lineno}: 'w' needs 'weight table'"
                      for lineno in table_lines)
    upper = fields.get("weight_upper", 100.0)
    wval = fields.get("weight_value", 1.0)
    for value in [wval] + [v for _, v in table]:
        if not 1.0 <= value <= upper:
            errors.append(f"weight value {value} violates the bound "
                          f"1 <= h <= M (M={upper})")
    gen = fields.get("generator", "")
    if fields.get("init_kind") == "generator" and gen not in GENERATORS:
        errors.append(f"unknown generator '{gen}' "
                      f"(known: {', '.join(GENERATORS)})")
    if fields.get("budget", 10000) < 0:
        errors.append("budget must be nonnegative")

    if errors:
        raise ProblemFormatError(errors)
    fields["weight_table"] = tuple(table)
    fields["constraints"] = tuple(constraints)
    return ProblemSpec(**fields)  # type: ignore[arg-type]


def serialize_problem(spec: ProblemSpec) -> str:
    """Render a spec back to problem-file text; parse round-trips exactly."""
    out = [f"n {spec.n}", f"d {spec.d}",
           "box " + " ".join(str(b) for b in spec.box),
           f"scale {spec.scale!r}",
           f"weight {spec.weight_kind} {spec.weight_value!r}"]
    for idx, val in spec.weight_table:
        out.append(f"w {idx} {val!r}")
    out.append(f"M {spec.weight_upper!r}")
    if spec.init_kind == "generator":
        out.append(f"init generator {spec.generator}")
    else:
        out.append("init faces " + " ".join(str(i) for i in spec.init_faces))
    for kind, pts in spec.constraints:
        body = " ; ".join(" ".join(str(c) for c in p) for p in pts)
        out.append(f"constraint {kind} {body}")
    if spec.region is not None:
        lo, hi = spec.region
        out.append("region " + " ".join(str(c) for c in lo) + " ; "
                   + " ".join(str(c) for c in hi))
    out.append(f"seed {spec.seed}")
    out.append(f"budget {spec.budget}")
    return "\n".join(out) + "\n"
