"""CLI subcommands: reports, exit codes, determinism, exports."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spanmin import build_grid_complex, generate_faceset, linking_loops
from spanmin.cli import main

SEPARATION = """\
n 2
d 1
box 2 2
init generator separating-row
constraint point-pair 1 0 ; 1 2
"""

GAPPED = """\
n 2
d 1
box 2 2
init faces 4
constraint point-pair 1 0 ; 1 2
"""


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="problem.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_time(report: str) -> str:
    return "\n".join(l for l in report.splitlines()
                     if not l.startswith("time:"))


def test_homology_report(problem_file, capsys):
    code, out, _ = run_cli(capsys, ["homology", "--input",
                                    problem_file(SEPARATION)])
    assert code == 0
    assert "command: homology" in out
    assert "h0_rank: 2" in out  # separating row splits the box


def test_check_pass(problem_file, capsys):
    code, out, _ = run_cli(capsys, ["check", "--input",
                                    problem_file(SEPARATION)])
    assert code == 0
    assert "spanning: yes" in out
    assert "pass (nontrivial)" in out


def test_check_fail_exit_2(problem_file, capsys):
    code, out, _ = run_cli(capsys, ["check", "--input",
                                    problem_file(GAPPED)])
    assert code == 2
    assert "spanning: no" in out


def test_solve_exhaustive_optimum(problem_file, capsys):
    code, out, _ = run_cli(capsys, ["solve", "--input",
                                    problem_file(SEPARATION)])
    assert code == 0
    assert "status: ok" in out
    assert "objective: 2" in out
    assert "certificate_method: exhaustive" in out


LOCAL_ROUTE = """\
n 2
d 1
box 3 3
init generator separating-row
constraint point-pair 2 0 ; 1 3
region 0 0 ; 3 3
seed 3
"""


def test_solve_local_route_report_pinned(problem_file, capsys):
    # the region holds all 33 edges, above the exhaustive cap of 30, so
    # the report is the local search's; it stops once its set costs the
    # cut bound, 1 + sqrt(2), long before its budget of 10,000
    code, out, _ = run_cli(capsys, ["solve", "--input",
                                    problem_file(LOCAL_ROUTE)])
    assert code == 0
    assert strip_time(out) == "\n".join([
        "command: solve", "n: 2", "d: 1", "box: 3 3", "seed: 3",
        "status: ok", "objective: 2.41421356237", "faces: 12 24",
        "certificate_lower_bound: 2.414213562373095",
        "certificate_method: local", "evaluations: 73"])


BAND = """\
n 2
d 1
box 4 4
init faces 3 7 18 20 23 31 33 34 43 44 46 49
constraint point-pair 2 0 ; 2 4
seed 534836507
"""


def test_solve_falls_back_to_local_past_evaluation_cap(problem_file, capsys,
                                                       monkeypatch):
    # the 12-face pool goes to the exhaustive search, which finds its
    # optimum at the 81st predicate call; past a cap of 50 calls the local
    # search answers (its trajectory is pinned in test_solver), unless the
    # exhaustive search was asked for
    import spanmin.solver as solver
    monkeypatch.setattr(solver, "EXHAUSTIVE_EVALUATION_CAP", 50)
    path = problem_file(BAND)
    code, out, err = run_cli(capsys, ["solve", "--input", path,
                                      "--budget", "10000"])
    assert (code, err) == (0, "")
    assert strip_time(out).splitlines()[5:] == [
        "status: ok", "objective: 4", "faces: 7 20 33 46",
        "certificate_lower_bound: 4.0", "certificate_method: local",
        "evaluations: 19"]
    code, out, err = run_cli(capsys, ["solve", "--input", path,
                                      "--exhaustive"])
    assert (code, out) == (1, "")
    assert "exhaustive search passed 50 evaluations" in err


SEPARATION_REPORT = ["command: solve", "n: 2", "d: 1", "box: 2 2", "seed: 0",
                     "status: ok", "objective: 2", "faces: 4 11",
                     "certificate_lower_bound: 2.0",
                     "certificate_method: exhaustive"]


def test_solve_writes_artifacts_pinned(problem_file, tmp_path, capsys):
    mesh, csv = tmp_path / "out.mesh", tmp_path / "out.csv"
    code, out, err = run_cli(capsys, [
        "solve", "--input", problem_file(SEPARATION),
        "--mesh-out", str(mesh), "--csv-out", str(csv)])
    assert (code, err) == (0, "")
    assert strip_time(out).splitlines() == SEPARATION_REPORT + [
        "evaluations: 4"]
    assert mesh.read_text() == "2 1\n0 0 1\n1 1 1\n2 2 1\n0 1\n1 2\n"
    assert csv.read_text() == (
        "index,kind,degree,verdict,reason,homology_rank\n"
        "0,point-pair,0,pass,nontrivial,2\n")


def test_solve_whole_complex_pool_pinned(problem_file, capsys):
    # no init faces and no region: the pool is all 16 edges of the box
    text = "n 2\nd 1\nbox 2 2\nconstraint point-pair 1 0 ; 1 2\n"
    code, out, err = run_cli(capsys, ["solve", "--input",
                                      problem_file(text)])
    assert (code, err) == (0, "")
    assert strip_time(out).splitlines() == SEPARATION_REPORT + [
        "evaluations: 28"]


def test_solve_infeasible_exit_2(problem_file, capsys):
    # neither the edge x1 = 1 of the initial set nor the region's wall
    # x0 = 2 separates the pair, nor do they together
    text = "n 2\nd 1\nbox 2 2\ninit faces 4\n" \
           "constraint point-pair 1 0 ; 1 2\nregion 2 0 ; 2 2\n"
    code, out, _ = run_cli(capsys, ["solve", "--input", problem_file(text)])
    assert code == 2
    assert strip_time(out).splitlines()[5:] == [
        "status: infeasible",
        "detail: no subset of the candidate pool satisfies the constraints"]


def test_solve_pool_holds_the_initial_set(problem_file, capsys):
    # the region 0 <= x0 <= 2 cannot separate the pair across the box, but
    # the initial row y = 2 does: both searches search the region's faces
    # and the initial set, so the exhaustive search finds the row
    text = ("n 2\nd 1\nbox 4 4\ninit generator separating-row\n"
            "constraint point-pair 2 0 ; 2 4\nregion 0 1 ; 2 3\n")
    path = problem_file(text)
    code, out, _ = run_cli(capsys, ["check", "--input", path])
    assert (code, "spanning: yes" in out) == (0, True)
    code, out, err = run_cli(capsys, ["solve", "--input", path])
    assert (code, err) == (0, "")
    assert strip_time(out) == "\n".join([
        "command: solve", "n: 2", "d: 1", "box: 4 4", "seed: 0",
        "status: ok", "objective: 4", "faces: 7 20 33 46",
        "certificate_lower_bound: 4.0", "certificate_method: exhaustive",
        "evaluations: 2517"])


SLAB = """\
n 3
d 2
box 3 3 3
init faces
constraint point-pair 0 1 1 ; 3 1 1
region {}
budget 5
"""


def test_solve_starts_from_a_spanning_region_pool(problem_file, capsys):
    # the empty initial set does not span; the 138-face pool of the slab
    # 1 <= x0 <= 2 does (it holds the plane x0 = 1, of area 9), so the
    # local search starts from the whole pool, of area 80.18; the cut
    # bound is the plane's area
    code, out, err = run_cli(capsys, ["solve", "--input", problem_file(
        SLAB.format("1 0 0 ; 2 3 3"))])
    assert (code, err) == (0, "")
    assert strip_time(out).splitlines()[5:] == [
        "status: ok", "objective: 73.1126983722", "faces: " + (
        "120 121 123 124 127 128 132 133 135 136 139 140 142 143 144 "
        "145 146 147 148 149 150 151 152 153 154 155 156 157 158 159 "
        "160 161 162 163 164 165 166 167 168 169 170 171 172 173 174 "
        "175 176 177 178 179 180 181 182 183 184 185 186 187 188 189 "
        "190 191 192 193 194 195 196 197 198 199 200 201 202 203 204 "
        "205 206 207 208 209 210 211 212 213 214 215 216 217 218 219 "
        "220 221 222 223 224 225 226 227 228 229 230 231 232 233 234 "
        "235 236 237 238 239 240 243 252 255 264 267 278 281 290 293 "
        "302 305 316 319 328 331 340 343"),
        "certificate_lower_bound: 9.0", "certificate_method: local",
        "evaluations: 5"]


def test_solve_infeasible_when_neither_init_nor_pool_spans(problem_file,
                                                          capsys):
    # the 138-face slab 2 <= x1 <= 3 misses the pair's line and does not
    # separate it
    code, out, _ = run_cli(capsys, ["solve", "--input", problem_file(
        SLAB.format("0 2 0 ; 3 3 3"))])
    assert code == 2
    assert strip_time(out).splitlines()[5:] == [
        "status: infeasible",
        "detail: initial face set violates the constraints"]


# `lemmas` reports, pinned without the `time:` line
LEMMA_REPORTS = {
    # coordinate frames: the exact constant 1, attained by e12
    "orthogonal": [
        "command: lemmas", "pair: orthogonal", "alpha1: 1.57079632679",
        "alpha2: 1.57079632679", "bound: 1", "attained: 1", "margin: 0",
        "holds: yes"],
    # 2 cos(0.175) cos(0.525) rounded upward by its 3e-12 slack, and the
    # sum of its maximizer: sound (attained <= bound) and sharp
    "0.35,1.05": [
        "command: lemmas", "pair: 0.35,1.05", "alpha1: 0.35", "alpha2: 1.05",
        "bound: 1.70421490013", "attained: 1.70421490013", "margin: 3e-12",
        "holds: yes"],
}


def lemma_report(capsys, argv):
    code, out, err = run_cli(capsys, ["lemmas"] + argv)
    assert (code, err) == (0, "")
    return strip_time(out).splitlines()


def test_lemmas_orthogonal(capsys):
    assert lemma_report(capsys, ["--pair", "orthogonal"]) == LEMMA_REPORTS[
        "orthogonal"]


def test_lemmas_angle_pair_report_pinned(capsys):
    assert lemma_report(capsys, ["--pair", "0.35,1.05"]) == LEMMA_REPORTS[
        "0.35,1.05"]


@pytest.mark.parametrize("pair, lines", list(LEMMA_REPORTS.items()))
def test_lemmas_multi_chunk_report_pinned(capsys, pair, lines):
    # --samples and --seed are accepted and read by nothing: the command
    # line that once sampled four chunks (200,000 samples, seed 7), and
    # any other values, give the pinned report
    for flags in (["--samples", "200000", "--seed", "7"],
                  ["--samples", "0", "--seed", "-3"]):
        assert lemma_report(capsys, ["--pair", pair] + flags) == lines


def test_lemmas_draws_no_random_number(monkeypatch, capsys):
    def no_rng(*args, **kwargs):
        raise AssertionError("lemmas drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for pair in ("orthogonal", "0.35,1.05"):
        code, out, err = run_cli(capsys, ["lemmas", "--pair", pair,
                                          "--samples", "5000", "--seed", "3"])
        assert (code, err) == (0, "")
        assert "holds: yes" in out


def test_lemmas_bad_pair_flag(capsys):
    code, out, err = run_cli(capsys, ["lemmas", "--pair", "nonsense"])
    assert code == 1
    assert "theta,phi" in err


@pytest.mark.parametrize("argv", [
    ["lemmas", "--exhaustive"],
    ["lemmas", "--input", "problem.txt"],
    ["check", "--input", "problem.txt", "--budget", "5"],
    ["homology", "--input", "problem.txt", "--csv-out", "out.csv"],
    ["export", "--input", "problem.txt", "--exhaustive"],
])
def test_unread_flags_rejected(argv, capsys):
    # each subcommand takes only the flags it reads; the one exception is
    # `lemmas --samples --seed`, kept while the benchmark passes them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_negative_budget_rejected(problem_file, capsys):
    # in the problem file and on the command line alike, before any search
    for text, flags in ((SEPARATION + "budget -5\n", []),
                        (SEPARATION, ["--budget", "-5"])):
        code, out, err = run_cli(capsys, ["solve", "--input",
                                          problem_file(text)] + flags)
        assert (code, out, err) == (1, "",
                                    "error: budget must be nonnegative\n")


def test_parse_errors_reported(problem_file, capsys):
    code, out, err = run_cli(capsys, ["check", "--input",
                                      problem_file("n 9\nd 9\n")])
    assert code == 1
    assert err.count("error:") >= 2


def test_solve_rejects_weight_lines_off_the_faces(problem_file, capsys):
    # a `w` line names a face by index, so an index the box does not have
    # fails as an `init faces` index does, instead of weighing nothing
    table = SEPARATION + "weight table 1.0\n"
    for line in ("w 999 2.0", "w -1 2.0", "init faces 999"):
        code, out, err = run_cli(capsys, ["solve", "--input",
                                          problem_file(table + line + "\n")])
        index = line.split()[-2 if line.startswith("w") else -1]
        assert (code, out, err) == (
            1, "", f"error: face index {index} out of range\n")
    code, out, _ = run_cli(capsys, ["solve", "--input",
                                    problem_file(table + "w 0 2.0\n")])
    assert code == 0 and "status: ok" in out


def test_missing_input_flag(capsys):
    code, _, err = run_cli(capsys, ["check"])
    assert code == 1
    assert "--input" in err


def test_export_mesh_and_csv(problem_file, tmp_path, capsys):
    mesh = tmp_path / "out.mesh"
    csv = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, [
        "export", "--input", problem_file(SEPARATION),
        "--mesh-out", str(mesh), "--csv-out", str(csv)])
    assert code == 0
    lines = mesh.read_text().splitlines()
    assert lines[0] == "2 1"
    # vertex lines have id + n coords; face lines have d+1 vertex ids
    n_vertices = sum(1 for l in lines[1:] if len(l.split()) == 3)
    n_faces = sum(1 for l in lines[1:] if len(l.split()) == 2)
    assert n_vertices == 3 and n_faces == 2
    rows = csv.read_text().splitlines()
    assert rows[0] == "index,kind,degree,verdict,reason,homology_rank"
    assert rows[1].startswith("0,point-pair,0,pass")


def test_export_empty_faceset(problem_file, tmp_path, capsys):
    text = "n 2\nd 1\nbox 2 2\ninit faces\n"
    mesh = tmp_path / "empty.mesh"
    code, out, _ = run_cli(capsys, [
        "export", "--input", problem_file(text), "--mesh-out", str(mesh)])
    assert code == 0
    assert mesh.read_text().strip() == "2 1"  # header only, no faces


def test_reports_deterministic(problem_file, capsys):
    path = problem_file(SEPARATION)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["solve", "--input", path,
                                        "--seed", "5"])
        assert code == 0
        outs.append(strip_time(out))
    assert outs[0] == outs[1]
    assert not re.search(r"^time:", outs[0], re.M)


def test_seed_override_in_report(problem_file, capsys):
    code, out, _ = run_cli(capsys, ["check", "--input",
                                    problem_file(SEPARATION), "--seed", "42"])
    assert code == 0
    assert "seed: 42" in out


LINKED_PLANES = """\
n 4
d 2
box 2 2 2 2
init generator two-planes-orthogonal
constraint loop 0 0 0 0 ; 0 0 1 0 ; 0 0 2 0 ; 0 0 2 1 ; 0 0 2 2 ; 0 0 1 2 ; 0 0 0 2 ; 0 0 0 1
constraint loop 0 0 0 0 ; 1 0 0 0 ; 2 0 0 0 ; 2 1 0 0 ; 2 2 0 0 ; 1 2 0 0 ; 0 2 0 0 ; 0 1 0 0
constraint point-pair 0 0 0 0 ; 2 2 2 2
"""


def test_export_csv_from_one_model(problem_file, tmp_path, capsys,
                                   monkeypatch):
    from spanmin.complement import ComplementModel
    built = []
    init = ComplementModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComplementModel, "__init__", counted)
    csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, ["export", "--input",
                                  problem_file(LINKED_PLANES),
                                  "--csv-out", str(csv)])
    assert code == 0 and len(built) == 1
    assert csv.read_text() == (
        "index,kind,degree,verdict,reason,homology_rank\n"
        "0,loop,1,pass,nontrivial,2\n"
        "1,loop,1,pass,nontrivial,2\n"
        "2,point-pair,0,fail,null-homologous,1\n")


LINKING_LOOPS_2222 = """\
constraint loop 0 0 0 0 ; 0 0 1 0 ; 0 0 2 0 ; 0 0 2 1 ; 0 0 2 2 ; 0 0 1 2 ; 0 0 0 2 ; 0 0 0 1
constraint loop 0 0 0 0 ; 1 0 0 0 ; 2 0 0 0 ; 2 1 0 0 ; 2 2 0 0 ; 1 2 0 0 ; 0 2 0 0 ; 0 1 0 0
"""
# the benchmark's 2^4 check files: two planes plus six seeded faces that
# miss both loops, the plane x3 = x4 = 1, and the empty set
LINK4D_FACES = {
    "two_planes_clutter": "182 196 333 406 432 446 544 738 752 806 813 856 "
                          "863 918 925 940 968 975 988 1002 1180 1219",
    "plane_x3x4": "182 196 432 446 738 752 988 1002",
    "empty": "",
}
LINK4D_VERDICTS = {
    "two_planes_clutter": ("pass (nontrivial)", "pass (nontrivial)", "yes", 0),
    "plane_x3x4": ("pass (nontrivial)", "fail (null-homologous)", "no", 2),
    "empty": ("fail (null-homologous)", "fail (null-homologous)", "no", 2),
}
HEADER_2222 = ["n: 4", "d: 2", "box: 2 2 2 2", "seed: 0"]


@pytest.mark.parametrize("stem", sorted(LINK4D_FACES))
def test_link4d_check_reports_pinned(stem, problem_file, capsys):
    # report lines (without time:) as the whole-box relative-cochain path
    # printed them
    faces = LINK4D_FACES[stem]
    text = ("n 4\nd 2\nbox 2 2 2 2\ninit faces " + faces + "\n"
            + LINKING_LOOPS_2222)
    first, second, spanning, exit_code = LINK4D_VERDICTS[stem]
    code, out, err = run_cli(capsys, ["check", "--input",
                                      problem_file(text)])
    assert (code, err) == (exit_code, "")
    assert strip_time(out).splitlines() == (
        ["command: check"] + HEADER_2222 + [
            f"faces: {faces or '-'}",
            f"constraint_0: loop degree=1 {first}",
            f"constraint_1: loop degree=1 {second}",
            f"spanning: {spanning}"])


def clutter_faces(seed):
    """The benchmark's 2^4 clutter pool for a seed: the two orthogonal
    planes plus six seeded faces that share no vertex with the loops."""
    K = build_grid_complex(4, [2] * 4)
    on_loops = {K.grid.vertex_at(p) for c in linking_loops((2, 2, 2, 2))
                for p in c.points}
    two = generate_faceset("two-planes-orthogonal", K, 2).faces
    candidates = [i for i, s in enumerate(K.simplices(2))
                  if i not in two and not on_loops & set(s)]
    return " ".join(map(str, sorted(
        two + tuple(random.Random(seed).sample(candidates, 6)))))


def test_clutter_pool_is_the_pinned_check_file():
    assert clutter_faces(1) == LINK4D_FACES["two_planes_clutter"]


@pytest.mark.parametrize("seed,evaluations", [(1, 213), (7919, 454)],
                         ids=["seed1", "seed7919"])
def test_solve_exhaustive_clutter_reports_pinned(seed, evaluations,
                                                 problem_file, capsys):
    # the two planes are the optimum of the 22-face pool; the tail test
    # keeps the heap to subsets that can still span (100 and 212 pops),
    # where the unpruned heap passed 100,000 pops
    text = ("n 4\nd 2\nbox 2 2 2 2\ninit faces " + clutter_faces(seed)
            + "\n" + LINKING_LOOPS_2222)
    code, out, err = run_cli(capsys, ["solve", "--input", problem_file(text),
                                      "--exhaustive"])
    assert (code, err) == (0, "")
    assert strip_time(out).splitlines() == ["command: solve"] + HEADER_2222 + [
        "status: ok", "objective: 8",
        "faces: 182 196 432 446 738 752 806 813 856 863 918 925 968 975 "
        "988 1002",
        "certificate_lower_bound: 8.0", "certificate_method: exhaustive",
        f"evaluations: {evaluations}"]


def test_link4d_homology_report_pinned(problem_file, capsys):
    code, out, err = run_cli(capsys, ["homology", "--input",
                                      problem_file(LINKED_PLANES)])
    assert (code, err) == (0, "")
    assert strip_time(out).splitlines() == (
        ["command: homology"] + HEADER_2222 + [
            "faces: 182 196 432 446 738 752 806 813 856 863 918 925 968 975 "
            "988 1002",
            "h0_rank: 1", "h0_torsion: -", "h1_rank: 2", "h1_torsion: -"])


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; a stray scipy import would pass
    # every other test on a machine that happens to have scipy
    code = ("import sys, spanmin, spanmin.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
