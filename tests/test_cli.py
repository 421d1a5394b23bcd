import decimal
import hashlib
import io
import json
import sys

import pytest

from dcjsort.cli import main
from conftest import GENOME_A_TEXT, GENOME_B_TEXT


@pytest.fixture
def genome_file(tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text(f">A\n{GENOME_A_TEXT}\n>B\n{GENOME_B_TEXT}\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance(genome_file, capsys):
    code, out, _ = run(capsys, "distance", genome_file)
    assert code == 0
    assert out == "N=7 C=1 K=2 d=4; cycles: [10]\n"


def test_distance_json(genome_file, capsys):
    code, out, _ = run(capsys, "distance", "--json", genome_file)
    assert code == 0
    assert json.loads(out) == {"N": 7, "C": 1, "K": 2, "d": 4, "cycles": [10]}


def test_count(genome_file, capsys):
    code, out, _ = run(capsys, "count", genome_file)
    assert code == 0
    assert out == "125\n"


def test_sample_parking_reproducible(genome_file, capsys):
    code, first, _ = run(capsys, "sample", genome_file, "--seed", "7", "--num", "3", "--format", "parking")
    assert code == 0
    lines = first.strip().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 4 for line in lines)
    code, second, _ = run(capsys, "sample", genome_file, "--seed", "7", "--num", "3", "--format", "parking")
    assert first == second


def test_sample_num_zero(genome_file, capsys):
    code, out, _ = run(capsys, "sample", genome_file, "--num", "0")
    assert code == 0
    assert out == ""


def test_sample_dcj_format(genome_file, capsys):
    code, out, _ = run(capsys, "sample", genome_file, "--seed", "1", "--format", "dcj")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("cut ") and " form " in line for line in lines)


def test_sample_json_format(genome_file, capsys):
    code, out, _ = run(capsys, "sample", genome_file, "--seed", "1", "--format", "json")
    assert code == 0
    steps = json.loads(out)
    assert len(steps) == 4
    assert {"cycle", "base", "top", "partner", "dcj"} <= steps[0].keys()
    assert len(steps[0]["dcj"]["cut"]) == 2


def test_convert_parking_to_tree(capsys, tmp_path):
    path = tmp_path / "pf.txt"
    path.write_text("4 8 1 2 2 3 2 4\n")
    code, out, _ = run(capsys, "convert", "--from", "parking", "--to", "tree", str(path))
    assert code == 0
    assert out.splitlines() == ["9", "0 3", "1 6", "2 7", "3 4", "3 5", "3 7", "4 6", "6 8"]


def test_convert_tree_back_to_parking(capsys, tmp_path, monkeypatch):
    tree_text = "9\n0 3\n1 6\n2 7\n3 4\n3 5\n3 7\n4 6\n6 8\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(tree_text))
    code, out, _ = run(capsys, "convert", "--from", "tree", "--to", "parking")
    assert code == 0
    assert out.strip() == "4 8 1 2 2 3 2 4"


def test_convert_fissions_round_trip(capsys, tmp_path):
    path = tmp_path / "pf.txt"
    path.write_text("4 8 1 2 2 3 2 4\n")
    code, fissions_text, _ = run(capsys, "convert", "--from", "parking", "--to", "fissions", str(path))
    assert code == 0
    path2 = tmp_path / "steps.txt"
    path2.write_text(fissions_text)
    code, out, _ = run(capsys, "convert", "--from", "fissions", "--to", "parking", str(path2))
    assert code == 0
    assert out.strip() == "4 8 1 2 2 3 2 4"


def test_convert_to_dot(capsys, tmp_path):
    path = tmp_path / "pf.txt"
    path.write_text("1\n")
    code, out, _ = run(capsys, "convert", "--from", "parking", "--to", "dot", str(path))
    assert code == 0
    assert "0 -- 1;" in out


def test_emitted_formats_agree(genome_file, capsys, tmp_path):
    code, parking_out, _ = run(capsys, "sample", genome_file, "--seed", "5", "--format", "parking")
    code, fission_out, _ = run(capsys, "sample", genome_file, "--seed", "5", "--format", "fissions")
    path = tmp_path / "steps.txt"
    path.write_text(fission_out)
    code, converted, _ = run(capsys, "convert", "--from", "fissions", "--to", "parking", str(path))
    assert converted == parking_out


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out.strip().splitlines() == ["1 1", "1 2", "2 1"]


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--num", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_enumerate_guard_is_domain_error(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9")
    assert code == 1
    assert "guard" in err


def test_oracle_count(genome_file, capsys):
    code, out, _ = run(capsys, "oracle-count", genome_file)
    assert code == 0
    assert out == "125\n"


def test_tree_dot(capsys, tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("9\n3 7\n0 3\n6 8\n1 6\n3 4\n2 7\n4 6\n3 5\n")
    code, out, _ = run(capsys, "convert", "--from", "tree", "--to", "dot", str(path))
    assert code == 0
    assert out == (
        "graph scenario_tree {\n"
        "  0 -- 3;\n  1 -- 6;\n  2 -- 7;\n  3 -- 4;\n"
        "  3 -- 5;\n  3 -- 7;\n  4 -- 6;\n  6 -- 8;\n"
        "}\n"
    )


def test_not_co_tailed_exits_1(capsys, tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text(">A\n(a b)\n(c)\n>B\n(a b c)\n")
    code, _, err = run(capsys, "distance", str(path))
    assert code == 1
    assert "co-tailed" in err


def test_genome_syntax_error_exits_2(capsys, tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text(">A\n(a b\n>B\n(a b)\n")
    code, _, err = run(capsys, "distance", str(path))
    assert code == 2
    assert "line 2" in err


def test_invalid_parking_function_exits_1(capsys, tmp_path):
    path = tmp_path / "pf.txt"
    path.write_text("3 3\n")
    code, _, err = run(capsys, "convert", "--from", "parking", "--to", "tree", str(path))
    assert code == 1
    assert "parking" in err


def test_malformed_parking_text_exits_2(capsys, tmp_path):
    path = tmp_path / "pf.txt"
    path.write_text("4 eight\n")
    code, _, err = run(capsys, "convert", "--from", "parking", "--to", "tree", str(path))
    assert code == 2


def test_unreadable_path_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "distance", str(tmp_path / "missing.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("dcjsort: error: cannot read ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["sample", "enumerate"])
def test_negative_num_exits_2(capsys, genome_file, command):
    argv = [command, genome_file] if command == "sample" else [command, "--n", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--num", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--num" in out.err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_nonpositive_n_exits_2(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", n])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--n" in out.err


# B is (1..41); A shuffles and re-signs ten disjoint 3-block windows of B,
# each followed by one fixed block, like perfbench's windows_pair: 17 cycles
WINDOWS_A_TEXT = (
    "(1 2 4 -3 5 -6 7 -8 9 -11 -10 -12 13 -16 -14 15 17 20 -18 19 21 "
    "24 22 23 25 27 -26 -28 29 31 32 30 33 35 -34 36 37 40 38 39 41)"
)
WINDOWS_B_TEXT = "(" + " ".join(str(i) for i in range(1, 42)) + ")"

# the exact output for one seed: every sample draws its interleaving rank
# from the same stream as its trees, so a change to how interleave
# consumes the generator shifts every later sample
GOLDEN_SAMPLE_SEED7 = (
    "\n1 2\n\n1 3 2\n1 1 1\n2 1\n1 1\n\n2 1 1\n2 1\n\n1 1\n\n1 1\n\n1\n1\n\n1 2\n"
    "\n1 1 2\n1 3 1\n1 1\n2 1\n\n1 1 2\n2 1\n\n2 1\n\n2 1\n\n1\n1\n\n2 1\n"
    "\n3 1 1\n1 2 1\n2 1\n1 1\n\n3 1 2\n1 1\n\n2 1\n\n1 1\n\n1\n1\n"
)


def test_sample_seeded_stream_is_pinned(capsys, tmp_path):
    path = tmp_path / "windows.txt"
    path.write_text(f">A\n{WINDOWS_A_TEXT}\n>B\n{WINDOWS_B_TEXT}\n")
    code, out, _ = run(capsys, "distance", str(path))
    assert out == "N=41 C=17 K=1 d=23; cycles: [2, 6, 2, 8, 8, 6, 6, 2, 8, 6, 2, 6, 2, 6, 2, 4, 4]\n"
    code, out, _ = run(capsys, "sample", str(path), "--seed", "7", "--num", "3", "--format", "parking")
    assert code == 0
    assert out == GOLDEN_SAMPLE_SEED7


# sample --seed 7 --num 2 on the windows pair, recorded before the
# one-pass front end: a change in how cycles are found, where each starts
# or which way it is walked relabels the steps and shows here, while the
# parking golden above can stay the same
GOLDEN_DCJ_SEED7 = (
    "cut (26 -27) (-28 29) form (26 29) (27 28)\n"
    "cut (13 -16) (-14 15) form (13 14) (-15 -16)\n"
    "cut (-10 -12) (11 -9) form (-10 -9) (11 -12)\n"
    "cut (-30 -32) (30 33) form (30 30) (32 33)\n"
    "cut (21 24) (23 25) form (21 25) (23 24)\n"
    "cut (21 25) (-22 -24) form (21 22) (24 25)\n"
    "cut (11 -12) (-12 13) form (11 12) (12 13)\n"
    "cut (14 16) (-15 -16) form (14 15) (16 16)\n"
    "cut (17 20) (19 21) form (17 21) (19 20)\n"
    "cut (25 27) (26 29) form (25 29) (26 27)\n"
    "cut (33 35) (34 -35) form (33 -35) (34 35)\n"
    "cut (37 40) (39 41) form (37 41) (39 40)\n"
    "cut (37 41) (-38 -40) form (37 38) (40 41)\n"
    "cut (29 31) (30 30) form (29 30) (30 31)\n"
    "cut (17 21) (18 -20) form (17 -18) (20 21)\n"
    "cut (-3 5) (3 -4) form (3 3) (4 5)\n"
    "cut (17 -18) (-18 19) form (17 18) (18 19)\n"
    "cut (15 17) (16 16) form (15 16) (16 17)\n"
    "cut (5 -6) (-6 7) form (5 6) (6 7)\n"
    "cut (7 -8) (-8 9) form (7 8) (8 9)\n"
    "cut (2 4) (3 3) form (2 3) (3 4)\n"
    "cut (25 29) (-26 -28) form (25 26) (28 29)\n"
    "cut (33 -35) (-34 36) form (33 34) (35 36)\n"
    "\n"
    "cut (-10 -12) (11 -9) form (-10 -9) (11 -12)\n"
    "cut (-38 -40) (39 41) form (-38 -39) (40 41)\n"
    "cut (25 27) (-28 29) form (25 29) (-27 28)\n"
    "cut (37 40) (-38 -39) form (37 38) (39 40)\n"
    "cut (-22 -24) (23 25) form (-22 -23) (24 25)\n"
    "cut (21 24) (-22 -23) form (21 22) (23 24)\n"
    "cut (5 -6) (-6 7) form (5 6) (6 7)\n"
    "cut (13 -16) (14 16) form (13 -14) (16 16)\n"
    "cut (13 -14) (-14 15) form (13 14) (14 15)\n"
    "cut (2 4) (3 -4) form (2 -4) (3 4)\n"
    "cut (-30 -32) (30 33) form (30 30) (32 33)\n"
    "cut (17 20) (19 21) form (17 21) (19 20)\n"
    "cut (-34 36) (34 -35) form (34 34) (35 36)\n"
    "cut (-18 19) (18 -20) form (-18 -20) (18 19)\n"
    "cut (17 21) (-18 -20) form (17 18) (20 21)\n"
    "cut (11 -12) (-12 13) form (11 12) (12 13)\n"
    "cut (25 29) (-26 -28) form (25 26) (28 29)\n"
    "cut (33 35) (34 34) form (33 34) (34 35)\n"
    "cut (2 -4) (-3 5) form (2 3) (4 5)\n"
    "cut (15 17) (16 16) form (15 16) (16 17)\n"
    "cut (26 -27) (-27 28) form (26 27) (27 28)\n"
    "cut (7 -8) (-8 9) form (7 8) (8 9)\n"
    "cut (29 31) (30 30) form (29 30) (30 31)\n"
)
GOLDEN_JSON_SEED7_SHA256 = "07d210e706bda44f8e6aca75711b038b2b09953967e4cbf917b236bf8cfda21c"
# (cycle, base, top, partner) of every step of the two samples
GOLDEN_JSON_SEED7_STEPS = [
    [
        (8, 2, 3, 3), (3, 1, 4, 2), (1, 1, 3, 2), (9, 2, 3, 3), (6, 1, 2, 2), (6, 1, 3, 3),
        (1, 2, 3, 3), (3, 3, 4, 4), (4, 1, 2, 2), (8, 1, 2, 2), (11, 1, 2, 2), (13, 1, 2, 2),
        (13, 1, 3, 3), (9, 1, 2, 2), (4, 1, 3, 3), (5, 2, 3, 3), (4, 1, 4, 4), (3, 2, 3, 3),
        (15, 1, 2, 2), (16, 1, 2, 2), (5, 1, 2, 2), (8, 1, 4, 4), (11, 1, 3, 3),
    ],
    [
        (1, 1, 3, 2), (13, 2, 3, 3), (8, 1, 3, 2), (13, 1, 2, 2), (6, 2, 3, 3), (6, 1, 2, 2),
        (15, 1, 2, 2), (3, 1, 3, 2), (3, 1, 4, 4), (5, 1, 2, 2), (9, 2, 3, 3), (4, 1, 2, 2),
        (11, 2, 3, 3), (4, 3, 4, 4), (4, 1, 3, 3), (1, 2, 3, 3), (8, 1, 4, 4), (11, 1, 2, 2),
        (5, 1, 3, 3), (3, 2, 3, 3), (8, 2, 3, 3), (16, 1, 2, 2), (9, 1, 2, 2),
    ],
]
GOLDEN_DISTANCE_JSON = '{"N": 41, "C": 17, "K": 1, "d": 23, "cycles": [2, 6, 2, 8, 8, 6, 6, 2, 8, 6, 2, 6, 2, 6, 2, 4, 4]}\n'


def test_labeling_is_pinned(capsys, tmp_path):
    path = tmp_path / "windows.txt"
    path.write_text(f">A\n{WINDOWS_A_TEXT}\n>B\n{WINDOWS_B_TEXT}\n")
    code, out, _ = run(capsys, "distance", "--json", str(path))
    assert code == 0
    assert out == GOLDEN_DISTANCE_JSON
    code, dcj_out, _ = run(capsys, "sample", str(path), "--seed", "7", "--num", "2", "--format", "dcj")
    assert code == 0
    assert dcj_out == GOLDEN_DCJ_SEED7
    code, json_out, _ = run(capsys, "sample", str(path), "--seed", "7", "--num", "2", "--format", "json")
    assert code == 0
    samples = [json.loads(line) for line in json_out.splitlines()]
    assert [[(s["cycle"], s["base"], s["top"], s["partner"]) for s in sample] for sample in samples] == (
        GOLDEN_JSON_SEED7_STEPS
    )
    rendered = [
        "cut ({} {}) ({} {}) form ({} {}) ({} {})".format(*(x for adj in s["dcj"]["cut"] + s["dcj"]["form"] for x in adj))
        for s in samples[0] + samples[1]
    ]
    assert rendered == [line for line in dcj_out.splitlines() if line]
    assert hashlib.sha256(json_out.encode()).hexdigest() == GOLDEN_JSON_SEED7_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "parking"],
        ["--format", "tree"],
    ],
)
def test_sample_writers_do_not_revalidate(capsys, tmp_path, monkeypatch, argv):
    import dcjsort.fissions

    calls = []
    real = dcjsort.fissions.validate_scenario
    monkeypatch.setattr(dcjsort.fissions, "validate_scenario", lambda s: calls.append(s) or real(s))
    path = tmp_path / "windows.txt"
    path.write_text(f">A\n{WINDOWS_A_TEXT}\n>B\n{WINDOWS_B_TEXT}\n")
    code, out, _ = run(capsys, "sample", str(path), "--seed", "7", "--num", "3", *argv)
    assert code == 0
    assert out
    assert calls == []


def test_convert_invalid_fissions_still_rejected(capsys, tmp_path, monkeypatch):
    import dcjsort.fissions

    calls = []
    real = dcjsort.fissions.validate_scenario
    monkeypatch.setattr(dcjsort.fissions, "validate_scenario", lambda s: calls.append(s) or real(s))
    path = tmp_path / "steps.txt"
    path.write_text("5\n1 3\n1 2\n1 4\n2 5\n")
    for target in ("parking", "fissions", "tree", "dot"):
        code, out, err = run(capsys, "convert", "--from", "fissions", "--to", target, str(path))
        assert code == 1
        assert out == ""
        assert err == "dcjsort: error: invalid scenario: step 2: base 1 and top 2 lie in different cycles\n"
    assert len(calls) == 4


def test_count_beyond_int_str_digit_limit(capsys, tmp_path):
    # one 3000-edge cycle: 1498 sorting steps, 1499^1497 scenarios (4755 digits)
    blocks = [f"b{i}" for i in range(1500)]
    path = tmp_path / "big.txt"
    path.write_text(f">A\n[{' '.join(blocks)}]\n>B\n[{' '.join(blocks[0::2] + blocks[1::2])}]\n")
    limit = sys.get_int_max_str_digits()
    exact = decimal.Decimal(1499**1497)
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert len(out.strip()) == 4755
    assert decimal.Decimal(out) == exact
    code, out, _ = run(capsys, "count", "--json", str(path))
    assert code == 0
    assert json.loads(out, parse_int=decimal.Decimal) == {"count": exact}
    assert sys.get_int_max_str_digits() == limit


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--from", "parking"])
    assert exc.value.code == 2


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(f">A\n{GENOME_A_TEXT}\n>B\n{GENOME_B_TEXT}\n"))
    code, out, _ = run(capsys, "distance")
    assert code == 0
    assert "d=4" in out
