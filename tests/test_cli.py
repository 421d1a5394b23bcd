import contextlib
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import dcjsort.cli
from dcjsort import (
    DcjOp,
    adjacency,
    apply_dcj,
    build_adjacency_graph,
    dcj_distance,
    interleave,
    make_dcj,
    make_rng,
    sample_scenario,
    serialize_genome,
    signed_pair,
)
from dcjsort.cli import _build_parser, main
from conftest import GENOME_A_TEXT, GENOME_B_TEXT
from test_adjacency_graph import co_tailed_pairs

# environment for `python -m dcjsort` in a child process
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


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


@pytest.mark.parametrize("fmt", ["dcj", "json"])
def test_realization_reuses_the_graph_and_skips_validation(capsys, tmp_path, monkeypatch, fmt):
    import dcjsort.adjacency_graph
    import dcjsort.fissions

    validated, built = [], []
    real_validate = dcjsort.fissions.validate_scenario
    monkeypatch.setattr(dcjsort.fissions, "validate_scenario", lambda s: validated.append(s) or real_validate(s))
    graph_class = dcjsort.adjacency_graph.AdjacencyGraph
    real_init = graph_class.__init__
    monkeypatch.setattr(graph_class, "__init__", lambda self, a, b: built.append(a) or real_init(self, a, b))
    path = tmp_path / "windows.txt"
    path.write_text(f">A\n{WINDOWS_A_TEXT}\n>B\n{WINDOWS_B_TEXT}\n")
    code, out, _ = run(capsys, "sample", str(path), "--seed", "7", "--num", "3", "--format", fmt)
    assert code == 0
    assert len(out.split("\n\n" if fmt == "dcj" else "\n")) == 3 + (fmt == "json")
    assert len(built) == 1
    assert validated == []


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


def test_build_parser_is_cached():
    assert _build_parser() is _build_parser()


def test_commands_back_to_back_match_fresh_processes(capsys, genome_file, tmp_path):
    pf = tmp_path / "pf.txt"
    pf.write_text("4 8 1 2 2 3 2 4\n")
    # the second sample and enumerate calls rely on the defaults the first
    # ones override, so nothing may leak from one parse into the next
    commands = [
        ["sample", genome_file, "--seed", "3", "--num", "2", "--format", "json"],
        ["distance", "--json", genome_file],
        ["sample", genome_file],
        ["enumerate", "--n", "4", "--num", "3", "--format", "tree"],
        ["enumerate", "--n", "3"],
        ["convert", "--from", "parking", "--to", "fissions", str(pf)],
    ]
    in_process = [run(capsys, *argv) for argv in commands]
    for argv, (code, out, err) in zip(commands, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "dcjsort", *argv], env=CHILD_ENV, capture_output=True, text=True, timeout=120
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv


def test_closed_pipe_exits_1_without_traceback():
    # about 450 kB of output, far beyond a pipe's buffer, so the writer
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "dcjsort", "enumerate", "--n", "7", "--format", "fissions"],
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"7\n"
    assert err == b""


@pytest.mark.parametrize(
    "argv, guard",
    [
        (["enumerate", "--n", "9"], "n=9 exceeds the enumeration guard of 8"),
        (["oracle-count"], "distance 23 exceeds the oracle guard of 5"),
    ],
)
def test_guard_message_names_cli_flag(capsys, tmp_path, argv, guard):
    path = tmp_path / "windows.txt"
    path.write_text(f">A\n{WINDOWS_A_TEXT}\n>B\n{WINDOWS_B_TEXT}\n")
    code, out, err = run(capsys, *argv, *([str(path)] if argv[0] == "oracle-count" else []))
    assert code == 1
    assert out == ""
    assert err == f"dcjsort: error: {guard}; pass force=True (CLI: --force) to override\n"


def _shared(x, y):
    common = set(x) & set(y)
    assert len(common) == 1
    return common.pop()


def _realized_steps_oracle(a, b, per_cycle, merged):
    """The CLI's first realization, kept as a reference.

    Each cycle tracks the genome-A adjacency in the gap after every label
    and finds a cut's ends by intersecting it with the labels' B-adjacencies;
    every DCJ is applied to a fresh `Genome` and the whole distance is
    recomputed after every step.  Returns (cycle, base, top, partner, op).
    """
    graph = build_adjacency_graph(a, b)
    succ = [{i: i % c.n + 1 for i in range(1, c.n + 1)} for c in graph.cycles]
    gap = [dict(enumerate(c.a_between, 1)) for c in graph.cycles]
    label = [dict(enumerate(c.b_order, 1)) for c in graph.cycles]
    current = a
    remaining = graph.distance
    steps = []
    for m, (base, top) in merged:
        nxt, g, lab = succ[m], gap[m], label[m]
        after_base, after_top = nxt[base], nxt[top]
        closing = adjacency(_shared(g[top], lab[top]), _shared(g[base], lab[after_base]))
        rejoining = adjacency(_shared(g[base], lab[base]), _shared(g[top], lab[after_top]))
        op = make_dcj((g[base], g[top]), (closing, rejoining))
        nxt[base], nxt[top] = after_top, after_base
        g[base], g[top] = rejoining, closing
        current = apply_dcj(current, op)
        remaining -= 1
        assert dcj_distance(current, b) == remaining
        steps.append((m, base, top, after_base, op))
    assert current == b
    return steps


def _run_in_process(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(co_tailed_pairs(max_blocks=60), st.integers(0, 10**6), st.integers(1, 2))
def test_sample_matches_replay_oracle(pair, seed, num):
    a, b = pair
    text = f">A\n{serialize_genome(a)}\n>B\n{serialize_genome(b)}\n"
    graph = build_adjacency_graph(a, b)
    rng = make_rng(seed)
    expected = []
    for _ in range(num):
        per_cycle = [sample_scenario(c.n, rng) for c in graph.cycles]
        expected.append(_realized_steps_oracle(a, b, per_cycle, interleave(per_cycle, rng)))
    argv = ["sample", "--seed", str(seed), "--num", str(num)]

    code, out, err = _run_in_process(argv + ["--format", "dcj"], text)
    assert (code, err) == (0, "")
    assert out == "\n\n".join("\n".join(str(step[-1]) for step in sample) for sample in expected) + "\n"

    code, out, err = _run_in_process(argv + ["--format", "json"], text)
    assert (code, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        [
            {
                "cycle": m,
                "base": base,
                "top": top,
                "partner": partner,
                "dcj": {
                    "cut": [list(signed_pair(adj)) for adj in op.cut],
                    "form": [list(signed_pair(adj)) for adj in op.form],
                },
            }
            for m, base, top, partner, op in sample
        ]
        for sample in expected
    ]


def _other_rewiring(op):
    (e1, e2), (e3, e4) = op.cut
    for form in (((e1, e3), (e2, e4)), ((e1, e4), (e2, e3))):
        other = make_dcj(op.cut, form)
        if other.form != op.form:
            return other


# broken realizations the CLI's replay must refuse; `ops` is a tuple
REALIZATION_MUTANTS = {
    "other-rewiring": lambda ops: ops[:1] + (_other_rewiring(ops[1]),) + ops[2:],
    "absent-cut": lambda ops: ops[:2] + (DcjOp(ops[2].form, ops[2].cut),) + ops[3:],
    "dropped": lambda ops: ops[:1] + ops[2:],
    "repeated": lambda ops: ops[:2] + ops[1:-1],
    "repeated-extra": lambda ops: ops + ops[-1:],
    # valid DCJs that still end at B, caught only by the step count
    "detour": lambda ops: ops[:1] + (DcjOp(ops[0].form, ops[0].cut),) + ops,
}


@pytest.mark.parametrize("fmt", ["dcj", "json"])
@pytest.mark.parametrize("mutant", sorted(REALIZATION_MUTANTS))
def test_replay_rejects_broken_realization(capsys, monkeypatch, genome_file, mutant, fmt):
    real = dcjsort.cli.realize
    mutate = REALIZATION_MUTANTS[mutant]
    monkeypatch.setattr(dcjsort.cli, "realize", lambda *args: mutate(real(*args)))
    for seed in range(5):
        code, out, err = run(capsys, "sample", genome_file, "--seed", str(seed), "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("dcjsort: error: internal check failed")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["dcj", "json"])
@pytest.mark.parametrize("mutant", sorted(REALIZATION_MUTANTS))
def test_replay_failure_keeps_the_samples_before_it(capsys, monkeypatch, genome_file, mutant, fmt):
    argv = ["sample", genome_file, "--seed", "3", "--num", "3", "--format", fmt]
    code, whole, _ = run(capsys, *argv)
    assert code == 0
    first = whole.split("\n\n" if fmt == "dcj" else "\n")[0] + "\n"

    real = dcjsort.cli.realize
    calls = []

    def second_call_broken(*args):
        calls.append(args)
        ops = real(*args)
        return REALIZATION_MUTANTS[mutant](ops) if len(calls) == 2 else ops

    monkeypatch.setattr(dcjsort.cli, "realize", second_call_broken)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == first
    assert err.startswith("dcjsort: error: internal check failed")
    assert len(err.splitlines()) == 1
    assert len(calls) == 2


class _FirstWriteProbe:
    """Stands in for stdout and reads a counter at the first write."""

    def __init__(self, counter):
        self.counter = counter
        self.at_first_write = None

    def write(self, text):
        if self.at_first_write is None:
            self.at_first_write = self.counter()

    def flush(self):
        pass


def test_enumerate_writes_each_scenario_as_it_is_made(monkeypatch):
    made = []
    real = dcjsort.cli.enumerate_scenarios

    def counting(*args, **kwargs):
        for s in real(*args, **kwargs):
            made.append(s)
            yield s

    monkeypatch.setattr(dcjsort.cli, "enumerate_scenarios", counting)
    probe = _FirstWriteProbe(lambda: len(made))
    monkeypatch.setattr(sys, "stdout", probe)
    assert main(["enumerate", "--n", "5"]) == 0
    assert probe.at_first_write == 1
    assert len(made) == 125


@pytest.mark.parametrize("pair, cycles", [((GENOME_A_TEXT, GENOME_B_TEXT), 1), ((WINDOWS_A_TEXT, WINDOWS_B_TEXT), 17)])
def test_sample_writes_each_sample_as_it_is_drawn(monkeypatch, tmp_path, pair, cycles):
    path = tmp_path / "pair.txt"
    path.write_text(">A\n{}\n>B\n{}\n".format(*pair))
    drawn = []
    real = dcjsort.cli.sample_scenario
    monkeypatch.setattr(dcjsort.cli, "sample_scenario", lambda n, rng: drawn.append(n) or real(n, rng))
    probe = _FirstWriteProbe(lambda: len(drawn))
    monkeypatch.setattr(sys, "stdout", probe)
    assert main(["sample", str(path), "--num", "3", "--format", "parking"]) == 0
    assert probe.at_first_write == cycles
    assert len(drawn) == 3 * cycles


@pytest.mark.parametrize("fmt", ["parking", "fissions", "tree"])
def test_per_cycle_formats_skip_the_interleaving(capsys, monkeypatch, tmp_path, fmt):
    import dcjsort.enumeration

    unranked, counted = [], []
    real_interleave, real_multinomial = dcjsort.cli.interleave, dcjsort.enumeration.multinomial

    def counting(lengths):
        counted.append(lengths)
        return real_multinomial(lengths)

    monkeypatch.setattr(dcjsort.cli, "interleave", lambda *a: unranked.append(a) or real_interleave(*a))
    # interleave reaches multinomial through its own module
    monkeypatch.setattr(dcjsort.enumeration, "multinomial", counting)
    monkeypatch.setattr(dcjsort.cli, "multinomial", counting)
    path = tmp_path / "windows.txt"
    path.write_text(f">A\n{WINDOWS_A_TEXT}\n>B\n{WINDOWS_B_TEXT}\n")
    code, out, _ = run(capsys, "sample", str(path), "--seed", "7", "--num", "3", "--format", fmt)
    assert code == 0
    assert out
    assert unranked == []
    assert len(counted) == 1


# --- fuzzing the whole command line -----------------------------------------

# blocks a..d, and at most three edits, keep every distance within the
# oracle guard of 5, so `oracle-count --force` stays fast
_FUZZ_BLOCKS = "abcd"
_EDIT_CHARS = "()[]->#_ \n\t0123456789abcdexé"
_FUZZ_VALUES = {
    "--seed": ["0", "7", "99", "-1", str(2**64)],
    "--num": ["0", "1", "2", "3", "-1"],
    "--n": ["1", "3", "5", "6", "0", "x"],
    "--format": ["parking", "fissions", "tree", "dcj", "json"],
    "--from": ["parking", "fissions", "tree", "x"],
    "--to": ["parking", "fissions", "tree", "dot", "x"],
}
_FUZZ_FLAGS = {
    "distance": ["--json"],
    "count": ["--json"],
    "sample": ["--json", "--seed", "--num", "--format"],
    "convert": ["--from", "--to"],
    "enumerate": ["--n", "--num", "--force", "--format"],
    "oracle-count": ["--json", "--force"],
}


@st.composite
def _fuzz_genome(draw):
    blocks = draw(st.permutations(_FUZZ_BLOCKS))[: draw(st.integers(1, len(_FUZZ_BLOCKS)))]
    signed = [("-" if draw(st.booleans()) else "") + x for x in blocks]
    cut = draw(st.integers(1, len(signed)))
    brackets = [draw(st.sampled_from(["()", "[]"])) for _ in range(2)]
    chromosomes = [signed[:cut], signed[cut:]]
    return "\n".join(f"{o}{' '.join(c)}{e}" for (o, e), c in zip(brackets, chromosomes) if c)


@st.composite
def _fuzz_tree(draw):
    n = draw(st.integers(1, 6))
    return f"{n}\n" + "".join(f"{draw(st.integers(0, i - 1))} {i}\n" for i in range(1, n))


_fuzz_fragment = st.one_of(
    st.tuples(_fuzz_genome(), _fuzz_genome()).map(lambda ab: ">A\n{}\n>B\n{}\n".format(*ab)),
    st.lists(st.integers(0, 7), max_size=6).map(lambda pf: " ".join(map(str, pf)) + "\n"),
    _fuzz_tree(),
    st.tuples(st.integers(1, 6), st.integers(0, 99)).map(
        lambda nk: dcjsort.format_scenario(sample_scenario(nk[0], make_rng(nk[1])))
    ),
)


def _edit(text, edits):
    for pos, kind, char in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + (char if kind != "delete" else "") + text[i + (kind != "insert") :]
    return text


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag in _FUZZ_FLAGS[command]:
        # a required flag is left out one time in twenty
        if draw(st.integers(0, 19) if flag in ("--n", "--from", "--to") else st.booleans()):
            argv.append(flag)
            if flag in _FUZZ_VALUES:
                argv.append(draw(st.sampled_from(_FUZZ_VALUES[flag])))
    junk = draw(st.sampled_from(["", "", "", "", "-", "--bogus", "--help", "extra"]))
    return argv + [junk] * bool(junk)


_fuzz_edits = st.lists(
    st.tuples(st.integers(0, 10**4), st.sampled_from(["insert", "delete", "replace"]), st.sampled_from(_EDIT_CHARS)),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(_fuzz_argv(), _fuzz_fragment, _fuzz_edits)
def test_cli_fuzz_exits_cleanly(argv, fragment, edits):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(_edit(fragment, edits))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
