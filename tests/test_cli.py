import decimal
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
