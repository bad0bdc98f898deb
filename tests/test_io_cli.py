import json

import pytest

from sgx.cli import main
from sgx.core import new_signed_graph
from sgx.families import gamma, sigma
from sgx.rng import SplitMix64
from sgx.sgio import from_sg_text, read_graph, to_sg_text, write_graph


def random_graph(n, rng, p=0.5):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.unit() < p:
                edges.append((u, v, -1 if rng.unit() < 0.3 else 1))
    return new_signed_graph(n, edges)


# --- .sg and JSON formats ------------------------------------------------------


def test_sg_text_roundtrip():
    rng = SplitMix64(2)
    for _ in range(25):
        g = random_graph(8, rng)
        assert from_sg_text(to_sg_text(g)) == g


def test_sg_text_format():
    g = new_signed_graph(3, [(0, 1, -1), (1, 2, 1)])
    assert to_sg_text(g) == "3 2\n0 1 -\n1 2 +\n"


def test_sg_comments_and_blank_lines():
    text = "# a comment\n\n3 1   # trailing\n0 2 -\n"
    g = from_sg_text(text)
    assert g.m == 1 and g.sign(0, 2) == -1


def test_sg_errors():
    with pytest.raises(ValueError, match="header"):
        from_sg_text("3\n")
    with pytest.raises(ValueError, match="declares"):
        from_sg_text("3 2\n0 1 +\n")
    with pytest.raises(ValueError, match="edge line"):
        from_sg_text("3 1\n0 1 x\n")
    with pytest.raises(ValueError, match="empty"):
        from_sg_text("# nothing\n")


def test_file_roundtrip_both_formats(tmp_path):
    g = sigma(1, 3, 4)
    for name in ("g.sg", "g.json"):
        path = tmp_path / name
        write_graph(g, path)
        assert read_graph(path) == g


# --- CLI ------------------------------------------------------------------------


def test_cli_construct_and_index(tmp_path, capsys):
    out = tmp_path / "g.sg"
    assert main(["construct", "gamma:6,3", "-o", str(out)]) == 0
    assert read_graph(out) == gamma(6, 3)
    assert main(["index", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "4.000000000"
    assert main(["index", "--tol", "1e-10", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "4.000000000"


def test_cli_spectrum_and_charpoly(tmp_path, capsys):
    out = tmp_path / "t.sg"
    write_graph(new_signed_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)]), out)
    assert main(["spectrum", str(out)]) == 0
    assert capsys.readouterr().out.split() == ["1.000000000", "1.000000000", "-2.000000000"]
    assert main(["charpoly", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x^3 - 3*x + 2"
    assert "[2, -3, 0, 1]" in lines[1]


def test_cli_triangles(tmp_path, capsys):
    out = tmp_path / "g.sg"
    write_graph(gamma(6, 4), out)
    assert main(["triangles", str(out)]) == 0
    out_text = capsys.readouterr().out
    assert "0 1 5" in out_text and "count: 2" in out_text


def test_cli_check_free_and_not(tmp_path, capsys):
    out = tmp_path / "g.sg"
    write_graph(gamma(6, 4), out)
    assert main(["check", "--forbid", "tc3:3", str(out)]) == 0
    assert "free: true (unbalanced triangles = 2)" in capsys.readouterr().out
    assert main(["check", "--forbid", "tc3:2", str(out)]) == 1
    assert "free: false" in capsys.readouterr().out


def test_cli_enumerate_json(capsys):
    assert main(["enumerate", "--n", "5", "--forbid", "tc3:2", "--top", "2",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == "sgx/1"
    assert obj["mode"] == "exhaustive"
    assert obj["entries"]
    assert obj["entries"][0]["graph_sg"].startswith("5 ")


def test_cli_search_runs(capsys):
    assert main(["search", "--n", "6", "--forbid", "tc3:2", "--seed", "9",
                 "--restarts", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mode"] == "local-search"
    assert obj["seed"] == 9 and obj["restarts"] == 5


def test_cli_search_exclude(capsys):
    assert main(["search", "--n", "6", "--forbid", "tc3:2", "--seed", "9",
                 "--restarts", "5", "--exclude", "gamma:6,3",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["entries"][0]["tag"] != "gamma(6, 3)"


def test_cli_verify_identities(capsys):
    assert main(["verify", "--target", "identities", "--range", "9:12"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_bad_range(capsys):
    assert main(["verify", "--target", "identities", "--range", "12:9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_errors(tmp_path, capsys):
    # unparseable family spec names the offending token
    assert main(["construct", "nonsense:1"]) == 2
    assert "nonsense" in capsys.readouterr().err
    # unknown forbidden spec
    out = tmp_path / "g.sg"
    write_graph(gamma(6, 3), out)
    assert main(["check", "--forbid", "heptagon:2", str(out)]) == 2
    # missing file
    assert main(["index", str(tmp_path / "missing.sg")]) == 2
    # eigensolver tolerance must be finite and positive
    for tol in ("0", "-1", "nan", "inf"):
        assert main(["index", "--tol", tol, str(out)]) == 2
        assert "tol must be finite and > 0" in capsys.readouterr().err
    # JSON graphs that are not an object with "n" and a list "edges"
    for text in ('{"edges": []}', "[]", '{"n": 3, "edges": {}}', '{"n": 3, "edges": [5]}'):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["index", str(bad)]) == 2
        assert "JSON graph" in capsys.readouterr().err
    # an excluded graph of another order can never match
    assert main(["search", "--n", "7", "--forbid", "tc3:2", "--seed", "1", "--restarts", "2",
                 "--exclude", "gamma:8,3"]) == 2
    assert "excluded graph has n=8, but the search has n=7" in capsys.readouterr().err
    # argparse-level errors exit 2
    assert main(["enumerate", "--forbid", "tc3:2"]) == 2


def test_cli_verify_thm1_small(capsys):
    assert main(["verify", "--target", "thm1", "--range", "5:5"]) == 0
