from ribbonminor import canonicalize, is_equivalent, parse_arp
from ribbonminor.cli import main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_info_nonorientable_loop(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "e+ e-\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1 E=1 F=1 c=1 genus=1" in out
    assert "eulerian=yes" in out and "even-face=yes" in out
    assert "cc=no" in out and "bipartite=no" in out and "plane=no" in out


def test_info_isolated_vertex(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "()\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1 E=0 F=1" in out and "genus=0" in out


def test_info_triple_loops(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ b+ c+ a+ b+ c+\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "genus=2" in out and "cc=yes" in out


def test_contract_emits_arp(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "e+ e+\n")
    assert main(["contract", "e", path]) == 0
    assert capsys.readouterr().out == "()\n()\n"


def test_pdual_self_dual(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "e+ e-\n")
    assert main(["pdual", "--edges", "e", path]) == 0
    out = capsys.readouterr().out
    assert is_equivalent(parse_arp(out), parse_arp("(e+ e-)"))


def test_dual_round_trip(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ b+ a+ b+\n")
    assert main(["dual", path]) == 0
    once = capsys.readouterr().out
    path2 = _write(tmp_path, "h.arp", once)
    assert main(["dual", path2]) == 0
    twice = capsys.readouterr().out
    assert is_equivalent(parse_arp(twice), parse_arp("(a+ b+ a+ b+)"))


def test_split_vertex_odd_distance_error(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ a+\n")
    assert main(["split-vertex", "0", "0", "1", path]) == 2
    assert "dual distance is odd" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ a+\nb%\n")
    assert main(["info", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_transform_commands(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ b+\na+\nb+\n")
    assert main(["join", "1", "2", path]) == 0
    assert parse_arp(capsys.readouterr().out).n_vertices == 2
    assert main(["delete-vertex", "0", path]) == 0
    assert capsys.readouterr().out == "()\n()\n"
    assert main(["delete-component", "0", path]) == 0
    assert capsys.readouterr().out == ""
    assert main(["split-face", "0", "0", "0", path]) == 0
    assert parse_arp(capsys.readouterr().out).n_vertices == 4


def test_minor_contained_with_witness(tmp_path, capsys):
    g = _write(tmp_path, "g.arp", "a+ b+ a+ b+\n")
    h = _write(tmp_path, "h.arp", "e+\ne+\n")
    assert main(["minor", g, "--family", "cc", "--target", h]) == 0
    out, err = capsys.readouterr()
    assert "contained" in err
    assert out.strip().startswith("contract")


def test_minor_not_contained(tmp_path, capsys):
    g = _write(tmp_path, "g.arp", "e+ e+\n")
    h = _write(tmp_path, "h.arp", "e+ e-\n")
    assert main(["minor", g, "--family", "cc", "--target", h]) == 1
    assert "not contained" in capsys.readouterr().err


def test_minor_reflexive_empty_witness(tmp_path, capsys):
    g = _write(tmp_path, "g.arp", "e+ e+\n")
    assert main(["minor", g, "--family", "eulerian", "--target", g]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == ""


def test_verify_t1_one_edge(tmp_path, capsys):
    assert main(["verify", "T1", "--max-edges", "1"]) == 0
    out = capsys.readouterr().out
    assert "checked=3 failures=0" in out


def test_verify_t2_and_t6(capsys):
    assert main(["verify", "T2", "--max-edges", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "T6", "--max-edges", "2"]) == 0


def test_verify_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["verify", "cc-closure", "--max-edges", "1", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text().endswith("-> PASS\n")


def test_verify_unknown_id(capsys):
    assert main(["verify", "T42"]) == 2
    assert "unknown id" in capsys.readouterr().err


def test_enumerate_one_edge(capsys):
    assert main(["enumerate", "--max-edges", "1", "--max-circles", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["(a+ a+)", "(a+ a-)", "(a+)(a+)"]


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("e+ e+\n"))
    assert main(["info"]) == 0
    assert "V=1 E=1 F=2" in capsys.readouterr().out


def test_info_sixteen_edge_single_circle(tmp_path, capsys):
    text = " ".join(f"e{i}+" for i in range(16)) + " " + " ".join(f"e{i}-" for i in range(16))
    path = _write(tmp_path, "g.arp", text + "\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1 E=16" in out
    canon = out.split("canonical: ", 1)[1].strip()
    assert canonicalize(parse_arp(canon)) == canon


def test_minor_join_family_vertex_limit(tmp_path, capsys):
    path9 = "\n".join(["e0+"] + [f"e{i}+ e{i + 1}+" for i in range(7)] + ["e7+"]) + "\n"
    g = _write(tmp_path, "p9.arp", path9)
    h = _write(tmp_path, "p2.arp", "e+\ne+\n")
    assert main(["minor", g, "--target", h, "--family", "join"]) == 2
    err = capsys.readouterr().err
    assert "join family" in err and "at most 8 vertices" in err and "got 9 vertices" in err
    assert "canonical_key" not in err


def test_info_many_isolated_circles(tmp_path, capsys):
    # one search level per non-empty circle only: 1,100 empty circles must
    # not exhaust the recursion limit
    path = _write(tmp_path, "g.arp", "()\n" * 1100)
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1100 E=0 F=1100" in out
    assert out.endswith("canonical: " + "()" * 1100 + "\n")
