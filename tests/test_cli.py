import json

import pytest

from blockfriends import fano, full_design, load_design, save_design, sts13_s1
from blockfriends.cli import main


@pytest.fixture
def fano_file(tmp_path):
    path = tmp_path / "fano.design"
    path.write_text(save_design(fano()))
    return str(path)


@pytest.fixture
def d5_file(tmp_path):
    path = tmp_path / "d5.design"
    path.write_text(save_design(full_design(7, 5)))
    return str(path)


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "sts13_s1.design"
    path.write_text(save_design(sts13_s1()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_design(capsys, fano_file):
    code, out, _ = run(capsys, "verify", fano_file)
    assert code == 0
    assert "design: v=7 b=7 r=3 k=3 lambda=1" in out


def test_verify_negative(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 4\n1 3\n2 4\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "not a design" in out and "pair" in out


def test_verify_json(capsys, fano_file):
    code, out, _ = run(capsys, "--json", "verify", fano_file)
    assert code == 0
    data = json.loads(out)
    assert data["is_design"] and data["params"] == [7, 7, 3, 3, 1]


def test_profile_command(capsys, fano_file):
    code, out, _ = run(capsys, "profile", fano_file, "--set", "1,2,3,4,5")
    assert code == 0
    assert "phi = (0,1,4,2)" in out
    assert "moment identities: ok" in out


def test_profile_empty_set(capsys, fano_file):
    code, out, _ = run(capsys, "profile", fano_file, "--set", "")
    assert code == 0
    assert "phi = (7)" in out


def test_friends_command(capsys, fano_file, d5_file):
    code, out, _ = run(capsys, "friends", fano_file, d5_file)
    assert code == 0
    assert "friends: yes" in out
    assert "(0,1,4,2)" in out and "(0,3,12,6)" in out
    assert "count identity: ok" in out


def test_friends_negative_exit(capsys, tmp_path, s1_file):
    from blockfriends import classify_level

    cls = classify_level(sts13_s1(), 5)[0].to_family("lv5")
    path = tmp_path / "lv5.design"
    path.write_text(save_design(cls))
    code, out, _ = run(capsys, "friends", str(path), str(path))
    assert code == 1
    assert "friends: no" in out and "witness" in out


def test_classify_level6_report(capsys, s1_file):
    code, out, _ = run(capsys, "classify", s1_file, "-n", "6", "--report")
    assert code == 0
    assert "n=6: 5 classes, 1716 subsets" in out
    assert out.count("not a design") == 5
    assert "level friendly: no" in out


def test_classify_all_report(capsys, fano_file):
    code, out, _ = run(capsys, "classify", fano_file, "--all", "--report")
    assert code == 0
    assert "conjecture verdict: yes" in out


def test_classify_emit_classes(capsys, tmp_path, fano_file):
    outdir = tmp_path / "classes"
    code, out, _ = run(capsys, "classify", fano_file, "--all",
                       "--emit-classes", str(outdir))
    assert code == 0
    files = sorted(outdir.glob("*.design"))
    assert len(files) == 9  # the empty-set class has no file form
    total = sum(load_design(p.read_text()).b if "n0-" not in p.name else 0
                for p in files)
    assert total == 2 ** 7 - 1


def test_classify_requires_mode(capsys, s1_file):
    with pytest.raises(SystemExit) as exc:
        main(["classify", s1_file])
    assert exc.value.code == 2


def test_classify_level_above_sweep_limit_exit_code(capsys, tmp_path):
    pg7 = str(tmp_path / "pg7.design")
    assert run(capsys, "pg", "--order", "7", "-o", pg7)[0] == 0
    code, _, err = run(capsys, "classify", pg7, "-n", "28", "--counts-only")
    assert code == 2
    assert err.startswith("error:") and "sweep limit" in err


def test_classify_deterministic(capsys, s1_file):
    code1, out1, _ = run(capsys, "classify", s1_file, "-n", "5")
    code2, out2, _ = run(capsys, "--threads", "4", "classify", s1_file, "-n", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_poset_flow(capsys, tmp_path):
    exp = tmp_path / "fam"
    code, out, _ = run(capsys, "catalog", "export", "fano_family", "-o", str(exp))
    assert code == 0
    files = sorted(str(p) for p in exp.glob("*.design"))
    assert len(files) == 9
    dot_file = str(tmp_path / "fam.dot")
    code, out, _ = run(capsys, "poset", *files, "--add-degenerate",
                       "--check-alpha", "--dot", dot_file)
    assert code == 0
    assert "family: 10 members on v=7" in out
    assert "alpha hypotheses: ok" in out
    assert "order preservation: ok" in out
    assert "fano < non-fano-quads" in out
    dot = (tmp_path / "fam.dot").read_text()
    assert dot.count(" -> ") == 11


def test_poset_rejects_non_friends(capsys, tmp_path, s1_file):
    from blockfriends import classify_level

    classes = classify_level(sts13_s1(), 5)
    paths = []
    for i, cls in enumerate(classes[:2]):
        p = tmp_path / f"lv5-{i}.design"
        p.write_text(save_design(cls.to_family(f"lv5-{i}")))
        paths.append(str(p))
    code, out, _ = run(capsys, "poset", *paths)
    assert code == 1
    assert "not a friendly family" in out


def test_pg_orders(capsys, tmp_path):
    for q, v in ((2, 7), (3, 13), (4, 21)):
        out_file = str(tmp_path / f"pg{q}.design")
        code, out, _ = run(capsys, "pg", "--order", str(q), "-o", out_file)
        assert code == 0
        d = load_design((tmp_path / f"pg{q}.design").read_text())
        assert d.params.v == v and d.params.lam == 1


def test_pg_non_prime_power_hint(capsys, tmp_path):
    code, _, err = run(capsys, "pg", "--order", "6", "-o", str(tmp_path / "x"))
    assert code == 2
    assert "field-tables" in err


def test_catalog_list_and_export(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in ("fano", "design_9_12_8_6_5", "sts13_s1", "sts13_s2",
                 "fano_family"):
        assert name in out
    dest = str(tmp_path / "nine.design")
    code, out, _ = run(capsys, "catalog", "export", "design_9_12_8_6_5",
                       "-o", dest)
    assert code == 0
    d = load_design((tmp_path / "nine.design").read_text())
    assert d.params == (9, 12, 8, 6, 5)
    code, _, err = run(capsys, "catalog", "export", "nope", "-o", dest)
    assert code == 2


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selfcheck_json(capsys):
    code, out, _ = run(capsys, "--json", "selfcheck")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] and len(data["checks"]) > 50


def test_json_outputs_parse(capsys, fano_file, d5_file):
    for argv in (["--json", "friends", fano_file, d5_file],
                 ["--json", "classify", fano_file, "--all", "--report"],
                 ["--json", "profile", fano_file, "--set", "2,3,5"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        json.loads(out)


def test_io_error_exit_code(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.design")
    assert code == 2


@pytest.mark.parametrize("labels", ["1,x", "1,1", "1,99"])
def test_profile_bad_set_exit_code(capsys, fano_file, labels):
    code, _, err = run(capsys, "profile", fano_file, "--set", labels)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_threads_below_one_rejected(capsys, fano_file):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "0", "verify", fano_file])
    assert exc.value.code == 2


@pytest.mark.parametrize("second", ["other-ground-set", "duplicate"])
def test_poset_input_error_exit_code(capsys, fano_file, s1_file, second):
    other = s1_file if second == "other-ground-set" else fano_file
    code, out, err = run(capsys, "poset", fano_file, other)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
