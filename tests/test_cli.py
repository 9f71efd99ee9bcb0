import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockfriends
from blockfriends import fano, full_design, load_design, save_design, sts13_s1
from blockfriends import cli as cli_mod
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


@pytest.mark.parametrize("label", ["70", "99999999999999999999999"])
def test_label_above_64_without_header(capsys, tmp_path, label):
    """With no v= line the range is 1..64, not 1..(largest label), and a
    label past int64 is still an input error with its line number."""
    path = tmp_path / "big.design"
    path.write_text(f"1 2\n1 {label}\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 2: element label {label} out of range 1..64\n"


def test_verify_reads_params_from_the_load(capsys, monkeypatch, fano_file):
    """Loading the file already checked the axioms; a design is not
    checked again."""
    monkeypatch.setattr(cli_mod, "detect_params", lambda *a: pytest.fail("checked twice"))
    code, out, _ = run(capsys, "verify", fano_file)
    assert (code, out) == (0, "design: v=7 b=7 r=3 k=3 lambda=1\n")


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


# runs the CLI under an address-space limit set before numpy is imported
LIMITED_CLI = """
import resource, sys
limit = 1536 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from blockfriends.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_level_report_in_bounded_memory(capsys, tmp_path):
    """classify -n 6 --report on PG(2,4) runs within a 1.5 GB address space;
    a whole intersection matrix of two level-6 classes needs 775 MiB more
    than that alone."""
    pg24 = str(tmp_path / "pg24.design")
    assert run(capsys, "pg", "--order", "4", "-o", pg24)[0] == 0
    src = str(Path(blockfriends.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, "classify", pg24, "-n", "6", "--report"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "n=6: 7 classes, 54264 subsets" in proc.stdout
    report = [f"  class {j}: self-friend {'no' if j == 6 else 'yes'}, friends with parent yes"
              for j in range(1, 8)]
    assert proc.stdout.endswith("\n".join(["report:", *report, "  level friendly: no\n"]))


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


def test_main_reuses_one_parser(capsys, tmp_path, fano_file):
    """Calls of main() in one process share the parser built by the first,
    and each gives the exit code, stdout and stderr of a freshly built one."""
    exp = tmp_path / "fam"
    assert run(capsys, "catalog", "export", "fano_family", "-o", str(exp))[0] == 0
    files = sorted(str(p) for p in exp.glob("*.design"))
    commands = [
        ["classify", fano_file],  # usage error: -n or --all is required
        ["classify", fano_file, "--all", "--report"],
        ["poset", *files, "--add-degenerate", "--check-alpha", "--dot", "-"],
        ["classify", fano_file],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli_mod.build_parser.cache_clear()
    shared = [outcome(argv) for argv in commands]
    assert cli_mod.build_parser.cache_info().misses == 1
    fresh = []
    for argv in commands:
        cli_mod.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 2]


def test_classify_level_above_sweep_limit_exit_code(capsys, tmp_path):
    pg7 = str(tmp_path / "pg7.design")
    assert run(capsys, "pg", "--order", "7", "-o", pg7)[0] == 0
    code, _, err = run(capsys, "classify", pg7, "-n", "28", "--counts-only")
    assert code == 2
    assert err.startswith("error:") and "sweep limit" in err


@pytest.fixture
def no_sweep(monkeypatch):
    """Fails the test as soon as a level is swept, through classify_all or
    the CLI's own classify_level."""
    import blockfriends.classify as classify_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("a level was swept")

    monkeypatch.setattr(classify_mod, "classify_level", no_sweep)
    monkeypatch.setattr(cli_mod, "classify_level", no_sweep)


def test_classify_all_counts_only_above_limit_exit_code(capsys, tmp_path, no_sweep):
    """A 32-point parent is refused by --all --counts-only before any level
    is swept, naming the counts-only bound."""
    path = tmp_path / "v32.design"
    path.write_text(save_design(full_design(32, 1)))
    code, out, err = run(capsys, "classify", str(path), "--all", "--counts-only")
    assert (code, out) == (2, "")
    assert err == ("error: v=32 exceeds counts-only sweep limit 31; "
                   "classify levels one at a time\n")


@pytest.mark.parametrize("level, message", [
    (["-n", "3"], "class members were not retained"),
    (["--all"], "analysis needs retained class members"),
])
def test_counts_only_report_refused_before_sweep(capsys, fano_file, no_sweep, level, message):
    """--counts-only --report is a usage error, found before any sweep."""
    code, out, err = run(capsys, "classify", fano_file, *level, "--counts-only", "--report")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


MALFORMED_ORDER_TABLES = {
    "q=x": "q=x\n0 1\n1 0\n*\n0 0\n0 1\n",
    "q=": "q=\n0 1\n1 0\n*\n0 0\n0 1\n",
    "q=1": "q=1\n0\n*\n0\n",
    "q=0": "q=0\n*\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ORDER_TABLES))
def test_pg_malformed_field_order(capsys, tmp_path, case):
    tables = tmp_path / "bad.tables"
    tables.write_text(MALFORMED_ORDER_TABLES[case])
    code, out, err = run(capsys, "pg", "--order", "2", "--field-tables", str(tables),
                         "-o", str(tmp_path / "x"))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_pg_refuses_oversized_plane_before_building(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("blockfriends.planes._normalized_points",
                        lambda q: pytest.fail("plane built before the size check"))
    code, out, err = run(capsys, "pg", "--order", "61", "-o", str(tmp_path / "x"))
    assert code == 2
    assert out == "" and err == "error: ground set size 3783 outside 1..64\n"


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


# prints whether importing the CLI loaded selfcheck, then the JSON payload
# of run_selfcheck's results on one line, then the CLI's selfcheck --json
SELFCHECK_IMPORT = """
import json, sys
import blockfriends.cli as cli
print('blockfriends.selfcheck' in sys.modules)
from blockfriends.selfcheck import run_selfcheck
results = run_selfcheck()
print(json.dumps({
    "checks": [{"name": n, "pass": ok, "detail": d or None} for n, ok, d in results],
    "all_pass": all(ok for _, ok, _ in results),
}))
sys.exit(cli.main(["--json", "selfcheck"]))
"""


def test_cli_import_leaves_selfcheck_unloaded():
    """Importing the CLI does not import selfcheck; the command imports it
    and prints exactly the JSON of run_selfcheck's results."""
    src = str(Path(blockfriends.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", SELFCHECK_IMPORT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded, payload, printed = proc.stdout.split("\n", 2)
    assert loaded == "False"
    payload = json.loads(payload)
    assert payload["all_pass"]
    assert printed == json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("command", ["verify", "pg-field-tables"])
def test_non_utf8_input_exit_code(capsys, tmp_path, command):
    binary = tmp_path / "bin.design"
    binary.write_bytes(b"\xff\xfe")
    if command == "verify":
        argv = ["verify", str(binary)]
    else:
        argv = ["pg", "--order", "3", "--field-tables", str(binary),
                "-o", str(tmp_path / "pg3.design")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_non_utf8_input_names_the_file(capsys, tmp_path):
    good = tmp_path / "good.design"
    good.write_text(save_design(fano()), encoding="utf-8")
    binary = tmp_path / "bin.design"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "poset", str(good), str(binary))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "bin.design" in err and "good.design" not in err


def test_non_utf8_field_tables_names_the_file(capsys, tmp_path):
    binary = tmp_path / "tables.bin"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "pg", "--order", "3", "--field-tables", str(binary),
                         "-o", str(tmp_path / "pg3.design"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "tables.bin" in err


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("header", [True, False])
def test_utf8_bom_design_reads_as_plain(capsys, tmp_path, header):
    """A design file that starts with a UTF-8 byte order mark verifies as
    the same file without it, with or without its v= line."""
    text = save_design(fano()) if header else save_design(fano()).split("\n", 1)[1]
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    (tmp_path / "plain" / "fano.design").write_bytes(text.encode())
    (tmp_path / "bom" / "fano.design").write_bytes(BOM + text.encode())
    plain = run(capsys, "verify", str(tmp_path / "plain" / "fano.design"))
    assert plain[0] == 0
    assert run(capsys, "verify", str(tmp_path / "bom" / "fano.design")) == plain


def test_utf8_bom_field_tables_read_as_plain(capsys, tmp_path, monkeypatch):
    gf4 = (Path(blockfriends.__file__).parent / "data" / "gf4.tables").read_bytes()
    outputs = []
    for name, data in (("plain", gf4), ("bom", BOM + gf4)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("gf4.tables").write_bytes(data)
        result = run(capsys, "pg", "--order", "4", "--field-tables", "gf4.tables",
                     "-o", "pg4.design")
        assert result[0] == 0
        outputs.append((result, Path("pg4.design").read_text()))
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("stem, label", [('fa"no', 'fa\\"no'), ("fa\\no", "fa\\\\no")])
def test_poset_dot_escapes_member_names(capsys, tmp_path, stem, label):
    path = tmp_path / f"{stem}.design"
    assert run(capsys, "catalog", "export", "fano", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "poset", str(path), "--add-degenerate", "--dot", "-")
    assert code == 0
    assert f'  n1 [label="{label} (7,7,3,3,1)"];' in out.splitlines()


def test_poset_check_alpha_without_a_partition(capsys, fano_file, d5_file):
    code, out, _ = run(capsys, "poset", fano_file, d5_file, "--check-alpha")
    assert code == 1
    assert out.splitlines()[-1] == "alpha hypotheses: FAILED"


GF3_TABLES = "q=3\n0 1 2\n1 2 0\n2 0 1\n*\n0 0 0\n0 1 2\n0 2 1\n"


def test_pg_field_tables_of_another_order(capsys, tmp_path):
    tables = tmp_path / "gf3.tables"
    tables.write_text(GF3_TABLES)
    out_file = tmp_path / "x"
    code, out, err = run(capsys, "pg", "--order", "2", "--field-tables", str(tables),
                         "-o", str(out_file))
    assert (code, out, err) == (2, "", "error: table file has q=3, asked for 2\n")
    assert not out_file.exists()
    code, _, _ = run(capsys, "pg", "--order", "3", "--field-tables", str(tables),
                     "-o", str(out_file))
    assert code == 0 and load_design(out_file.read_text()).v == 13


@pytest.fixture
def raw_file(capsys, tmp_path, s1_file):
    """An emitted STS(13) level-6 class: a raw family that is not its own friend."""
    outdir = tmp_path / "level6"
    assert run(capsys, "classify", s1_file, "-n", "6", "--emit-classes", str(outdir))[0] == 0
    return str(outdir / "sts13_s1-n6-class2.design")


def test_family_flag_loads_a_raw_family(capsys, raw_file):
    code, out, err = run(capsys, "friends", raw_file, raw_file)
    assert (code, out) == (2, "") and err.startswith("error: not a block design: ")
    code, out, _ = run(capsys, "friends", "--family", raw_file, raw_file)
    assert code == 1 and out.startswith("friends: no\n")
    code, out, _ = run(capsys, "profile", "--family", raw_file, "--set", "1,2,3")
    assert code == 0 and out.splitlines()[0].endswith("raw family)")
    code, out, _ = run(capsys, "classify", "--family", raw_file, "-n", "2")
    assert code == 0 and "raw family" in out.splitlines()[0]


def test_classify_counts_only(capsys, tmp_path, fano_file):
    outdir = tmp_path / "classes"
    code, out, _ = run(capsys, "classify", fano_file, "--all", "--counts-only",
                       "--emit-classes", str(outdir))
    assert code == 0 and "members not retained" in out
    assert out.splitlines()[-1] == f"wrote 0 class files to {outdir}"
    assert not list(outdir.glob("*"))
    code, out, err = run(capsys, "classify", fano_file, "-n", "3", "--counts-only", "--report")
    assert (code, out, err) == (2, "", "error: class members were not retained\n")
