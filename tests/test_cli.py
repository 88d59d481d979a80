import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twosquares import certify, cli, represent
from twosquares.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "1000009")
    assert code == 0
    assert "eligible" in out
    assert "3/22" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "21", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "eligible"
    assert doc["roots_mod25"] == ["11", "14"]


def test_classify_ineligible(capsys):
    code, out, _ = run(capsys, "classify", "39")
    assert code == 0
    assert "ineligible_mod4" in out


def test_classify_output_matches_golden(capsys):
    # text then JSON for each n: every status, the printed residues, the cap
    ns = [*range(401), 1000009, 1000081, 10**10 + 9, 9223372036854775549, 2**63 - 1]
    outs = []
    for n in ns:
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "classify", str(n), "--format", fmt)
            assert code == 0
            outs.append(out)
    assert "".join(outs) == (GOLDEN / "cli_classify.txt").read_text(encoding="utf-8")


def test_prove_composite(capsys):
    code, out, _ = run(capsys, "prove", "1000009")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "composite_with_factors"
    assert doc["factors"] == ["293", "3413"]


def test_prove_prime(capsys):
    code, out, _ = run(capsys, "prove", "1000081")
    assert code == 0
    assert json.loads(out)["verdict"] == "prime"


def test_prove_ineligible_still_exits_zero(capsys):
    code, out, _ = run(capsys, "prove", "10")
    assert code == 0
    assert json.loads(out)["verdict"] == "ineligible"


def test_prove_emit_tables(capsys):
    code, out, _ = run(capsys, "prove", "1000009", "--format", "text", "--emit-tables")
    assert code == 0
    assert "*  2209" in out
    assert "branch B" in out


def test_prove_out_and_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "prove", "1000009", "--out", str(path))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "valid" in out


def test_verify_rejects_tampered(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "prove", "1000081", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["factors"] = ["3", "333360"]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "REJECTED" in err


def test_verify_rejects_non_canonical_bytes(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "prove", "1000009", "--out", str(path))
    canonical = path.read_text(encoding="utf-8")
    doc = json.loads(canonical)
    # the same certificate, spelled otherwise
    variants = {
        "compact": json.dumps(doc),
        "reordered": json.dumps(dict(reversed(list(doc.items()))), indent=2) + "\n",
        "duplicate n": canonical.replace('{\n  "n"', '{\n  "n": "1000081",\n  "n"', 1),
        "trailing whitespace": canonical + " \n",
        "crlf": canonical.replace("\n", "\r\n"),
    }
    for name, text in variants.items():
        assert text != canonical, name
        path.write_bytes(text.encode("utf-8"))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1, name
        assert "not the canonical encoding" in err, name
    path.write_bytes(canonical.encode("utf-8"))
    assert run(capsys, "verify", str(path))[0] == 0


def test_verify_malformed_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    # bad JSON, bytes that are not UTF-8, nesting deeper than the decoder's
    # recursion limit, an integer literal past int()'s digit limit
    too_long = b'{"n": ' + b"1" * 5000 + b"}"
    for content in (b"{ nope", b"\xff\xfe not utf-8", b"[" * 200000, too_long):
        path.write_bytes(content)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2, content[:10]
        assert "error" in err
    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def test_verify_refuses_file_past_budget(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_bytes(b" " * (cli.MAX_CERTIFICATE_BYTES + 1))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert f"{cli.MAX_CERTIFICATE_BYTES:,} bytes" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_verify_endless_file_exits_two():
    resource = pytest.importorskip("resource")

    def cap_address_space():
        # a reader that never stops fails here instead of taking all memory
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    result = subprocess.run(
        [sys.executable, "-m", "twosquares.cli", "verify", "/dev/zero"],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent)),
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert f"{cli.MAX_CERTIFICATE_BYTES:,} bytes" in result.stderr


def test_reader_closing_early_exits_zero():
    # scan writes about 3 MB here; the reader takes one line and closes
    with subprocess.Popen(
        [sys.executable, "-m", "twosquares.cli", "scan", "1000000000061"],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"n = 1000000000061, ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    assert err == b""


def test_import_loads_no_process_pool():
    # sweep runs in one process: --jobs changes no byte of a narrow sweep,
    # which takes the route per N, and the pool's modules stay unloaded
    code = (
        "import contextlib, io, sys, twosquares.cli\n"
        "outs = set()\n"
        "for jobs in ([], ['--jobs', '1'], ['--jobs', '8']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert twosquares.cli.main(['sweep', '1000000000000', '1000000000400', *jobs]) == 0\n"
        "    outs.add(out.getvalue())\n"
        "print(len(outs), 'twosquares.route' in sys.modules)\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1 True\n[]\n", "")


def malformed(edit) -> str:
    """prove 1000009's document with one field broken by edit(doc)."""
    doc = json.loads(certify.certificate_to_json(certify.decide(1000009)))
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


# each breaks one field so that one parse check, named by its message,
# rejects the document
MALFORMED = {
    "representation_missing_field": (
        lambda d: d["representations"][0].pop("coprime"), "must have fields a, b, coprime"
    ),
    "coprime_not_boolean": (
        lambda d: d["representations"][0].update(coprime="true"), "coprime must be a boolean"
    ),
    "witness_wrong_fields": (lambda d: d["witness"].pop("f2"), "witness has wrong fields"),
    "unknown_verdict": (lambda d: d.update(verdict="probable_prime"), "unknown verdict"),
    "representations_not_list": (
        lambda d: d.update(representations={}), "representations must be a list"
    ),
    "factors_not_pair": (lambda d: d.update(factors=["293"]), "factors must be null or a pair"),
    "notes_not_string": (lambda d: d.update(notes=None), "notes and method_version must be"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_parse_errors_exit_two(capsys, tmp_path, name):
    edit, message = MALFORMED[name]
    text = malformed(edit)
    with pytest.raises(certify.CertificateError, match=message):
        certify.certificate_from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and err.startswith("error: ") and message in err, err


def test_scan_output(capsys):
    code, out, _ = run(capsys, "scan", "1000009")
    assert code == 0
    assert "branch B" in out
    assert "*  2209" in out
    assert "pruned: always_five_mod_8" in out
    assert "representations: (1000, 3), (972, 235)" in out


def test_scan_prime_shows_pruned_reason(capsys):
    code, out, _ = run(capsys, "scan", "1000081")
    assert code == 0
    assert "branch B: Q(t) = 39957 - 272 t - 400 t^2 [pruned: always_five_mod_8]" in out


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "1000081", "1000081")
    assert code == 0
    assert out.splitlines()[1] == "1000081,prime,1,,"


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, "sweep", "5", "5")
    assert code == 0
    assert out == "n,verdict,rep_count,factor1,factor2\n"


def test_numeric_arguments_validated(capsys):
    argvs = [["prove", "abc"], ["classify", str(2**63)], ["prove", "-5"]]
    # other spellings of 1000081 that int() accepts
    for text in ("1_000_081", " 1000081", "+1000081", "01000081", "1000081\n", "１００００８１"):
        argvs.append(["prove", text])
    for text in ("0", "-3", "1_0"):
        argvs.append(["sweep", "1", "9", "--jobs", text])
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_one_parser_serves_many_calls(capsys):
    # the parser is built once per process; no call's options reach the next
    assert cli.build_parser() is cli.build_parser()
    tables = (GOLDEN / "cli_prove_1000009_tables.txt").read_text(encoding="utf-8")
    assert run(capsys, "prove", "1000009", "--emit-tables", "--format", "text") == (0, tables, "")
    code, text, _ = run(capsys, "prove", "1000009", "--format", "text")
    assert code == 0 and tables.startswith(text + "\n") and "side" not in text
    good = run(capsys, "prove", "1000081")
    with pytest.raises(SystemExit) as exc:
        main(["prove", "1_000_081"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "prove", "1000081") == good


def test_cli_output_byte_identical(capsys):
    _, out1, _ = run(capsys, "prove", "1000009")
    _, out2, _ = run(capsys, "prove", "1000009")
    assert out1 == out2


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cli_scan_1000009.txt", ["scan", "1000009"]),
        ("cli_prove_1000009_tables.txt", ["prove", "1000009", "--format", "text", "--emit-tables"]),
        ("cli_prove_1000081_tables.json", ["prove", "1000081", "--emit-tables"]),
        # every leaf empty or pruned; ineligible
        ("cli_scan_21.txt", ["scan", "21"]),
        ("cli_scan_23.txt", ["scan", "23"]),
    ],
)
def test_cli_output_matches_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_emit_tables_adds_tables_and_nothing_else(capsys):
    # every verdict: ineligible (10), non-residue (21), prime, composite
    for n in [*range(500), 1000009, 1000081, 4329]:
        _, plain, _ = run(capsys, "prove", str(n))
        _, augmented, _ = run(capsys, "prove", str(n), "--emit-tables")
        doc = json.loads(augmented)
        # the streamed document is spelled as the indenting encoder spells it
        assert augmented == json.dumps(doc, indent=2) + "\n", n
        tables = doc.pop("tables")
        assert json.dumps(doc, indent=2) + "\n" == plain, n
        _, text, _ = run(capsys, "prove", str(n), "--format", "text")
        _, text_tables, _ = run(capsys, "prove", str(n), "--format", "text", "--emit-tables")
        assert text_tables == text + "\n" + tables, n


def test_emit_tables_walks_the_scan_tree_once(capsys, monkeypatch):
    counts = {"scan_branch": 0, "classify": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # wrap the names wherever the engine looks them up
    for module in (cli, certify, represent):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # with or without tables, prove takes one walk
    for argv in (["prove", "1000009", "--emit-tables"], ["prove", "1000009"]):
        counts.update(scan_branch=0, classify=0)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        # three scannable leaves (A.e0, B, C); one classify for the one walk
        assert counts == {"scan_branch": 3, "classify": 1}, argv


def test_tables_past_row_limit_exit_two(capsys, tmp_path):
    # 10^15 + 21 has 1,264,911 table rows
    n = "1000000000000021"
    out_file = tmp_path / "f"
    for argv in (["scan", n], ["prove", n, "--emit-tables", "--out", str(out_file)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "1,000,000 rows" in err, err
    assert not out_file.exists()
    code, out, _ = run(capsys, "prove", n)
    assert code == 0 and json.loads(out)["n"] == n


def test_unwritable_out_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing"
    for argv in (
        ["prove", "1000009", "--out", str(missing / "x.json")],
        ["prove", "1000009", "--emit-tables", "--out", str(missing / "t.json")],
        ["sweep", "100", "200", "--out", str(missing / "x.csv")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ")
    assert not missing.exists()
