"""Report formatting, CSV/JSON rendering, and the run manifest."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import quadlcm

from quadlcm.reports import (
    RunManifest,
    format_value,
    render_csv,
    render_json,
    sha256_text,
    write_report,
)


def test_format_value_twelve_significant_digits():
    assert format_value(21.24979620313569) == "21.2497962031"
    assert format_value(0.00012345678901234) == "0.000123456789012"
    assert format_value(-0.06627563421306071) == "-0.0662756342131"
    assert format_value(1144699.2121580571) == "1144699.21216"


def test_format_value_non_floats():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(42) == "42"
    assert format_value(Fraction(47, 78)) == "47/78"
    assert format_value("plain") == "plain"


def test_render_csv_shape_and_quoting():
    text = render_csv(("a", "b"), [(1, "x,y"), (2.5, 'say "hi"')])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == '1,"x,y"'
    assert lines[2] == '2.5,"say ""hi"""'
    assert text.endswith("\n")


def test_render_csv_runs_values_through_formatter():
    text = render_csv(("v",), [(21.24979620313569,)])
    assert "21.2497962031" in text


def test_render_json_sorted_and_terminated():
    text = render_json({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_sha256_text_stability():
    assert sha256_text("abc") == hashlib.sha256(b"abc").hexdigest()


# empty, ASCII, non-ASCII, and 8.4 MB of UTF-8
DIGEST_TEXTS = ["", "n,log_L\n10,21.2497962031\n", "ν/p ≡ −1", "ν/p ≡ −1;" * 600_000]


def test_sha256_text_equals_hashlib():
    assert len(DIGEST_TEXTS[-1].encode("utf-8")) >= 8_000_000
    for text in DIGEST_TEXTS:
        assert sha256_text(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_sha256_text_without_the_builtin_module_falls_back_to_hashlib():
    # as on Python 3.12+, where the built-in module is _sha2, not _sha256
    script = (
        "import json, sys\n"
        "sys.modules['_sha256'] = None\n"
        "from quadlcm import reports\n"
        "digests = [reports.sha256_text(t) for t in json.load(sys.stdin)]\n"
        "print(json.dumps(['hashlib' in sys.modules, digests]))\n"
    )
    src = os.path.dirname(os.path.dirname(quadlcm.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(DIGEST_TEXTS),
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    fell_back, digests = json.loads(proc.stdout)
    assert fell_back
    assert digests == [sha256_text(text) for text in DIGEST_TEXTS]


def test_write_report_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    digest = write_report(path, "a,b\n1,2\n")
    assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"
    assert digest == sha256_text("a,b\n1,2\n")


def test_manifest_written_next_to_report(tmp_path):
    out = tmp_path / "data.csv"
    digest = write_report(out, "n,v\n1,2\n")
    manifest = RunManifest(
        command="demo",
        version="0.1.0",
        config={"n": 1},
        wall_seconds={"compute": 0.5},
        files={"data.csv": digest},
    )
    mpath = manifest.write_next_to(out)
    assert str(mpath).endswith("data.csv.manifest.json")
    obj = json.loads(mpath.read_text(encoding="utf-8"))
    assert obj["command"] == "demo"
    assert obj["files"]["data.csv"] == digest
    assert obj["config"] == {"n": 1}


def test_manifest_render_varies_only_in_wall_time():
    a = RunManifest("c", "0.1.0", {"x": 2}, {"compute": 0.1}, {"f": "00"}).render()
    b = RunManifest("c", "0.1.0", {"x": 2}, {"compute": 0.2}, {"f": "00"}).render()
    oa = json.loads(a)
    ob = json.loads(b)
    del oa["wall_seconds"], ob["wall_seconds"]
    assert oa == ob


def test_manifest_render_bytes_are_pinned():
    # keys sorted at every level, two-space indent, one trailing newline
    text = RunManifest(
        "c", "0.1.0", {"x": 2, "a": [1, 2]}, {"compute": 0.1, "write": 0.02}, {"f": "00"}
    ).render()
    assert text == (
        '{\n  "command": "c",\n  "config": {\n    "a": [\n      1,\n      2\n    ],\n'
        '    "x": 2\n  },\n  "files": {\n    "f": "00"\n  },\n  "version": "0.1.0",\n'
        '  "wall_seconds": {\n    "compute": 0.1,\n    "write": 0.02\n  }\n}\n'
    )
