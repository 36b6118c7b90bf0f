"""The bundled corpus is exactly what tools/gen_corpus.py builds."""

import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gen_corpus.py"


def test_bundled_corpus_is_byte_identical_to_a_regeneration():
    out = subprocess.run([sys.executable, str(TOOL), "--check"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


def test_check_reports_a_changed_or_missing_file(tmp_path):
    spec = importlib.util.spec_from_file_location("gen_corpus", TOOL)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    fresh, bundled = tmp_path / "fresh", tmp_path / "bundled"
    gen.generate(fresh)
    gen.generate(bundled)
    assert gen.differences(fresh, bundled) == []
    doc = bundled / "kxk.json"
    doc.write_bytes(doc.read_bytes() + b" ")
    (bundled / "kz2.json").unlink()
    assert gen.differences(fresh, bundled) == ["kxk.json", "kz2.json"]
