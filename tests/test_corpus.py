"""Every recorded CLI call on the byte corpus writes the same bytes again.

``make_corpus.py`` wrote the inputs under ``tests/corpus/inputs`` and recorded
each call's exit code, stdout, stderr and written files; a call that now
writes one byte differently fails here. Rerun ``python tests/make_corpus.py``
only for a change meant to alter output, and say so where the change is
described.
"""

import json

import pytest

from make_corpus import CORPUS, EXPECTED, run

MANIFEST = json.loads((EXPECTED / "manifest.json").read_text())


@pytest.mark.parametrize("name", MANIFEST)
def test_call_writes_the_recorded_bytes(name, tmp_path, monkeypatch):
    case = MANIFEST[name]
    monkeypatch.chdir(CORPUS)
    code, stdout, stderr = run(case["argv"], tmp_path)
    assert (code, stderr) == (case["exit"], case["stderr"])
    assert stdout.encode() == (EXPECTED / f"{name}.stdout").read_bytes()
    for file in case["files"]:
        assert (tmp_path / file).read_bytes() == (EXPECTED / file).read_bytes(), file
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(case["files"])
