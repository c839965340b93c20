"""load_manifest builds one Manifest per content: the same bytes return
the same object, other bytes build and check a new one in full."""

import json

import pytest

from oddsym.manifests import ManifestError, load_manifest


def _write(path, n):
    path.write_text(json.dumps({"charts": {"c": {"n": n}}}),
                    encoding="utf-8")


def test_same_bytes_return_the_same_manifest(tmp_path):
    path = tmp_path / "m.json"
    _write(path, 1)
    first = load_manifest(path)
    assert load_manifest(path) is first
    # the key is the content, not the path
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    assert load_manifest(copy) is first


def test_new_bytes_build_a_new_manifest(tmp_path):
    path = tmp_path / "m.json"
    _write(path, 1)
    first = load_manifest(path)
    _write(path, 2)
    second = load_manifest(path)
    assert second is not first
    assert (first.chart("c").n, second.chart("c").n) == (1, 2)


def test_failed_load_raises_on_every_call(tmp_path):
    path = tmp_path / "m.json"
    _write(path, 0)
    for _ in range(2):
        with pytest.raises(ManifestError,
                           match="chart 'n' must be a positive integer"):
            load_manifest(path)


def test_unused_broken_entry_still_fails(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "charts": {"c": {"n": 1}},
        "volume_forms": {"unused": {"chart": "c", "rho": "x1 +"}},
        "delta0": {"chart": "c", "f": "x1*th1"},
    }), encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ManifestError, match="bad expression 'x1 \\+'"):
            load_manifest(path)


def test_manifest_not_utf8_is_a_manifest_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff")
    with pytest.raises(ManifestError, match="not valid UTF-8"):
        load_manifest(path)
