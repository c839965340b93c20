"""load_manifest builds one Manifest per content: the same bytes return
the same object, other bytes build and check a new one in full."""

import json

import pytest

from oddsym.manifests import (_MAX_CHART_N, _MAX_TIME_DIGITS, ManifestError,
                              load_manifest, parse_time)


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
    assert (first.charts["c"].n, second.charts["c"].n) == (1, 2)


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


PLANE = {"n": 1, "even": ["x1"], "odd": ["th1"]}


@pytest.mark.parametrize("pools, message", [
    ({"charts": {"c": {"n": 1, "even": ["x1"], "odd": ["x1"]}}},
     "duplicate symbol names in table"),
    ({"charts": {"c": PLANE},
      "structures": {"s": {"chart": "c", "bracket": [["0", "0"],
                                                      ["0", "0"]]}}},
     "structure body is degenerate"),
    ({"charts": {"c": PLANE},
      "maps": {"m": {"source": "c", "targets": ["th1", "x1"]}}},
     "target 0 must be even"),
    ({"charts": {"c": PLANE}, "volume_forms": {"v": {"chart": "c",
                                                     "rho": "0"}}},
     "volume density has vanishing body"),
    ({"charts": {"c": PLANE}, "forms": {"w": {"chart": "c", "expr": "th1"}}},
     "forms carry no coordinate odds"),
    ({"charts": {"c": PLANE},
      "surfaces": {"s": {"chart": "c", "x0": "x2", "theta0": "th1"}}},
     "distinguished pair must belong to the chart"),
])
def test_refused_entry_is_a_manifest_error(tmp_path, pools, message):
    # each pool's constructors raise ValueError; the manifest reports it
    # with the constructor's own message
    path = tmp_path / "m.json"
    path.write_text(json.dumps(pools), encoding="utf-8")
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    assert str(info.value) == message


def test_chart_n_cap(tmp_path):
    path = tmp_path / "m.json"
    _write(path, _MAX_CHART_N)
    assert load_manifest(path).charts["c"].n == _MAX_CHART_N
    _write(path, _MAX_CHART_N + 1)
    with pytest.raises(ManifestError,
                       match=f"chart 'n' is larger than {_MAX_CHART_N}"):
        load_manifest(path)


@pytest.mark.parametrize("key", ["even", "aux"])
def test_chart_name_list_cap(tmp_path, key):
    path = tmp_path / "m.json"
    names = [f"y{i}" for i in range(_MAX_CHART_N)]
    path.write_text(json.dumps({"charts": {"c": {"n": 1, key: names}}}),
                    encoding="utf-8")
    table = load_manifest(path).charts["c"].table
    assert set(names) <= set(table.even_symbols if key == "even"
                             else table.aux_odds)
    for count in (_MAX_CHART_N + 1, 100_000):
        names = [f"y{i}" for i in range(count)]
        path.write_text(json.dumps({"charts": {"c": {"n": 1, key: names}}}),
                        encoding="utf-8")
        with pytest.raises(ManifestError, match=f"chart '{key}' lists more "
                           f"than {_MAX_CHART_N} names"):
            load_manifest(path)


@pytest.mark.parametrize("text", [
    f"1e{_MAX_TIME_DIGITS - 1}", f"1E+{_MAX_TIME_DIGITS - 1}",
    f"1e-{_MAX_TIME_DIGITS - 1}", f"0.5e-{_MAX_TIME_DIGITS - 2}"])
def test_time_exponent_up_to_the_digit_limit(text):
    t = parse_time(text)
    assert len(str(max(t.numerator, t.denominator))) <= _MAX_TIME_DIGITS


@pytest.mark.parametrize("text", [
    f"1e{_MAX_TIME_DIGITS}", f"1e-{_MAX_TIME_DIGITS}",
    f"1.5e{_MAX_TIME_DIGITS - 1}", f"1e0_{_MAX_TIME_DIGITS}",
    "1e" + "9" * 5000])
def test_time_exponent_past_the_digit_limit(text):
    with pytest.raises(ManifestError, match="bad time value"):
        parse_time(text)
