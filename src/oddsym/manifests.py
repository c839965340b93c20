"""JSON manifest ingestion: charts, structures, maps and friends.

Expressions inside manifests are grammar text, not JSON trees, so the
files stay hand-editable.  Every referenced name must resolve; schema
violations raise ManifestError, which the command line maps to its
input-error exit code.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

from .bv import VolumeForm
from .forms import DifferentialForm
from .grammar import parse_expr
from .surfaces import AdjustedSurface
from .symbols import TIME_SYMBOL, Chart, SymbolTable, quoted
from .symplectic import OddSymplecticStructure, Semidensity, SuperMap


class ManifestError(ValueError):
    pass


def _expect(cond, message):
    if not cond:
        raise ManifestError(message)


# The largest chart a manifest may declare, and the most names either
# list of a chart may hold.  A chart costs time and memory linear in its
# generators, the generated monomial product (polys._monomial_product)
# with a name per generator among them, so a manifest of a few bytes could
# ask for gigabytes.  Any computation at full theta depth, with its 2^n
# theta monomials, is out of reach long before this n.
_MAX_CHART_N = 1000


def _names(entry, key, default):
    names = entry.get(key, default)
    _expect(isinstance(names, list), f"chart {key!r} must be a list of names")
    _expect(len(names) <= _MAX_CHART_N,
            f"chart {key!r} lists more than {_MAX_CHART_N} names")
    _expect(all(isinstance(name, str) for name in names),
            f"chart {key!r} must be a list of names")
    return list(names)


def _build_chart(entry):
    _expect("n" in entry, "chart manifest needs 'n'")
    n = entry["n"]
    _expect(type(n) is int and n > 0, "chart 'n' must be a positive integer")
    _expect(n <= _MAX_CHART_N, f"chart 'n' is larger than {_MAX_CHART_N}")
    even = _names(entry, "even", [f"x{i}" for i in range(1, n + 1)])
    odd = _names(entry, "odd", [f"th{i}" for i in range(1, n + 1)])
    aux = _names(entry, "aux", [])
    _expect(len(even) >= n, "chart needs at least n even symbols")
    _expect(len(odd) == n, "chart needs exactly n odd symbols")
    if TIME_SYMBOL not in even:
        even.append(TIME_SYMBOL)
    frames = [f"xi{i}" for i in range(1, n + 1)]
    taken = set(even) | set(odd) | set(aux)
    if any(name in taken for name in frames):
        frames = []
    table = SymbolTable(tuple(even), tuple(odd), tuple(frames), tuple(aux))
    return Chart(table, tuple(even[:n]), tuple(odd))


# what one object of each pool is called in messages
_KINDS = {"charts": "chart", "structures": "structure", "maps": "map",
          "volume_forms": "volume form", "semidensities": "semidensity",
          "forms": "form", "surfaces": "surface"}


class _Section(dict):
    """A command's manifest section; a missing key is a ManifestError."""

    def __init__(self, name, entry):
        super().__init__(entry)
        self.name = name

    def __missing__(self, key):
        raise ManifestError(f"{self.name!r} section has no {key!r} entry")


class Manifest:
    """Resolved named objects plus the raw document.

    ``load_manifest`` hands one Manifest to every request on the same
    bytes, so nothing changes it once it is built.
    """

    def __init__(self, document):
        _expect(isinstance(document, dict), "manifest must be a JSON object")
        self.raw = document
        self.charts = self._pool("charts", _build_chart)
        self.structures = self._pool("structures", self._build_structure)
        self.maps = self._pool("maps", self._build_map)
        self.volume_forms = self._pool("volume_forms", self._build_volume)
        self.semidensities = self._pool("semidensities",
                                        self._build_semidensity)
        self._standard_charts = {}  # n -> the chart of forms declared by n
        self.forms = self._pool("forms", self._build_form)
        self.surfaces = self._pool("surfaces", self._build_surface)

    def _pool(self, pool, build):
        """The named objects of one pool, in document order; an entry
        that its constructor refuses with a ValueError is a
        ManifestError."""
        entries = self.raw.get(pool, {})
        _expect(isinstance(entries, dict), f"{pool!r} must be an object")
        built = {}
        for name, entry in entries.items():
            _expect(isinstance(entry, dict),
                    f"{_KINDS[pool]} {quoted(name)} must be an object")
            try:
                built[name] = build(entry)
            except ValueError as exc:
                raise ManifestError(str(exc)) from None
        return built

    # -- resolution helpers -------------------------------------------------

    def named(self, pool, name):
        """The object called ``name`` in a pool ("charts", "maps", ...)."""
        objects = getattr(self, pool)
        _expect(isinstance(name, str) and name in objects,
                f"unknown {_KINDS[pool]} {quoted(name)}")
        return objects[name]

    def parse(self, chart, text):
        _expect(isinstance(text, str),
                f"expression {quoted(text)} is not a string")
        try:
            return parse_expr(text, chart.table)
        except ValueError as exc:
            raise ManifestError(
                f"bad expression {quoted(text)}: {exc}") from None

    def _build_structure(self, entry):
        chart = self.named("charts", entry.get("chart"))
        rows = entry.get("bracket")
        size = 2 * chart.n
        _expect(isinstance(rows, list) and len(rows) == size,
                "bracket must be a 2n x 2n array")
        matrix = []
        for row in rows:
            _expect(isinstance(row, list) and len(row) == size,
                    "bracket must be a 2n x 2n array")
            matrix.append([self.parse(chart, text) for text in row])
        return OddSymplecticStructure(chart, matrix)

    def _build_map(self, entry):
        source = self.named("charts", entry.get("source"))
        target = self.named("charts", entry.get("target",
                                                   entry.get("source")))
        targets = entry.get("targets")
        _expect(isinstance(targets, list) and len(targets) == 2 * target.n,
                "map needs 2n target expressions")
        exprs = [self.parse(source, text) for text in targets]
        return SuperMap(source, target, exprs)

    def _build_volume(self, entry):
        chart = self.named("charts", entry.get("chart"))
        return VolumeForm(self.parse(chart, entry.get("rho", "")), chart)

    def _build_semidensity(self, entry):
        chart = self.named("charts", entry.get("chart"))
        return Semidensity(self.parse(chart, entry.get("coefficient", "")),
                           chart)

    def _build_form(self, entry):
        if "chart" in entry:
            chart = self.named("charts", entry["chart"])
        else:
            _expect("n" in entry, "form manifest needs 'chart' or 'n'")
            n = entry["n"]
            chart = self._standard_charts.get(n) if type(n) is int else None
            if chart is None:
                chart = self._standard_charts[n] = _build_chart({"n": n})
        _expect(len(chart.table.frame_odds) >= chart.n,
                "form chart lacks frame symbols xi1..xin")
        return DifferentialForm(self.parse(chart, entry.get("expr", "")),
                                chart)

    def _build_surface(self, entry):
        chart = self.named("charts", entry.get("chart"))
        return AdjustedSurface(chart, entry.get("x0"), entry.get("theta0"))

    def section(self, name):
        _expect(name in self.raw, f"manifest has no {name!r} section")
        entry = self.raw[name]
        _expect(isinstance(entry, dict), f"{name!r} section must be an object")
        return _Section(name, entry)


def load_manifest(path):
    """The Manifest in the file at ``path``, which is read on every call;
    the same bytes as on the previous call return the same Manifest."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from None
    return _manifest_of(data)


# One entry: a caller's requests on one manifest come in a row.  A failed
# load is not cached, so it raises again on the next call.
@functools.lru_cache(maxsize=1)
def _manifest_of(data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid UTF-8: {exc}") from None
    # json.loads raises a JSONDecodeError, a plain ValueError for an
    # integer past Python's limit on the digits it converts, or a
    # RecursionError for nesting past Python's recursion limit
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    return Manifest(document)


# A time's numerator and denominator may have as many digits as a grammar
# literal: Python's default limit on int() of a string.  Fraction builds
# 10^e for an exponent e first, so a larger e is refused before it runs.
_MAX_TIME_DIGITS = 4300

_EXPONENT = re.compile(r"\s*[-+]?([\d_]*(?:\.[\d_]*)?)[eE][-+]?([\d_]+)\s*")


def parse_time(value):
    if value == "formal":
        return "formal"
    text = str(value)
    match = _EXPONENT.fullmatch(text)
    if match:
        # the mantissa's digits and |e| bound the digits of the numerator
        # and of the denominator
        mantissa, exponent = match.groups()
        digits = sum(ch.isdigit() for ch in mantissa)
        exponent = exponent.replace("_", "").lstrip("0") or "0"
        if len(exponent) > len(str(_MAX_TIME_DIGITS)) or \
                digits + int(exponent) > _MAX_TIME_DIGITS:
            raise ManifestError(f"bad time value {quoted(value)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ManifestError(f"bad time value {quoted(value)}") from None
