"""Experiment configuration: JSON schema validation and typed access.

Configurations are plain JSON with four blocks (geometry, impedance,
sweep, output); lengths are expressed in multiples of the wavelength and
impedances in ohms as [re, im] pairs.  Unknown keys are rejected.  The
packaged default configuration reproduces the reference experiment set.

The packaged JSON schema (draft 2020-12) is checked by a small walker that
gives the errors, messages and best-match choice of the reference Python
validator; the tests keep that validator as an oracle.
"""

import importlib.resources
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .geometry import (ArrayGeometry, ElementKind, _count_from_ratio, make_dipole_array,
                       make_uniform_grid)
from .outputs import impedance_label, spacing_label

# JSON Schema (draft 2020-12) types; as there, 181.0 is an integer and True is no number
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
_NUMBER = _TYPES["number"]

# keyword -> its error message for an instance, or a falsy value when the
# instance passes; the texts are the reference validator's
_LEAF_KEYWORDS = {
    "type": lambda x, t: not _TYPES[t](x) and f"{x!r} is not of type {t!r}",
    "enum": lambda x, e: x not in e and f"{x!r} is not one of {e!r}",
    "minItems": lambda x, n: isinstance(x, list) and len(x) < n
    and f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}",
    "maxItems": lambda x, n: isinstance(x, list) and len(x) > n
    and f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}",
    "minimum": lambda x, m: _NUMBER(x) and x < m
    and f"{x!r} is less than the minimum of {m!r}",
    "exclusiveMinimum": lambda x, m: _NUMBER(x) and x <= m
    and f"{x!r} is less than or equal to the minimum of {m!r}",
    "maximum": lambda x, m: _NUMBER(x) and x > m
    and f"{x!r} is greater than the maximum of {m!r}",
}
_KEYWORDS = frozenset(_LEAF_KEYWORDS) | {"$ref", "properties", "additionalProperties", "items"}


def _schema_errors(instance, schema: dict, root: dict, path: tuple = ()):
    """Yield (path, message) for each way ``instance`` breaks ``schema``,
    in the reference validator's order: keyword by keyword as the schema
    lists them, unexpected keys sorted by ``str``.  ``additionalProperties``
    is taken to be ``false`` and ``$ref`` to point into ``root``."""
    for key, value in schema.items():
        if key == "$ref":
            target = root
            for part in value.removeprefix("#/").split("/"):
                target = target[part]
            yield from _schema_errors(instance, target, root, path)
        elif key == "properties" and isinstance(instance, dict):
            for name, sub in value.items():
                if name in instance:
                    yield from _schema_errors(instance[name], sub, root, path + (name,))
        elif key == "additionalProperties" and isinstance(instance, dict):
            extras = sorted((k for k in instance if k not in schema.get("properties", {})), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "items" and isinstance(instance, list):
            for index, item in enumerate(instance):
                yield from _schema_errors(item, value, root, path + (index,))
        elif key in _LEAF_KEYWORDS and (message := _LEAF_KEYWORDS[key](instance, value)):
            yield path, message


def _load_json(name: str) -> dict:
    return json.loads((importlib.resources.files("holoris.data") / name).read_text())


def _schema_error(data) -> tuple[tuple, str] | None:
    """The (path, message) of the error the reference validator's
    ``best_match`` picks for ``data`` under the packaged schema, or None
    when ``data`` is valid: the error nearest the root, the last path in
    sort order among those, the first yielded on ties."""
    schema = _load_json("config_schema.json")
    return max(_schema_errors(data, schema, schema), key=lambda e: (-len(e[0]), e[0]),
               default=None)


def _non_finite(value, path: tuple = ()) -> tuple[tuple, str] | None:
    """The (path, message) of the first NaN or infinite number in
    ``value``, or None; JSON ``NaN`` fails no bound of the schema."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, f"{value!r} is not a finite number"
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        if (found := _non_finite(item, path + (key,))) is not None:
            return found
    return None


def _spacing_error(merged: dict) -> tuple[tuple, str] | None:
    """The (path, message) of the first spacing that does not fit its
    aperture a whole number of times, as the geometry builders would find
    it mid-run: x spacings against ``aperture_x`` (``eigen_spacings``
    against ``eigen_aperture``), and an isotropic grid's ``spacing_z``
    against ``aperture_z``."""
    g, s = merged["geometry"], merged["sweep"]
    checks = [("x", ("geometry", "spacing_x"), g["aperture_x"], g["spacing_x"])]
    if g["element_kind"] == ElementKind.ISOTROPIC.value:
        checks.append(("z", ("geometry", "spacing_z"), g["aperture_z"], g["spacing_z"]))
    for key, aperture in (("spacings", g["aperture_x"]), ("gain_spacings", g["aperture_x"]),
                          ("eigen_spacings", s["eigen_aperture"])):
        checks += [("x", ("sweep", key, i), aperture, sp) for i, sp in enumerate(s[key])]
    lam = g["wavelength"]
    for axis, path, aperture, spacing in checks:
        try:
            _count_from_ratio(aperture * lam, spacing * lam, axis)
        except ConfigError as exc:
            return path, str(exc)
    return None


def _duplicate_error(merged: dict) -> tuple[tuple, str] | None:
    """The (path, message) of the first swept spacing or port case whose
    file label repeats an earlier entry's in its list: its CSVs would
    overwrite that entry's, and its ICSI column would repeat."""
    keys = [("sweep", key) for key in ("spacings", "gain_spacings", "eigen_spacings")]
    keys += [("impedance", key) for key in ("z_source_cases", "z_load_cases")]
    for block, key in keys:
        first = {}
        for i, value in enumerate(merged[block][key]):
            label = (spacing_label(value) if block == "sweep"
                     else impedance_label("", _pair(value)))
            j = first.setdefault(label, i)
            if j != i:
                return (block, key, i), f"{value!r} has the file label of entry {j}"
    return None


def default_config_dict() -> dict:
    return _load_json("default_config.json")


def _pair(value) -> complex:
    return complex(float(value[0]), float(value[1]))


@dataclass(frozen=True)
class GeometryBlock:
    element_kind: ElementKind
    aperture_x: float
    aperture_z: float
    spacing_x: float
    spacing_z: float
    dipole_rows: int
    dipole_gap: float
    wavelength: float

    def build(self, spacing_x: float | None = None) -> ArrayGeometry:
        """Construct the geometry, optionally overriding the x spacing
        (sweeps vary it while the vertical layout stays fixed)."""
        sx = self.spacing_x if spacing_x is None else spacing_x
        lam = self.wavelength
        if self.element_kind is ElementKind.HALF_WAVE_DIPOLE:
            return make_dipole_array(
                lx=self.aperture_x * lam, dx=sx * lam,
                n_rows=self.dipole_rows, gap=self.dipole_gap * lam,
                wavelength=lam,
            )
        return make_uniform_grid(
            lx=self.aperture_x * lam, lz=self.aperture_z * lam,
            dx=sx * lam, dz=self.spacing_z * lam, wavelength=lam,
        )


@dataclass(frozen=True)
class ImpedanceBlock:
    model: str
    z_antenna: complex
    z_source: complex
    z_load: complex
    r_iso: float
    z_source_cases: tuple[complex, ...]
    z_load_cases: tuple[complex, ...]


@dataclass(frozen=True)
class SweepBlock:
    zenith_deg: float
    azimuth_points: int
    spacings: tuple[float, ...]
    gain_spacings: tuple[float, ...]
    eigen_aperture: float
    eigen_spacings: tuple[float, ...]
    correlation_max_separation: float
    correlation_points: int


@dataclass(frozen=True)
class OutputBlock:
    directory: str


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryBlock
    impedance: ImpedanceBlock
    sweep: SweepBlock
    output: OutputBlock

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        error = _schema_error(data) or _non_finite(data)
        if error is None:
            merged = _merge_defaults(default_config_dict(), data)
            error = _spacing_error(merged) or _duplicate_error(merged)
        if error is not None:
            path, message = error
            raise ConfigError(f"config invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")
        g = merged["geometry"]
        i = merged["impedance"]
        s = merged["sweep"]
        o = merged["output"]
        geometry = GeometryBlock(
            element_kind=ElementKind(g["element_kind"]),
            aperture_x=g["aperture_x"], aperture_z=g["aperture_z"],
            spacing_x=g["spacing_x"], spacing_z=g["spacing_z"],
            dipole_rows=int(g["dipole_rows"]), dipole_gap=g["dipole_gap"],
            wavelength=g["wavelength"],
        )
        r_iso = _pair(i["r_iso"])
        if r_iso.imag != 0.0 or r_iso.real <= 0.0:
            raise ConfigError(f"r_iso must be a positive resistance, got {r_iso}")
        impedance = ImpedanceBlock(
            model=i["model"],
            z_antenna=_pair(i["z_antenna"]),
            z_source=_pair(i["z_source"]),
            z_load=_pair(i["z_load"]),
            r_iso=r_iso.real,
            z_source_cases=tuple(_pair(p) for p in i["z_source_cases"]),
            z_load_cases=tuple(_pair(p) for p in i["z_load_cases"]),
        )
        sweep = SweepBlock(
            zenith_deg=s["zenith_deg"],
            azimuth_points=int(s["azimuth_points"]),
            spacings=tuple(s["spacings"]),
            gain_spacings=tuple(s["gain_spacings"]),
            eigen_aperture=s["eigen_aperture"],
            eigen_spacings=tuple(s["eigen_spacings"]),
            correlation_max_separation=s["correlation_max_separation"],
            correlation_points=int(s["correlation_points"]),
        )
        output = OutputBlock(directory=o["directory"])
        if geometry.element_kind is ElementKind.ISOTROPIC and impedance.model == "dipole":
            raise ConfigError("dipole impedance model requires half_wave_dipole elements")
        if (geometry.element_kind is ElementKind.HALF_WAVE_DIPOLE
                and geometry.dipole_rows > 1 and geometry.dipole_gap == 0):
            raise ConfigError("dipole_gap 0 with several dipole_rows makes stacked dipoles touch")
        return cls(geometry=geometry, impedance=impedance, sweep=sweep, output=output)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
            ) from exc
        return cls.from_dict(data)

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls.from_dict({})


def _merge_defaults(defaults: dict, override: dict) -> dict:
    merged = {}
    for key, base in defaults.items():
        if isinstance(base, dict):
            merged[key] = _merge_defaults(base, override.get(key, {}))
        else:
            merged[key] = override.get(key, base)
    return merged

