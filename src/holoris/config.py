"""Experiment configuration: JSON schema validation and typed access.

Configurations are plain JSON with four blocks (geometry, impedance,
sweep, output); lengths are expressed in multiples of the wavelength and
impedances in ohms as [re, im] pairs.  Unknown keys are rejected.  The
packaged default configuration reproduces the reference experiment set.
"""

import functools
import importlib.resources
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .geometry import ArrayGeometry, ElementKind, make_dipole_array, make_uniform_grid


@functools.cache
def _validator():
    """The config schema's validator, built once per process: the schema
    is checked against its metaschema here, not on every load."""
    ref = importlib.resources.files("holoris.data") / "config_schema.json"
    schema = json.loads(ref.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def default_config_dict() -> dict:
    ref = importlib.resources.files("holoris.data") / "default_config.json"
    return json.loads(ref.read_text())


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
        error = jsonschema.exceptions.best_match(_validator().iter_errors(data))
        if error is not None:
            path = "/".join(str(p) for p in error.absolute_path) or "<root>"
            raise ConfigError(f"config invalid at {path}: {error.message}") from error
        merged = _merge_defaults(default_config_dict(), data)
        g = merged["geometry"]
        i = merged["impedance"]
        s = merged["sweep"]
        o = merged["output"]
        geometry = GeometryBlock(
            element_kind=ElementKind(g["element_kind"]),
            aperture_x=g["aperture_x"], aperture_z=g["aperture_z"],
            spacing_x=g["spacing_x"], spacing_z=g["spacing_z"],
            dipole_rows=g["dipole_rows"], dipole_gap=g["dipole_gap"],
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
            azimuth_points=s["azimuth_points"],
            spacings=tuple(s["spacings"]),
            gain_spacings=tuple(s["gain_spacings"]),
            eigen_aperture=s["eigen_aperture"],
            eigen_spacings=tuple(s["eigen_spacings"]),
            correlation_max_separation=s["correlation_max_separation"],
            correlation_points=s["correlation_points"],
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


def geometry_to_dict(geom: ArrayGeometry) -> dict:
    """Geometry block (in wavelengths) describing an existing geometry."""
    lam = geom.wavelength
    return {
        "element_kind": geom.element_kind.value,
        "aperture_x": geom.lx / lam,
        "aperture_z": geom.lz / lam,
        "spacing_x": geom.dx / lam,
        "spacing_z": geom.dz / lam,
        "dipole_rows": geom.nz,
        "dipole_gap": (geom.dz - geom.dipole_length) / lam if geom.dipole_length else 0.0,
        "wavelength": lam,
    }
