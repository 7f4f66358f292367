"""Flat key-value config files for scenarios and sweeps.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Ranges are written ``lo:hi``, lists comma-separated.  Every
file must carry ``schema_version = 1``.  See docs/config.md for the full
schema and one example per design mode.
"""

from functools import partial

from .channel import ScenarioConfig
from .errors import ValidationError
from .harness import SweepSpec

__all__ = ["SCHEMA_VERSION", "parse_config_text", "load_config_file",
           "scenario_from_config", "sweep_spec_from_config"]

SCHEMA_VERSION = 1


def parse_config_text(text, source="<config>"):
    """Parse the flat key-value format into a {key: raw-string} dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in values:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value
    if "schema_version" not in values:
        raise ValidationError(f"{source}: missing required key 'schema_version'")
    if _as_int(values["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"{source}: unsupported schema_version {values['schema_version']} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return values


def load_config_file(path):
    with open(path) as handle:
        return parse_config_text(handle.read(), source=str(path))


def _as_int(raw, key):
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: expected integer, got {raw!r}") from exc


def _as_float(raw, key):
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: expected number, got {raw!r}") from exc


def _as_bool(raw, key):
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"config key {key!r}: expected true/false, got {raw!r}")


def _as_range(raw, key, cast):
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValidationError(f"config key {key!r}: expected 'lo:hi', got {raw!r}")
    return (cast(parts[0].strip(), key), cast(parts[1].strip(), key))


def _as_list(raw, key):
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValidationError(f"config key {key!r}: empty list")
    return items


# Every key in one place: the ScenarioConfig and SweepSpec fields it sets,
# and the parser of its raw text (``sweep_values`` and ``schema_version``
# are read on their own).  An unset key keeps the field's dataclass default.
_SCENARIO_FIELDS = {
    "l": ("chips", _as_int),
    "m": ("paths", _as_int),
    "noise_variance": ("noise_variance", _as_float),
    "interferer_count": ("interferer_count", partial(_as_range, cast=_as_int)),
    "interferer_energy": ("interferer_energy", partial(_as_range, cast=_as_float)),
    "seed": ("seed", _as_int),
    "isi": ("isi_enabled", _as_bool),
    "trials": ("trials", _as_int),
}
_SWEEP_FIELDS = {
    "mode": ("mode", lambda raw, _key: raw),
    "sweep": ("sweep", lambda raw, _key: raw.strip().lower()),
    "gamma_db": ("gamma_db", _as_float),
    "emax": ("e_max", _as_float),
    "k": ("receivers", _as_int),
    "sinr_average": ("sinr_average", lambda raw, _key: raw.lower()),
    "bits_per_trial": ("bits_per_trial", _as_int),
}
_KNOWN_KEYS = {"schema_version", "sweep_values"} | _SCENARIO_FIELDS.keys() | _SWEEP_FIELDS.keys()


def _given(table, values, overrides):
    """The fields of ``table`` whose key is set, by a non-None override or
    else by the config value."""
    given = {}
    for key, (name, parse) in table.items():
        if overrides.get(key) is not None:
            given[name] = overrides[key]
        elif key in values:
            given[name] = parse(values[key], key)
    return given


def scenario_from_config(values, overrides=None):
    """Build a ScenarioConfig from parsed config values plus CLI overrides."""
    return ScenarioConfig(**_given(_SCENARIO_FIELDS, values, overrides or {}))


def sweep_spec_from_config(values, overrides=None):
    """Build a SweepSpec from parsed config values plus CLI overrides.

    The mode defaults to ``eigen-known-csi`` and the swept variable to
    ``gamma_db``.  Without a ``sweep_values`` key the spec degenerates to a
    single point, the resolved value of the swept field (gamma_db, chips or
    e_max), still emitted as one table row.
    """
    scenario = scenario_from_config(values, overrides)
    given = {"mode": "eigen-known-csi", "sweep": "gamma_db",
             **_given(_SWEEP_FIELDS, values, overrides or {})}
    if "sweep_values" in values:
        points = tuple(_as_float(item, "sweep_values")
                       for item in _as_list(values["sweep_values"], "sweep_values"))
    elif given["sweep"] == "l":
        points = (float(scenario.chips),)
    else:
        name = "e_max" if given["sweep"] == "emax" else "gamma_db"
        # A dataclass field's default is also its class attribute.
        points = (given.get(name, getattr(SweepSpec, name)),)
    return SweepSpec(scenario=scenario, values=points, **given)
