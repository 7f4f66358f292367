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

_SCENARIO_KEYS = {
    "l", "m", "noise_variance", "interferer_count", "interferer_energy",
    "seed", "isi", "trials",
}
_SWEEP_KEYS = {
    "mode", "sweep", "sweep_values", "gamma_db", "emax", "k", "sinr_average",
    "bits_per_trial", "randomization_samples",
}
_KNOWN_KEYS = {"schema_version"} | _SCENARIO_KEYS | _SWEEP_KEYS


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


def _pick(values, overrides, key, default, conv):
    """A non-None CLI override, else the converted config value, else ``default``."""
    if overrides.get(key) is not None:
        return overrides[key]
    if key in values:
        return conv(values[key], key)
    return default


def scenario_from_config(values, overrides=None):
    """Build a ScenarioConfig from parsed config values plus CLI overrides."""
    pick = partial(_pick, values, overrides or {})
    return ScenarioConfig(
        chips=pick("l", 8, _as_int),
        paths=pick("m", 3, _as_int),
        noise_variance=pick("noise_variance", 1.0, _as_float),
        interferer_count=(
            _as_range(values["interferer_count"], "interferer_count", _as_int)
            if "interferer_count" in values else (5, 10)
        ),
        interferer_energy=(
            _as_range(values["interferer_energy"], "interferer_energy", _as_float)
            if "interferer_energy" in values else (1.0, 4.0)
        ),
        seed=pick("seed", 0, _as_int),
        isi_enabled=pick("isi", False, _as_bool),
        trials=pick("trials", 10000, _as_int),
    )


def sweep_spec_from_config(values, overrides=None):
    """Build a SweepSpec from parsed config values plus CLI overrides.

    When no ``sweep`` key is present the spec degenerates to a single point
    at the configured gamma_db (still emitted as one table row).
    """
    scenario = scenario_from_config(values, overrides)
    pick = partial(_pick, values, overrides or {})
    mode = pick("mode", "eigen-known-csi", lambda raw, _k: raw)
    sweep = values.get("sweep", "gamma_db").strip().lower()
    gamma_db = pick("gamma_db", 6.0, _as_float)
    if "sweep_values" in values:
        sweep_values = tuple(
            _as_float(item, "sweep_values") for item in _as_list(values["sweep_values"], "sweep_values")
        )
    elif sweep == "gamma_db":
        sweep_values = (gamma_db,)
    elif sweep == "l":
        sweep_values = (float(scenario.chips),)
    else:
        sweep_values = (pick("emax", 100.0, _as_float),)
    return SweepSpec(
        scenario=scenario,
        mode=mode,
        sweep=sweep,
        values=sweep_values,
        gamma_db=gamma_db,
        e_max=pick("emax", 100.0, _as_float),
        receivers=pick("k", 1, _as_int),
        sinr_average=pick("sinr_average", "linear", lambda raw, _k: raw.lower()),
        bits_per_trial=pick("bits_per_trial", 10000, _as_int),
        randomization_samples=pick("randomization_samples", 1000, _as_int),
    )
