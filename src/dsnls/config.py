"""Line-oriented experiment config files.

Format: UTF-8 text, ``#`` comments, ``[section]`` headers, ``key = value``
lines.  Unknown sections or keys are rejected with the offending line number;
so are duplicates and type errors.  Step sizes accept the exact power form
``2^-6`` (or ``2**-6``) besides plain decimal floats.

Sections and keys:

    [model]       alpha, lambda, epsilon
    [grid]        J
    [noise]       P, spectrum, seed
    [time]        tau, T
    [experiment]  kind, M, record_stride, initial, initials, observables,
                  tau_ladder, horizons

`spectrum` is ``power-law(r)`` or ``explicit: v1, v2, ...`` (P entries).
`initial` names a profile or gives ``explicit: z1, z2, ...`` (J complex
entries).  An error or order study's `tau` is its fine reference step.
Defaults are applied for every omitted optional key and echoed into the
run manifest's config echo, its one record of the config.

Overrides (``key=value`` or ``section.key=value``, the CLI's `--set`) replace
a key's value.  A preset is the document `presets.BASE` with its own
overrides, so `--config` and `--preset` share this one parser.
"""

from __future__ import annotations

from .harness import EXPERIMENT_KINDS, ExperimentConfig
from .model import GridSpec, ModelParams, NoiseSpec, spectrum

__all__ = ["ConfigError", "parse_config", "serialize_config", "apply_overrides"]


class ConfigError(ValueError):
    """Config rejected; message names the file line or override, and key, where known."""


def _parse_number(text: str, where: str, key: str) -> float:
    tok = text.strip().replace("**", "^")
    try:
        if "^" in tok:
            base, exp = tok.split("^", 1)
            return float(base) ** float(exp)
        return float(tok)
    except ValueError:
        raise ConfigError(f"{where}: key '{key}': cannot parse number {text!r}") from None


def _parse_int(text: str, where: str, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: key '{key}': cannot parse integer {text!r}") from None


def _parse_str_list(text: str, where: str, key: str) -> tuple:
    items = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not items:
        raise ConfigError(f"{where}: key '{key}': empty list")
    return items


def _parse_number_list(text: str, where: str, key: str) -> tuple:
    return tuple(_parse_number(tok, where, key) for tok in text.split(",") if tok.strip())


def _parse_text(text: str, where: str, key: str) -> str:
    return text.strip()


def _parse_kind(text: str, where: str, key: str) -> str:
    kind = text.strip()
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"{where}: key '{key}': unknown experiment kind {kind!r}")
    return kind


def _optional(parse, empty):
    """`parse`, except that an empty value stands for `empty`."""
    return lambda text, where, key: parse(text, where, key) if text else empty


#: Every config key as (section, key, parser, default), in file order.  A
#: default of None marks a required key; other defaults are raw values, parsed
#: like the file's own.  Parsers take (text, where, key), `where` naming the
#: file line or the override that gave the text; keys are unique across
#: sections and name the value they produce.
_KEYS = (
    ("model", "alpha", _parse_number, None),
    ("model", "lambda", _parse_int, None),
    ("model", "epsilon", _parse_number, None),
    ("grid", "J", _parse_int, None),
    ("noise", "P", _parse_int, None),
    ("noise", "spectrum", _parse_text, None),
    ("noise", "seed", _parse_int, "0"),
    ("time", "tau", _parse_number, None),
    ("time", "T", _parse_number, None),
    ("experiment", "kind", _parse_kind, None),
    ("experiment", "M", _parse_int, "1"),
    ("experiment", "record_stride", _parse_int, "1"),
    ("experiment", "initial", _parse_text, "sine"),
    ("experiment", "initials", _optional(_parse_str_list, ()), ""),
    ("experiment", "observables", _parse_str_list, "exp-norm2, sin-norm2"),
    ("experiment", "tau_ladder", _parse_number_list, ""),
    ("experiment", "horizons", _parse_number_list, ""),
)

_SECTION_OF = {key: section for section, key, _, _ in _KEYS}


def _scan(text: str) -> dict:
    """Raw (section, key) -> (value, "line N") map with duplicate/unknown checks."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_OF.values():
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if _SECTION_OF.get(key) != section:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in section [{section}]")
        entries[(section, key)] = (value, f"line {lineno}")
    return entries


def apply_overrides(entries: dict, overrides) -> dict:
    """Apply ``key=value`` / ``section.key=value`` pairs on top of parsed entries."""
    out = dict(entries)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        section, _, name = key.rpartition(".")
        if _SECTION_OF.get(name) is None or section not in ("", _SECTION_OF[name]):
            raise ConfigError(f"override {item!r}: unknown key '{key}'")
        out[(_SECTION_OF[name], name)] = (value, f"override {item!r}")
    return out


def build_config(entries: dict) -> ExperimentConfig:
    """Typed, validated ExperimentConfig from raw entries (defaults applied)."""
    missing = [f"[{s}] {k}" for s, k, _, default in _KEYS
               if default is None and (s, k) not in entries]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    v = {}
    for section, key, parse, default in _KEYS:
        text, where = entries.get((section, key), (default, "default"))
        v[key] = parse(text, where, key)

    spec_desc, P = v.pop("spectrum"), v.pop("P")
    try:
        if spec_desc.startswith("explicit:"):
            eta = spectrum([float(tok) for tok in spec_desc[len("explicit:"):].split(",")], P)
        else:
            eta = spectrum(spec_desc, P)
        return ExperimentConfig(
            params=ModelParams(alpha=v.pop("alpha"), lam=v.pop("lambda"),
                               epsilon=v.pop("epsilon")),
            grid=GridSpec(J=v.pop("J")),
            noise=NoiseSpec(P=P, eta=eta, seed=v.pop("seed")),
            spectrum_desc=spec_desc,
            **v,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _config_values(config: ExperimentConfig) -> dict:
    """The value behind every key of `_KEYS`, the inverse of `build_config`."""
    return {
        "alpha": config.params.alpha, "lambda": config.params.lam,
        "epsilon": config.params.epsilon, "J": config.grid.J, "P": config.noise.P,
        "spectrum": config.spectrum_desc, "seed": config.noise.seed,
        "tau": config.tau, "T": config.T, "kind": config.kind, "M": config.M,
        "record_stride": config.record_stride, "initial": config.initial,
        "initials": config.initials, "observables": config.observables,
        "tau_ladder": config.tau_ladder, "horizons": config.horizons,
    }


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse a config document, apply overrides, validate, return the config."""
    return build_config(apply_overrides(_scan(text), overrides))


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Keys whose value is empty are left out.
    """
    values = _config_values(config)
    lines, current = [], None
    for section, key, _, _ in _KEYS:
        if values[key] == ():
            continue
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        lines.append(f"{key} = {_format_value(values[key])}")
    return "\n".join(lines[1:]) + "\n"
