"""Run configuration: flat dotted-key text files with validated defaults.

Format, one setting per line::

    # comment
    phantom.kind = inhomogeneous
    transform.angles = 180
    seed = 7

The keys are RunConfig's fields: ``section.field`` one level into each
component, the bare name for a top-level field. A value is parsed as the
type of its default and validated by the dataclass owning the field, so
a new field is a key, a DEFAULTS_TABLE row and a run-report line with no
edit here. Errors name the offending line and key. A component is
validated with its values after the last line, so the lines may pass
through a state that could never run; an error names the first line
since the component last built and that line's key. The ``preset`` key
applies a named bundle first, so later lines can still override
individual fields.
"""

from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace

from .harness import _check_run_counts
from .phantoms import Bar, Disk, PhantomSpec
from .ridgelet import DenoiseConfig
from .wavelet import WaveletSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "DEFAULTS_TABLE"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig(DenoiseConfig):
    """Everything an experiment needs besides the subcommand itself: the
    pipeline settings and defaults of DenoiseConfig plus the phantom and
    the run.

    Construction also rejects a seed or sample count that is not an
    integer, a negative seed and fewer samples than the Monte-Carlo
    harness accepts.
    """

    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    samples: int = 1000
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        super().__post_init__()
        _check_run_counts(self.samples, self.seed)


def _pet_preset(cfg):
    """Sinogram-domain preset: counts are treated as direct measurements.

    size 128 gives a 185x128 sinogram, an offset sampling density in the
    range of real scanner geometries; the 8-bit peak makes noisy data
    land near 30 dB PSNR.
    """
    return replace(
        cfg,
        phantom=replace(cfg.phantom, kind="synthetic-sinogram", size=128,
                        background_intensity=255.0),
        wavelet=WaveletSpec("haar", levels=3, mode="undecimated"),
        policy=replace(cfg.policy, selector="sure"),
        entry="sinogram",
    )


_PRESETS = {"pet": _pet_preset}


def _parser(convert, expects):
    def parse(text, key, lineno):
        try:
            return convert(text)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(
                f"line {lineno}: {key} expects {expects}, got {text!r}") from None
    return parse


_SHAPES = {"disk": Disk, "bar": Bar}


def _shapes(text):
    parts = filter(None, (part.strip() for part in text.split(";")))
    return tuple(_SHAPES[name](*map(float, args.split(",")))
                 for name, _, args in (part.partition(":") for part in parts))


_parse_structures = _parser(_shapes, "disk:cx,cy,r or bar:x,y,w,h entries")


def _format_structures(shapes):
    return ";".join(f"{type(shape).__name__.lower()}:"
                    + ",".join(str(v) for v in astuple(shape))
                    for shape in shapes)


# type of a default -> (parser of a config value, defaults-table text)
_CODECS = {
    int: (_parser(int, "an integer"), str),
    float: (_parser(float, "a number"), str),
    str: (_parser(str, "text"), str),
    tuple: (_parse_structures, _format_structures),
}


def _settings(cfg):
    """(key, section, name, value) per setting of cfg, in field order;
    section is None for a top-level field."""
    for outer in fields(cfg):
        value = getattr(cfg, outer.name)
        if not is_dataclass(value):
            yield outer.name, None, outer.name, value
            continue
        for inner in fields(value):
            yield (f"{outer.name}.{inner.name}", outer.name, inner.name,
                   getattr(value, inner.name))


_DEFAULTS = list(_settings(RunConfig()))

_KEYS = {key: (section, name, _CODECS[type(value)][0])
         for key, section, name, value in _DEFAULTS}

DEFAULTS_TABLE = f"{'key':<30}default\n" + "".join(
    f"{key:<30}{_CODECS[type(value)][1](value)}\n"
    for key, _, _, value in _DEFAULTS)


def parse_config(text):
    """Parse config text into a RunConfig; see module docstring."""
    cfg = RunConfig()
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        entries.append((lineno, key, value))

    for lineno, key, value in entries:
        if key == "preset":
            if value not in _PRESETS:
                raise ConfigError(
                    f"line {lineno}: unknown preset {value!r}, "
                    f"known: {sorted(_PRESETS)}")
            cfg = _PRESETS[value](cfg)
    # per section (None for the top level): the field values set so far,
    # the component they last built and, while they fail to build, the
    # first line since they last did, with their latest error
    updates, built, failing = {}, {}, {}
    for lineno, key, value in entries:
        if key == "preset":
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name, parse = _KEYS[key]
        update = updates.setdefault(section, {})
        update[name] = parse(value, key, lineno)
        base = cfg if section is None else getattr(cfg, section)
        try:
            built[section] = replace(base, **update)
            failing.pop(section, None)
        except ValueError as exc:
            failing[section] = failing.get(section, (lineno, key))[:2] + (exc,)
    if failing:
        lineno, key, exc = min(failing.values(), key=lambda fault: fault[0])
        raise ConfigError(f"line {lineno}: {key}: {exc}")
    return replace(built.pop(None, cfg), **built)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
