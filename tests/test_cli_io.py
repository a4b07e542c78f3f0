import re
import warnings
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from xml.etree import ElementTree

import numpy as np
import pytest

import poissonridge.cli as cli
import poissonridge.fileio as fileio
import poissonridge.harness as harness
from poissonridge.cli import main
from poissonridge.config import (DEFAULTS_TABLE, ConfigError, RunConfig,
                                 load_config, parse_config)
from poissonridge.fileio import (read_csv, read_pgm, read_sinogram, write_csv,
                                 write_pgm, write_sinogram)
from poissonridge.harness import LineFit
from poissonridge.phantoms import Bar, Disk, make_phantom, sample_poisson
from poissonridge.radon import drt_gdb, drt_rotation
from poissonridge.ridgelet import DenoiseConfig, denoise_full
from poissonridge.seeding import derive_rng
from poissonridge.svgplot import emit_scatter_svg


# --- config ------------------------------------------------------------

def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.transform.variant == "rotation"
    assert cfg.transform.angles == 180
    assert cfg.wavelet.mode == "undecimated"
    assert cfg.policy.selector == "sure"
    assert (cfg.entry, cfg.samples, cfg.seed) == ("image", 1000, 0)
    assert cfg.output_dir == "out"


def test_parse_overrides_comments_and_blank_lines():
    cfg = parse_config("""
# full line comment
phantom.kind = inhomogeneous
phantom.size = 32
transform.variant = gdb   # trailing comment
policy.selector = oracle-erm
samples = 250
seed = 9\t# tab before the comment
output_dir = /x/hash#dir
""")
    # a '#' opens a comment only at the start of a line or after whitespace
    assert cfg.output_dir == "/x/hash#dir"
    assert cfg.phantom.kind == "inhomogeneous"
    assert cfg.phantom.size == 32
    assert cfg.transform.variant == "gdb"
    assert cfg.policy.selector == "oracle-erm"
    assert cfg.samples == 250 and cfg.seed == 9


@pytest.mark.parametrize("component, name, value", [
    ("policy", "selector", "oracle"),
    ("transform", "variant", "fan"),
    (None, "entry", "sinogram "),
])
def test_a_built_config_cannot_be_changed_in_place(component, name, value):
    # an assignment would skip the checks that replace runs, and the
    # dispatch would then run something else: sure with no reference, a
    # rotation projection, the image entry
    cfg = parse_config("")
    record = cfg if component is None else getattr(cfg, component)
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, value)
    with pytest.raises(ValueError):
        replace(record, **{name: value})
    assert cfg == RunConfig()


def test_structures_parse_and_reject():
    cfg = parse_config(
        "phantom.structures = disk:0.5,0.5,0.1 ; bar:0.2,0.2,0.1,0.4\n")
    assert cfg.phantom.structures == (Disk(0.5, 0.5, 0.1), Bar(0.2, 0.2, 0.1, 0.4))
    with pytest.raises(ConfigError, match="disk:cx,cy,r"):
        parse_config("phantom.structures = blob:1,2\n")


def test_errors_carry_line_number_and_field_name():
    with pytest.raises(ConfigError, match=r"line 3.*unknown key.*'transform\.rays'"):
        parse_config("seed = 1\n\ntransform.rays = 90\n")
    with pytest.raises(ConfigError, match=r"line 1.*samples expects an integer"):
        parse_config("samples = many\n")
    with pytest.raises(ConfigError, match=r"line 2.*background_intensity"):
        parse_config("seed = 0\nphantom.background_intensity = -3\n")
    with pytest.raises(ConfigError, match=r"line 1.*expected 'key = value'"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match=r"^line 2: empty key"):
        parse_config("seed = 1\n = 3\n")
    with pytest.raises(ConfigError, match=r"line 1.*seed must be >= 0"):
        parse_config("seed = -1\n")
    # the synthetic sinogram's peak is phantom.background_intensity
    with pytest.raises(ConfigError,
                       match=r"^line 2: unknown key 'phantom\.peak_factor'"):
        parse_config("preset = pet\nphantom.peak_factor = 2\n")
    # every detail band gets its own threshold; there is no pooled switch
    with pytest.raises(ConfigError,
                       match=r"^line 2: unknown key 'policy\.per_band'"):
        parse_config("seed = 0\npolicy.per_band = false\n")


def test_component_validation_is_wrapped_with_location():
    with pytest.raises(ConfigError, match=r"line 1.*transform\.interp"):
        parse_config("transform.interp = bicubic\n")
    with pytest.raises(ConfigError, match=r"line 1.*wavelet\.levels"):
        parse_config("wavelet.levels = 0\n")
    with pytest.raises(ConfigError, match=r"line 2.*policy\.fixed_scale"):
        parse_config("policy.selector = fixed\npolicy.fixed_scale = nan\n")


def test_pet_preset_applies_first_then_overrides():
    plain = parse_config("preset = pet\n")
    assert plain.phantom.kind == "synthetic-sinogram"
    assert plain.phantom.size == 128
    assert plain.phantom.background_intensity == 255.0
    assert plain.wavelet.levels == 3 and plain.wavelet.mode == "undecimated"
    assert plain.policy.selector == "sure"
    assert plain.entry == "sinogram"

    cfg = parse_config("phantom.size = 32\npreset = pet\nsamples = 500\n")
    assert cfg.phantom.size == 32  # file lines beat the preset bundle
    assert cfg.phantom.kind == "synthetic-sinogram"
    assert cfg.samples == 500
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("preset = ct\n")


def test_old_selector_aliases_are_rejected():
    # the old aliases no longer normalize: each selector has one
    # spelling (sure, oracle-erm or fixed) and the others fail at parse
    for old in ("sure-gaussian-approx", "oracle"):
        with pytest.raises(ConfigError, match=(
                f"line 1: policy.selector: unknown selector '{old}'")):
            parse_config(f"policy.selector = {old}\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.cfg")


def test_defaults_table_lists_every_dotted_key():
    for key in ("phantom.kind", "transform.interp", "wavelet.mode",
                "policy.grid_max", "entry", "samples", "output_dir"):
        assert key in DEFAULTS_TABLE


def test_defaults_table_rows_parse_back_to_defaults():
    rows = DEFAULTS_TABLE.splitlines()[1:]
    text = "".join(f"{key} = {value}\n"
                   for key, value in (row.split(None, 1) for row in rows))
    assert parse_config(text) == RunConfig()


def test_every_component_field_is_a_key():
    # the keys are RunConfig's fields, one level into each component
    defaults = RunConfig()
    want = []
    for outer in fields(defaults):
        value = getattr(defaults, outer.name)
        if is_dataclass(value):
            want += [f"{outer.name}.{inner.name}" for inner in fields(value)]
        else:
            want.append(outer.name)
    assert [row.split()[0] for row in DEFAULTS_TABLE.splitlines()[1:]] == want


def test_samples_below_harness_floor_rejected_at_parse():
    with pytest.raises(ConfigError, match=r"^line 2: samples: .*at least 100"):
        parse_config("seed = 1\nsamples = 50\n")
    assert parse_config("samples = 100\n").samples == 100


# each case's last line is the one at fault
_NEVER_RUN = [
    *[[f"phantom.{name} = {value}"]
      for name in ("background_intensity", "structure_gain")
      for value in ("nan", "inf", "-inf", "-1")],
    ["seed = 2", "phantom.size = 0"],
    ["phantom.kind = synthetic-sinogram", "phantom.size = 1"],
    ["phantom.size = 1", "phantom.kind = synthetic-sinogram"],
    ["phantom.kind = mystery"],
    ["seed = 2", "", "entry = both"],
]


@pytest.mark.parametrize(
    "lines", _NEVER_RUN,
    ids=lambda lines: ";".join(filter(None, lines)).replace(" ", ""))
def test_settings_that_can_never_run_are_rejected_at_parse(lines):
    key = lines[-1].split(" = ")[0]
    with pytest.raises(ConfigError,
                       match=rf"^line {len(lines)}: {re.escape(key)}: "):
        parse_config("\n".join(lines) + "\n")


def test_intermediate_state_that_cannot_run_is_not_an_error():
    cfg = parse_config("phantom.size = 1\nphantom.kind = synthetic-sinogram\n"
                       "phantom.size = 64\n")
    assert (cfg.phantom.kind, cfg.phantom.size) == ("synthetic-sinogram", 64)


def test_error_names_first_line_since_component_last_built():
    with pytest.raises(ConfigError,
                       match=r"^line 1: phantom\.background_intensity: "):
        parse_config("phantom.background_intensity = nan\nphantom.size = 32\n")


def test_out_of_bounds_structure_rejected_at_parse():
    with pytest.raises(ConfigError, match=r"^line 2: phantom\.structures: "
                                          r"structure 0 \(disk\) extends outside"):
        parse_config("phantom.kind = inhomogeneous\n"
                     "phantom.structures = disk:0.95,0.5,0.2\n")


@pytest.mark.parametrize("kwargs", [
    {"samples": 99}, {"seed": -1}, {"entry": "both"},
    {"samples": 150.5}, {"seed": 1.5}])
def test_run_config_validates_itself(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_cli_reports_samples_floor_with_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "transform.variant = gdb\nsamples = 50\n"
                              f"output_dir = {tmp_path / 'x'}\n")
    assert main(["verify-dist", "-c", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: config: line 2: samples:")
    assert not (tmp_path / "x").exists()


# --- pgm / csv storage ---------------------------------------------------

def test_pgm_eight_bit_round_trip(tmp_path):
    a = np.arange(12, dtype=np.int64).reshape(3, 4) * 20
    p = tmp_path / "a.pgm"
    write_pgm(p, a)
    raw = p.read_bytes()
    assert raw.startswith(b"P5")
    assert b"220" in raw  # maxval is the actual maximum, one byte per sample
    assert len(raw) == raw.index(b"220") + len(b"220\n") + a.size
    back = read_pgm(p)
    assert back.dtype == np.int64
    assert np.array_equal(back, a)


def test_pgm_sixteen_bit_and_overflow(tmp_path):
    a = np.array([[0, 300], [65535, 42]], dtype=np.int64)
    p = tmp_path / "wide.pgm"
    write_pgm(p, a)
    assert np.array_equal(read_pgm(p), a)
    with pytest.raises(ValueError, match="16-bit"):
        write_pgm(tmp_path / "x.pgm", np.array([[70000]]))


def test_pgm_input_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[0.5]]))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="nonempty"):
        write_pgm(tmp_path / "x.pgm", np.zeros((0, 3), dtype=int))


def test_pgm_reader_skips_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # magic\n# a comment line\n2 2\n# more\n255\n" +
                  bytes([1, 2, 3, 4]))
    assert np.array_equal(read_pgm(p), [[1, 2], [3, 4]])
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n1 1\n255\nx")
    with pytest.raises(ValueError, match="P6"):
        read_pgm(bad)


@pytest.mark.parametrize("blob, message", [
    (b"P5\n2 2\n", "truncated PGM header"),
    (b"P5\n2 x2\n255\n", "malformed PGM header token"),
    (b"P5\n0 2\n255\n", "malformed PGM dimensions"),
    (b"P5\n2 0\n255\n", "malformed PGM dimensions"),
    (b"P5\n2 2\n0\n", "malformed PGM dimensions"),
    (b"P5\n2 2\n65536\n", "malformed PGM dimensions"),
    (b"P5\n2 2\n255\n" + bytes(3), "shorter than header"),
    (b"P5\n2 2\n300\n" + bytes(7), "shorter than header"),
    (b"P5\n2 1\n10\n" + bytes([3, 255]), "exceeds the header's maxval 10"),
], ids=["truncated", "token", "width", "height", "maxval-0", "maxval-wide",
        "short-8-bit", "short-16-bit", "sample-above-maxval"])
def test_pgm_reader_rejects_bad_files(tmp_path, blob, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=message):
        read_pgm(p)


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(
        tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_csv(tmp_path / "a.csv", np.ones((2, 2)))
    assert list(tmp_path.iterdir()) == []


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 5)) * np.logspace(-200, 200, 5)
    a[0, 0] = np.pi
    p = tmp_path / "grid.csv"
    write_csv(p, a, {"kind": "test", "note": "exact"})
    back, meta = read_csv(p)
    assert np.array_equal(back, a)  # %.17g survives the float64 round trip
    assert meta == {"kind": "test", "note": "exact"}


def test_csv_structure_errors(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("# shape = 3,2\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="3"):
        read_csv(p)
    q = tmp_path / "ragged.csv"
    q.write_text("# shape = 2,2\n1,2\n3\n")
    with pytest.raises(ValueError):
        read_csv(q)
    for text, message in [
            ("# shape = 1,2\n# note\n1,2\n", "line 2: malformed header line"),
            ("# shape = 1,2\n1,x\n", "line 2: malformed number"),
            ("# kind = grid\n1,2\n", "missing shape header")]:
        q.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(q)
    with pytest.raises(ValueError, match="1- or 2-D"):
        write_csv(tmp_path / "cube.csv", np.zeros((2, 2, 2)))


def test_csv_reader_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("# shape = 2,2\n\n1,2\n   \n3,4\n\n")
    back, meta = read_csv(p)
    assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]]) and meta == {}


@pytest.mark.parametrize("meta, message", [
    ({"shape": "3,2"}, "reserved"),
    ({" kind": "x"}, "bad metadata key"),
    ({"kind ": "x"}, "bad metadata key"),
    ({"a=b": "x"}, "bad metadata key"),
    ({"a\rb": "x"}, "bad metadata key"),
    ({"kind": " x"}, "bad metadata value"),
    ({"kind": "x\t"}, "bad metadata value"),
    ({"kind": "x\ny"}, "bad metadata value"),
    ({"kind": "x\x0by"}, "bad metadata value"),
], ids=["shape", "key-lead-space", "key-trail-space", "key-equals", "key-cr",
        "value-lead-space", "value-trail-tab", "value-newline", "value-vtab"])
def test_csv_metadata_that_would_not_read_back_is_rejected(tmp_path, meta,
                                                          message):
    # read_csv takes 'shape' as the array shape and strips keys and values
    p = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(p, np.ones((2, 3)), meta)
    assert not p.exists()


def test_csv_metadata_round_trips_inner_spaces_and_equals(tmp_path):
    meta = {"note": "a = b; c", "empty": "", "two words": "x  y"}
    write_csv(tmp_path / "grid.csv", np.ones((2, 3)), meta)
    assert read_csv(tmp_path / "grid.csv")[1] == meta


def test_write_leaves_no_temp_droppings(tmp_path):
    write_csv(tmp_path / "a.csv", np.ones((2, 2)))
    write_pgm(tmp_path / "b.pgm", np.ones((2, 2), dtype=int))
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv", "b.pgm"]


def test_sinogram_round_trip_both_variants(tmp_path):
    img = np.random.default_rng(1).uniform(0, 4, size=(8, 8))
    rot = drt_rotation(img, angles=6, interp="area")
    p = tmp_path / "rot.csv"
    write_sinogram(p, rot)
    back = read_sinogram(p)
    assert back.variant == "rotation" and back.interp == "area"
    assert back.image_shape == (8, 8)
    assert back.offset_min == rot.offset_min
    assert np.array_equal(back.angles, rot.angles)
    assert np.array_equal(back.data, rot.data)

    gdb = drt_gdb(img)
    q = tmp_path / "gdb.csv"
    write_sinogram(q, gdb)
    back = read_sinogram(q)
    assert back.variant == "gdb" and back.gdb_size == 8
    assert np.array_equal(back.data, gdb.data)

    plain = tmp_path / "plain.csv"
    write_csv(plain, img)
    with pytest.raises(ValueError, match="not a sinogram"):
        read_sinogram(plain)


@pytest.mark.parametrize("line, bad", [("offset_min = -7", "offset_min = -6"),
                                       ("gdb_size = 8", "gdb_size = 7")])
def test_read_sinogram_rejects_header_geometry_off_the_data(tmp_path, line,
                                                            bad):
    # the geometry follows from the row count; a header that says
    # otherwise is corrupt, not a second source of truth
    p = tmp_path / "gdb.csv"
    write_sinogram(p, drt_gdb(np.ones((8, 8))))
    text = p.read_text()
    assert f"# {line}\n" in text
    p.write_text(text.replace(f"# {line}\n", f"# {bad}\n"))
    with pytest.raises(ValueError, match=bad.split()[0] + ".*15 offset rows"):
        read_sinogram(p)


def test_read_sinogram_rejects_angle_count_off_the_columns(tmp_path):
    p = tmp_path / "rot.csv"
    rot = drt_rotation(np.ones((8, 8)), angles=4, interp="area")
    write_sinogram(p, rot)
    text = p.read_text()
    full = "# angles = " + ";".join(f"{v:.17g}" for v in rot.angles) + "\n"
    assert full in text
    cut = "# angles = " + ";".join(f"{v:.17g}" for v in rot.angles[:2]) + "\n"
    p.write_text(text.replace(full, cut))
    with pytest.raises(ValueError, match=r"one finite angle per column, got "
                       r"angles of shape \(2,\) for data of shape \(15, 4\)"):
        read_sinogram(p)


def _rotation_sinogram_file(tmp_path):
    p = tmp_path / "rot.csv"
    write_sinogram(p, drt_rotation(np.ones((8, 8)), angles=4, interp="area"))
    return p


# the angles header of _rotation_sinogram_file
ANGLES = ";".join(f"{v:.17g}" for v in np.pi * np.arange(4) / 4)


@pytest.mark.parametrize("key", ["variant", "image_shape", "interp", "angles",
                                 "offset_min", "gdb_size"])
def test_read_sinogram_names_a_missing_header_key(tmp_path, key):
    p = _rotation_sinogram_file(tmp_path)
    lines = p.read_text().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(f"# {key} = ")]
    assert len(kept) == len(lines) - 1
    p.write_text("".join(kept))
    with pytest.raises(ValueError, match=f"no '{key}' key"):
        read_sinogram(p)


@pytest.mark.parametrize("line, bad, message", [
    ("variant = rotation", "variant = fan", "unknown sinogram variant 'fan'"),
    ("interp = area", "interp = cubic", "unknown rotation interp 'cubic'"),
    ("image_shape = 8,8", "image_shape = 8",
     r"image_shape \(8,\) is not two positive sizes"),
    ("image_shape = 8,8", "image_shape = 0,8", "two positive sizes"),
    (f"angles = {ANGLES}", "angles = nan;1;2;3", "angles must be finite"),
    (f"angles = {ANGLES}", "angles = 0;1;inf;3", "angles must be finite"),
])
def test_read_sinogram_rejects_unknown_header_values(tmp_path, line, bad,
                                                     message):
    p = _rotation_sinogram_file(tmp_path)
    text = p.read_text()
    assert f"# {line}\n" in text
    p.write_text(text.replace(f"# {line}\n", f"# {bad}\n"))
    with pytest.raises(ValueError, match=message):
        read_sinogram(p)


# --- svg scatter ----------------------------------------------------------

def test_scatter_svg_marks_every_point(tmp_path):
    pts = np.column_stack([np.linspace(0, 5, 9), np.linspace(0, 5, 9) + 0.1])
    p = tmp_path / "s.svg"
    emit_scatter_svg(pts, p, fit=LineFit(1.02, 0.05, 0.99))
    text = p.read_text()
    assert text.lstrip().startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 9
    assert "slope = 1.020000" in text


def test_scatter_svg_tiny_slope_formatting(tmp_path):
    pts = np.array([[0.0, 0.0], [1.0, 0.000001], [2.0, 0.000002]])
    p = tmp_path / "flat.svg"
    emit_scatter_svg(pts, p, fit=LineFit(1e-6, 0.0, 1.0))
    assert "slope = 0.000001" in p.read_text()


def test_scatter_svg_single_point_no_fit(tmp_path):
    p = tmp_path / "one.svg"
    emit_scatter_svg(np.array([[2.0, 3.0]]), p)
    text = p.read_text()
    assert text.count("<circle") == 1
    assert "slope" not in text
    with pytest.raises(ValueError):
        emit_scatter_svg(np.zeros((0, 2)), tmp_path / "none.svg")


@pytest.mark.parametrize("pts", [
    [[2.0, 3.0]],
    [[2.0, 0.0], [2.0, 1.0], [2.0, 5.0]],
    [[0.0, 4.0], [1.0, 4.0], [3.0, 4.0]],
    [[1.0, 1.0], [np.nextafter(1.0, 2.0), np.nextafter(1.0, 2.0)]],
    [[1e300, 1e300]],
    [[1e300, -1e300], [2e300, 1e300]],
], ids=["single-point", "equal-x", "equal-y", "one-ulp", "at-1e300",
        "across-1e300"])
def test_scatter_svg_draws_ticks_on_every_range(tmp_path, pts):
    # the padding makes every axis range hi > lo before the tick layout
    # sees it; a zero span would warn in log10 and draw no tick
    p = tmp_path / "ticks.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_scatter_svg(np.array(pts), p)
    lines = list(ElementTree.parse(p).getroot().iter(
        "{http://www.w3.org/2000/svg}line"))
    # x ticks hang below the plot frame (y2 = 435), y ticks left of it
    # (x1 = 65)
    assert any(line.get("y2") == "435" for line in lines)
    assert any(line.get("x1") == "65" for line in lines)


def test_scatter_svg_rejects_non_finite_points_and_fit(tmp_path):
    pts = np.column_stack([np.linspace(0, 5, 9), np.linspace(0, 5, 9)])
    p = tmp_path / "bad.svg"
    for bad in (np.nan, np.inf, -np.inf):
        # NaN would fail in the tick range, inf in np.arange
        for col in (0, 1):
            holed = pts.copy()
            holed[3, col] = bad
            with pytest.raises(ValueError, match="scatter points must be finite"):
                emit_scatter_svg(holed, p)
        # a NaN fit would be written into the SVG as nan coordinates
        for fit in (LineFit(bad, 0.0, 1.0), LineFit(1.0, bad, 1.0), (bad, 0.0)):
            with pytest.raises(ValueError, match="fit must be finite"):
                emit_scatter_svg(pts, p, fit=fit)
    assert not p.exists()


@pytest.mark.parametrize("pts, fit", [
    ([[0.0, 0.0], [1e308, 1.0]], (1e10, 0.0)),
    ([[-1e308, 0.0], [1e308, 1.0]], None),
])
def test_scatter_svg_rejects_axes_that_overflow(tmp_path, pts, fit):
    # finite inputs whose padded range or fitted line end overflows used
    # to fail inside the tick layout ("arange: cannot compute length")
    p = tmp_path / "huge.svg"
    with pytest.raises(ValueError, match="axis ranges overflow"):
        emit_scatter_svg(np.array(pts), p, fit=fit)
    assert not p.exists()


def test_scatter_svg_is_well_formed_xml_with_markup_in_labels(tmp_path):
    p = tmp_path / "labels.svg"
    emit_scatter_svg(np.array([[0.0, 1.0], [2.0, 3.0]]), p, fit=(1.0, 1.0),
                     title="a < b & c", xlabel="<x>", ylabel="y & z")
    root = ElementTree.parse(p).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert {"a < b & c", "<x>", "y & z"} <= set(texts)


# --- command line ----------------------------------------------------------

def write_cfg(tmp_path, body):
    p = tmp_path / "run.cfg"
    p.write_text(body)
    return str(p)


def test_cli_simulate_writes_reproducible_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"""
phantom.kind = homogeneous
phantom.size = 16
phantom.background_intensity = 4.0
seed = 3
output_dir = {tmp_path / 'out'}
""")
    assert main(["simulate", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "counts.pgm" in out
    intensity, _ = read_csv(tmp_path / "out" / "intensity.csv")
    assert np.allclose(intensity, 4.0) and intensity.shape == (16, 16)
    counts = read_pgm(tmp_path / "out" / "counts.pgm")
    want = sample_poisson(intensity, rng=derive_rng(3, "simulate"))
    assert np.array_equal(counts, want)


def test_cli_transform_reads_counts_file(tmp_path):
    counts = np.random.default_rng(2).poisson(3.0, size=(8, 8))
    src = tmp_path / "counts.pgm"
    write_pgm(src, counts)
    cfg = write_cfg(tmp_path, f"transform.variant = gdb\n"
                              f"output_dir = {tmp_path / 'out'}\n")
    assert main(["transform", "-c", cfg, "--input", str(src)]) == 0
    sino = read_sinogram(tmp_path / "out" / "sinogram.csv")
    assert np.array_equal(sino.data, drt_gdb(counts.astype(float)).data)


def test_cli_transform_without_input_projects_a_simulated_draw(tmp_path):
    cfg_path = write_cfg(tmp_path, "phantom.size = 8\ntransform.variant = gdb\n"
                                   f"seed = 3\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["transform", "-c", cfg_path]) == 0
    cfg = load_config(cfg_path)
    counts = sample_poisson(make_phantom(cfg.phantom),
                            rng=derive_rng(3, "simulate"))
    sino = read_sinogram(tmp_path / "out" / "sinogram.csv")
    assert np.array_equal(sino.data, drt_gdb(counts).data)


def test_cli_transform_rejects_negative_input(tmp_path, capsys):
    grid = np.full((8, 8), 2.0)
    grid[3, 4] = -1.0
    src = tmp_path / "counts.csv"
    write_csv(src, grid)
    cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'out'}\n")
    assert main(["transform", "-c", cfg, "--input", str(src)]) == 1
    assert capsys.readouterr().err.startswith("error: validation:")
    assert not (tmp_path / "out" / "sinogram.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_transform_rejects_non_finite_input(tmp_path, capsys, bad):
    src = tmp_path / "counts.csv"
    src.write_text(f"# shape = 2,2\n1,{bad}\n2,3\n")
    cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'out'}\n")
    assert main(["transform", "-c", cfg, "--input", str(src)]) == 1
    assert capsys.readouterr().err.startswith("error: validation:")
    assert not (tmp_path / "out" / "sinogram.csv").exists()


def test_cli_verify_dist_artifacts_and_determinism(tmp_path, capsys):
    body = """
phantom.kind = inhomogeneous
phantom.size = 8
phantom.background_intensity = 1.0
transform.variant = gdb
samples = 100
seed = 4
"""
    cfg_a = write_cfg(tmp_path, body + f"output_dir = {tmp_path / 'a'}\n")
    assert main(["verify-dist", "-c", cfg_a, "--gof"]) == 0
    out = capsys.readouterr().out
    assert "radon: n=" in out and "mean_var_ratio=" in out
    for stem in ("radon", "detail_1", "approximation_1"):
        scatter, meta = read_csv(tmp_path / "a" / f"dist_{stem}.csv")
        assert scatter.shape[1] == 2
        assert float(meta["mean_var_ratio"]) > 0
    _, radon_meta = read_csv(tmp_path / "a" / "dist_radon.csv")
    assert float(radon_meta["gof_pass_fraction"]) >= 0.9
    assert (tmp_path / "a" / "scatter_radon.svg").exists()

    # identical settings, fresh directory: byte-identical outputs
    cfg_b = write_cfg(tmp_path / "a", body + f"output_dir = {tmp_path / 'b'}\n")
    assert main(["verify-dist", "-c", cfg_b, "--gof"]) == 0
    for name in ("dist_radon.csv", "dist_detail_1.csv", "scatter_radon.svg"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_cli_denoise_report_sections(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"""
phantom.kind = inhomogeneous
phantom.size = 16
phantom.background_intensity = 1.0
transform.angles = 30
transform.interp = area
samples = 100
output_dir = {tmp_path / 'out'}
""")
    assert main(["denoise", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert "noisy: mse=" in out and "denoised: mse=" in out
    report = (tmp_path / "out" / "run_report.txt").read_text()
    for section in ("[config]", "[timings]", "[thresholds]", "[metrics]",
                    "[artifacts]"):
        assert section in report
    assert "detail_1 = " in report
    rows, meta = read_csv(tmp_path / "out" / "metrics.csv")
    assert rows.shape == (2, 3)
    assert meta["columns"] == "mse;ssim;psnr"
    # one logged threshold per detail level, parseable back to a float
    assert len(meta["thresholds"].split(";")) == 1
    float(meta["thresholds"])
    denoised, _ = read_csv(tmp_path / "out" / "denoised.csv")
    assert denoised.shape == (16, 16)
    assert read_pgm(tmp_path / "out" / "noisy.pgm").shape == (16, 16)


def test_cli_default_denoise_is_the_library_default(tmp_path, capsys):
    # RunConfig is DenoiseConfig plus the run: with no config file the
    # command denoises with DenoiseConfig()'s settings, bit for bit
    assert main(["denoise", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    reference = make_phantom(RunConfig().phantom)
    counts = sample_poisson(reference, rng=derive_rng(0, "denoise-sample"))
    want = denoise_full(counts, DenoiseConfig(), reference=reference).image
    denoised, _ = read_csv(tmp_path / "denoised.csv")
    assert np.array_equal(denoised, want)


def test_cli_denoise_selector_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"""
phantom.kind = inhomogeneous
phantom.size = 16
phantom.background_intensity = 1.0
transform.angles = 20
output_dir = {tmp_path / 'out'}
""")
    assert main(["denoise", "-c", cfg, "--selector", "oracle-erm"]) == 0
    capsys.readouterr()
    report = (tmp_path / "out" / "run_report.txt").read_text()
    assert "oracle-erm" in report

    assert main(["denoise", "-c", cfg, "--selector", "magic"]) == 1
    assert capsys.readouterr().err.startswith("error: validation:")


@pytest.mark.parametrize("body", [
    "",
    "preset = pet\n",
    "transform.variant = gdb\nentry = sinogram\n"
    "phantom.kind = inhomogeneous\n"
    "phantom.structures = disk:0.5,0.5,0.25;bar:0.1,0.1,0.2,0.3\n",
], ids=["defaults", "pet", "gdb-structures"])
def test_cli_denoise_report_config_replays_the_run(tmp_path, capsys, body):
    # the [config] section is a config file that parses back into the
    # config that ran, output_dir included
    out = tmp_path / "out dir"
    cfg = write_cfg(tmp_path, body + "phantom.size = 16\n"
                    f"output_dir = {out}\n")
    assert main(["denoise", "-c", cfg, "--seed", "3"]) == 0
    capsys.readouterr()
    report = (out / "run_report.txt").read_text()
    section = report.split("[config]\n", 1)[1].split("[timings]", 1)[0]
    assert parse_config(section) == replace(load_config(cfg), seed=3)
    assert len(section.splitlines()) == len(DEFAULTS_TABLE.splitlines()) - 1


def test_cli_denoise_into_a_hash_directory_replays_the_run(tmp_path, capsys):
    out = tmp_path / "hash#dir"
    cfg = write_cfg(tmp_path, "phantom.size = 16\n")
    assert main(["denoise", "-c", cfg, "--output-dir", str(out)]) == 0
    capsys.readouterr()
    report = (out / "run_report.txt").read_text()
    section = report.split("[config]\n", 1)[1].split("[timings]", 1)[0]
    assert f"output_dir = {out}\n" in section
    assert parse_config(section) == replace(load_config(cfg),
                                            output_dir=str(out))


@pytest.mark.parametrize("argv", [["verify-dist", "--gof"], ["denoise"]])
def test_cli_zero_rate_phantom_fails_before_any_artifact(tmp_path, capsys,
                                                         monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("ran a phantom with no positive rate")

    monkeypatch.setattr(harness, "derive_rng", never)
    monkeypatch.setattr(cli, "denoise_full", never)
    cfg = write_cfg(tmp_path, f"""
phantom.kind = inhomogeneous
phantom.size = 8
phantom.background_intensity = 0
transform.variant = gdb
samples = 100
output_dir = {tmp_path / 'out'}
""")
    assert main([argv[0], "-c", cfg, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation:") and err.count("\n") == 1
    assert "rate is 0" in err
    assert not (tmp_path / "out").exists()


def test_cli_metrics_compares_two_grids(tmp_path, capsys):
    a = np.full((4, 4), 2.0)
    b = a.copy()
    b[0, 0] = 5.0
    write_csv(tmp_path / "a.csv", a)
    write_csv(tmp_path / "b.csv", b)
    assert main(["metrics", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
    m, s, p = (float(t) for t in capsys.readouterr().out.split(","))
    assert m == pytest.approx(9.0 / 16.0)
    assert -1.0 <= s <= 1.0
    # identical grids: zero error, infinite psnr
    assert main(["metrics", str(tmp_path / "a.csv"), str(tmp_path / "a.csv")]) == 0
    m2, s2, p2 = (float(t) for t in capsys.readouterr().out.split(","))
    assert m2 == 0.0 and s2 == 1.0 and np.isinf(p2)


def test_cli_seed_override_changes_counts(tmp_path):
    cfg = write_cfg(tmp_path, f"phantom.size = 8\n"
                              f"phantom.background_intensity = 5.0\n"
                              f"output_dir = {tmp_path / 'o1'}\n")
    assert main(["simulate", "-c", cfg]) == 0
    assert main(["simulate", "-c", cfg, "--seed", "99",
                 "--output-dir", str(tmp_path / "o2")]) == 0
    c1 = read_pgm(tmp_path / "o1" / "counts.pgm")
    c2 = read_pgm(tmp_path / "o2" / "counts.pgm")
    assert not np.array_equal(c1, c2)


def test_cli_error_lines(tmp_path, capsys):
    assert main(["simulate", "-c", "/nonexistent.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error: config:")

    cfg = write_cfg(tmp_path, "transform.interp = warp\n")
    assert main(["simulate", "-c", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "line 1" in err

    # gof needs integer-valued coefficients; linear interp is not
    cfg2 = write_cfg(tmp_path, "samples = 100\ntransform.interp = linear\n"
                               f"output_dir = {tmp_path / 'x'}\n")
    assert main(["verify-dist", "-c", cfg2, "--gof"]) == 1
    assert capsys.readouterr().err.startswith("error: validation:")

    assert main(["metrics", str(tmp_path / "missing.csv"),
                 str(tmp_path / "missing.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: io:")

    with pytest.raises(SystemExit):
        main([])
