import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smig import config as cfgmod
from smig import fileio, forward, imaging
from smig.errors import ConfigError, DataError, DomainError, SmigError


def test_empty_config_gives_table_defaults():
    cfg = cfgmod.parse_config("# nothing but a comment\n")
    assert cfg == cfgmod.RunConfig()
    assert cfg.medium.permittivity_rel == 20.0
    assert cfg.medium.conductivity_s_per_m == 0.2
    assert cfg.medium.frequency_hz == 1.0e9
    assert cfg.array.count == 16
    assert cfg.array.radius_m == 0.09
    a = cfg.anomalies[0]
    assert (a.center_x_m, a.center_y_m) == (0.01, 0.03)
    assert a.radius_m == 0.010
    assert a.permittivity_rel == 55.0
    assert a.conductivity_s_per_m == 1.2
    assert cfg.grid.step_m == 0.001


def test_zero_step_rejected():
    with pytest.raises(ConfigError):
        cfgmod.parse_config("grid.step_m = 0.0\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="array.radius_furlongs"):
        cfgmod.parse_config("array.radius_furlongs = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        cfgmod.parse_config("array.count = 8\narray.count = 9\n")


def test_type_mismatch_rejected():
    with pytest.raises(ConfigError, match="array.count"):
        cfgmod.parse_config("array.count = sixteen\n")


def test_enum_value_rejected():
    with pytest.raises(ConfigError, match="matrix_kind"):
        cfgmod.parse_config("imaging.matrix_kind = diagonal_free\n")


@pytest.mark.parametrize("key, allowed", [
    ("imaging.matrix_kind", forward.KINDS),
    ("imaging.rank_mode", imaging.RANK_MODES),
    ("imaging.contrast_denominator", forward.DENOMINATORS),
    ("synthesis.generator", forward.GENERATORS),
    ("synthesis.contamination_mode", forward.CONTAMINATION_MODES),
    ("output.format", tuple(fileio.MAP_FORMATS)),
])
def test_enum_keys_take_the_consumer_tuple(key, allowed):
    extra = ["imaging.rank_fixed_m=1"] if key == "imaging.rank_mode" else []
    for value in allowed:
        cfg = cfgmod.apply_overrides(cfgmod.RunConfig(), ["%s=%s" % (key, value)] + extra)
        assert cfgmod.serialize_config(cfg).count("%s = %s\n" % (key, value)) == 1
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        cfgmod.apply_overrides(cfgmod.RunConfig(), ["%s=bogus" % key])


@pytest.mark.parametrize("override", [
    "grid.x_min_m=nan", "grid.step_m=inf", "grid.step_m=1e-6", "medium.frequency_hz=nan",
    "medium.frequency_hz=1e300", "medium.permittivity_rel=inf", "array.radius_m=nan",
    "anomaly.1.radius_m=inf", "anomaly.1.center_x_m=nan", "imaging.rank_threshold=nan",
])
def test_parse_rejects_through_domain_constructors(override):
    with pytest.raises(SmigError):
        cfgmod.apply_overrides(cfgmod.RunConfig(), [override])


@pytest.mark.parametrize("overrides, error, prefix", [
    (["anomaly.2.radius_m=-0.01"], ConfigError, "anomaly.2: anomaly needs"),
    (["grid.x_min_m=nan"], ConfigError, "grid: grid needs"),
    (["array.count=1"], ConfigError, "array: antenna count"),
    (["medium.frequency_hz=1e300"], DomainError, "medium: wavenumber overflows"),
])
def test_range_errors_name_their_block(overrides, error, prefix):
    # Two anomaly blocks with only the second one bad: the message names it.
    base = cfgmod.apply_overrides(cfgmod.RunConfig(), ["anomaly.2.center_x_m=-0.02"])
    with pytest.raises(SmigError) as exc:
        cfgmod.apply_overrides(base, overrides)
    assert type(exc.value) is error
    assert str(exc.value).startswith(prefix)


def test_fixed_rank_contradicts_zero_diagonal():
    fixed = ["imaging.rank_mode=fixed", "imaging.rank_fixed_m=99"]
    with pytest.raises(ConfigError, match=r"imaging\.rank_fixed_m.*imaging\.matrix_kind"):
        cfgmod.apply_overrides(cfgmod.RunConfig(), fixed)
    full = cfgmod.apply_overrides(cfgmod.RunConfig(), fixed + ["imaging.matrix_kind=full"])
    assert cfgmod.build_rank_policy(full).fixed_m == 99
    one = cfgmod.apply_overrides(cfgmod.RunConfig(), fixed[:1] + ["imaging.rank_fixed_m=1"])
    assert cfgmod.build_rank_policy(one).fixed_m == 1


def test_anomaly_index_gap_rejected():
    with pytest.raises(ConfigError, match="contiguous"):
        cfgmod.parse_config("anomaly.3.radius_m = 0.01\n")


@pytest.mark.parametrize("key", ["anomaly.01.radius_m", "anomaly.+1.radius_m",
                                 "anomaly.1_0.radius_m", "anomaly. 1.radius_m",
                                 "anomaly.0.radius_m"])
def test_anomaly_key_has_one_spelling(key):
    # Not an alias of anomaly.1.radius_m, alone or beside it.
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfgmod.RunConfig(), [key + "=0.005"])
    with pytest.raises(ConfigError):
        cfgmod.parse_config("anomaly.1.radius_m = 0.01\n%s = 0.005\n" % key)


def test_array_round_trip():
    cfg = cfgmod.parse_config("array.count = 16\narray.radius_m = 0.09\n")
    again = cfgmod.parse_config(cfgmod.serialize_config(cfg))
    assert again == cfg


def test_override_application():
    cfg = cfgmod.apply_overrides(cfgmod.RunConfig(), ["medium.frequency_hz=0.8e9"])
    assert cfg.medium.frequency_hz == 0.8e9
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfgmod.RunConfig(), ["medium.frequency_hz"])


def test_noise_snr_inf_round_trip():
    cfg = cfgmod.RunConfig()
    assert math.isinf(cfg.synthesis.noise_snr_db)
    again = cfgmod.parse_config(cfgmod.serialize_config(cfg))
    assert math.isinf(again.synthesis.noise_snr_db)


def test_config_hash_tracks_content():
    base = cfgmod.RunConfig()
    other = cfgmod.apply_overrides(base, ["array.count=8"])
    assert cfgmod.config_hash(base) == cfgmod.config_hash(cfgmod.RunConfig())
    assert cfgmod.config_hash(base) != cfgmod.config_hash(other)
    # The hash goes into every sidecar: the canonical text must not drift.
    assert cfgmod.config_hash(base) == (
        "1b89db751354bdf1429a522a492ef9dd74511fda7d6f9de3d24d6bc5262ff7c4")
    two = cfgmod.apply_overrides(base, ["anomaly.2.center_x_m=-0.03", "anomaly.2.radius_m=0.004"])
    assert cfgmod.config_hash(two) == (
        "ff53d1aabcbd1f59455a11cc8a8e40ca01443f278e2c7a239ff499e8eda798dd")


_cfg_strategy = st.builds(
    cfgmod.RunConfig,
    medium=st.builds(
        cfgmod.MediumConfig,
        permittivity_rel=st.floats(min_value=1.0, max_value=100.0),
        conductivity_s_per_m=st.floats(min_value=0.0, max_value=5.0),
        frequency_hz=st.floats(min_value=1e8, max_value=5e9),
    ),
    array=st.builds(
        cfgmod.ArrayConfig,
        count=st.integers(min_value=2, max_value=64),
        radius_m=st.floats(min_value=0.01, max_value=1.0),
    ),
    anomalies=st.lists(
        st.builds(
            cfgmod.AnomalyConfig,
            center_x_m=st.floats(min_value=-0.05, max_value=0.05),
            center_y_m=st.floats(min_value=-0.05, max_value=0.05),
            radius_m=st.floats(min_value=1e-3, max_value=0.05),
            permittivity_rel=st.floats(min_value=1.0, max_value=100.0),
            conductivity_s_per_m=st.floats(min_value=0.0, max_value=5.0),
        ),
        min_size=1, max_size=3,
    ).map(tuple),
    imaging=st.builds(
        cfgmod.ImagingConfig,
        matrix_kind=st.sampled_from(["full", "zero_diagonal"]),
        rank_mode=st.just("relative_threshold"),
        rank_threshold=st.floats(min_value=1e-4, max_value=0.5),
        lossless_k=st.booleans(),
    ),
    synthesis=st.builds(
        cfgmod.SynthesisConfig,
        generator=st.sampled_from(["born", "exact_disc"]),
        contamination_amplitude_rel=st.floats(min_value=0.0, max_value=10.0),
        contamination_mode=st.sampled_from(["constant", "random"]),
        contamination_seed=st.integers(min_value=0, max_value=2**31),
        noise_snr_db=st.one_of(st.just(math.inf), st.floats(min_value=-10, max_value=60)),
        noise_seed=st.integers(min_value=0, max_value=2**31),
    ),
)


@settings(max_examples=100)
@given(cfg=_cfg_strategy)
def test_config_round_trip_property(cfg):
    assert cfgmod.parse_config(cfgmod.serialize_config(cfg)) == cfg


def test_sparams_round_trip(tmp_path, born_fixture):
    path = tmp_path / "s.csv"
    fileio.write_sparams(born_fixture, path)
    back = fileio.read_sparams(path)
    assert np.array_equal(back.entries, born_fixture.entries)
    assert back.frequency_hz == born_fixture.frequency_hz
    assert back.kind == forward.KIND_FULL


def test_sparams_zero_diag_detection(tmp_path, born_fixture):
    path = tmp_path / "d.csv"
    fileio.write_sparams(imaging.zero_diagonal(born_fixture), path)
    assert fileio.read_sparams(path).kind == forward.KIND_ZERO_DIAGONAL


def test_sparams_missing_entry(tmp_path, born_fixture):
    path = tmp_path / "s.csv"
    fileio.write_sparams(born_fixture, path)
    lines = path.read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith("3,7,")]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(DataError, match=r"\(3, 7\)"):
        fileio.read_sparams(path)


def test_sparams_duplicate_entry(tmp_path, born_fixture):
    path = tmp_path / "s.csv"
    fileio.write_sparams(born_fixture, path)
    with open(path, "a") as fh:
        fh.write("2,2,0.0,0.0\n")
    with pytest.raises(DataError, match=r"\(2,2\)"):
        fileio.read_sparams(path)


def test_sparams_non_finite(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "# smig-sparams v1, N=2, f_hz=1.0\nm,n,re,im\n"
        "1,1,0.0,0.0\n1,2,nan,0.0\n2,1,0.0,0.0\n2,2,0.0,0.0\n"
    )
    with pytest.raises(DataError, match=r"\(1,2\)"):
        fileio.read_sparams(path)


def test_sparams_malformed_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# smig-sparams v1, N=1, f_hz=1.0\nm,n,re,im\n1,one,0.0,0.0\n")
    with pytest.raises(DataError, match="malformed"):
        fileio.read_sparams(path)


def test_sparams_first_fault_is_reported(tmp_path):
    # An index out of range, then a malformed row: the first is reported.
    path = tmp_path / "s.csv"
    path.write_text("# smig-sparams v1, N=2, f_hz=1.0\nm,n,re,im\n"
                    "1,1,0.0,0.0\n3,1,0.0,0.0\n1,two,0.0,0.0\n2,2,inf,0.0\n")
    with pytest.raises(DataError, match=r"index \(3,1\) outside 1\.\.2"):
        fileio.read_sparams(path)


@pytest.mark.parametrize("content", [
    b"# smig-sparams v1, N=1, f_hz=abc\nm,n,re,im\n1,1,0.0,0.0\n",
    b"# smig-sparams v1, N=99999999, f_hz=1.0\nm,n,re,im\n1,1,0.0,0.0\n",
    b"# smig-sparams v1, N=1, f_hz=1.0\nm,n,re,im\n1,1,0.0,\xff\xfe\n",
    b"# smig-sparams v1, N=0, f_hz=1.0\nm,n,re,im\n",
    b"# smig-sparams v1, N=1, f_hz=nan\nm,n,re,im\n1,1,0.0,0.0\n",
    b"# smig-sparams v1, N=1, f_hz=inf\nm,n,re,im\n1,1,0.0,0.0\n",
])
def test_sparams_bad_header_or_bytes_is_data_error(tmp_path, content):
    path = tmp_path / "s.csv"
    path.write_bytes(content)
    with pytest.raises(DataError):
        fileio.read_sparams(path)


def test_sparams_writer_refuses_non_finite(tmp_path, born_fixture):
    entries = born_fixture.entries.copy()
    entries[2, 3] = np.inf
    bad = forward.ScatteringMatrix(entries, forward.KIND_FULL, "t", 1e9)
    with pytest.raises(DataError):
        fileio.write_sparams(bad, tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()
    for f_hz in (math.nan, math.inf):
        bad = forward.ScatteringMatrix(born_fixture.entries, forward.KIND_FULL, "t", f_hz)
        with pytest.raises(DataError, match="frequency"):
            fileio.write_sparams(bad, tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()


def test_sparams_header_required(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("m,n,re,im\n1,1,0,0\n")
    with pytest.raises(DataError, match="header"):
        fileio.read_sparams(path)


def test_paired_files_reproduce_fixture(tmp_path, born_fixture, paper_array, paper_medium):
    inc = forward.incident_coupling_smatrix(paper_array, paper_medium)
    tot = forward.ScatteringMatrix(
        inc.entries + born_fixture.entries, forward.KIND_FULL, "file",
        paper_medium.frequency_hz,
    )
    p_tot, p_inc = tmp_path / "tot.csv", tmp_path / "inc.csv"
    fileio.write_sparams(tot, p_tot)
    fileio.write_sparams(inc, p_inc)
    back = forward.subtract(fileio.read_sparams(p_tot), fileio.read_sparams(p_inc))
    scale = np.abs(born_fixture.entries).max()
    assert np.abs(back.entries - born_fixture.entries).max() <= 1e-9 * scale


def test_map_csv_round_trip(tmp_path, default_grid):
    rng = np.random.default_rng(5)
    values = rng.random(default_grid.shape)
    image = imaging.ImageMap(default_grid, values, 1, 1e9, "full")
    path = tmp_path / "map.csv"
    fileio.write_map(image, path, "csv")
    xs, ys = default_grid.x_axis(), default_grid.y_axis()
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == values.size
    for idx in (0, 1234, 20000, values.size - 1):
        x, y, v = (float(t) for t in rows[idx].split(","))
        ix, iy = divmod(idx, ys.size)
        assert x == xs[ix] and y == ys[iy] and v == values[ix, iy]
    expected = "x,y,value\n" + "".join(
        "%s,%s,%s\n" % (repr(float(xs[ix])), repr(float(ys[iy])), repr(float(values[ix, iy])))
        for ix in range(xs.size) for iy in range(ys.size)
    )
    assert path.read_bytes() == expected.encode()


def _reference_map_csv(image):
    """The per-line writer: x, y and value joined for each grid point."""
    ys = ["," + repr(float(y)) + "," for y in image.grid.y_axis()]
    lines = ["x,y,value\n"]
    for x, row in zip(image.grid.x_axis().tolist(), image.values.tolist()):
        lines += [repr(x) + y + repr(v) + "\n" for y, v in zip(ys, row)]
    return "".join(lines).encode()


def _reference_map_pgm(image):
    """Scale to the maximum, times 255, round; row 0 is y_max."""
    values = image.values
    vmax = float(values.max())
    scaled = np.zeros_like(values) if vmax == 0 else values / vmax
    pixels = np.rint(255.0 * scaled[:, ::-1].T).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0]) + pixels.tobytes()


def _table1_map(grid=None):
    """The map `smig image` computes on the Table-1 defaults, on grid if given."""
    cfg = cfgmod.RunConfig()
    scat = imaging.zero_diagonal(cfgmod.build_scattered(cfg))
    [image] = imaging.image([scat], grid or cfgmod.build_grid(cfg), cfgmod.build_array(cfg),
                            cfgmod.build_imaging_wavenumber(cfg), cfgmod.build_rank_policy(cfg))
    return image


@pytest.fixture(scope="module")
def map_cases():
    rng = np.random.default_rng(11)
    near_antenna = _table1_map(imaging.ImagingGrid(-0.02, 0.02, -0.1, -0.08, 0.005))
    assert np.count_nonzero(near_antenna.values == 0) == 1  # the grid point on antenna 1
    cases = {"table1": _table1_map(), "excluded_point": near_antenna}
    for name, grid, scale in (
        ("below_1e-4", imaging.ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.01), 1e-7),
        ("one_by_n", imaging.ImagingGrid(0.0, 0.001, -0.1, 0.1, 0.002), 1.0),
        ("n_by_one", imaging.ImagingGrid(-0.1, 0.1, 0.0, 0.001, 0.002), 1.0),
        ("undivided_bounds", imaging.ImagingGrid(-0.1, 0.1, -0.07, 0.1, 0.003), 1.0),
    ):
        cases[name] = imaging.ImageMap(grid, scale * rng.random(grid.shape), 1, 1e9, "full")
    cases["all_zero"] = imaging.ImageMap(cases["one_by_n"].grid, np.zeros((1, 101)), 1, 1e9, "full")
    return cases


@pytest.mark.parametrize("case", ["table1", "excluded_point", "below_1e-4", "one_by_n",
                                  "n_by_one", "undivided_bounds", "all_zero"])
def test_map_files_match_reference_formatters(tmp_path, map_cases, case):
    image = map_cases[case]
    for ext, reference in (("csv", _reference_map_csv), ("pgm", _reference_map_pgm)):
        path = tmp_path / ("map." + ext)
        fileio.write_map(image, path, ext)
        assert path.read_bytes() == reference(image), ext


def test_map_csv_holds_one_row_in_memory(tmp_path, map_cases):
    # The Table-1 map as Python floats would take 1.3 MiB; one row of
    # floats and its text stay far below 0.25 MiB.
    image = map_cases["table1"]
    tracemalloc.start()
    try:
        fileio.write_map(image, tmp_path / "map.csv", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2 ** 20


def test_map_pgm_constant_saturates(tmp_path, coarse_grid):
    image = imaging.ImageMap(coarse_grid, np.full(coarse_grid.shape, 0.37), 1, 1e9, "full")
    path = tmp_path / "map.pgm"
    fileio.write_map(image, path, "pgm")
    blob = path.read_bytes()
    header_end = blob.index(b"255\n") + 4
    assert blob[:3] == b"P5\n"
    assert set(blob[header_end:]) == {255}
    sidecar = (tmp_path / "map.pgm.meta.txt").read_text()
    assert "normalization_max = 0.37" in sidecar


def test_map_pgm_brightest_pixel(tmp_path, coarse_grid):
    xs, ys = coarse_grid.x_axis(), coarse_grid.y_axis()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    values = np.exp(-((gx - 0.01) ** 2 + (gy - 0.03) ** 2) / 1e-4)
    image = imaging.ImageMap(coarse_grid, values, 1, 1e9, "zero_diagonal")
    path = tmp_path / "map.pgm"
    fileio.write_map(image, path, "pgm")
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    width, height = (int(t) for t in dims.split())
    pixels = np.frombuffer(rest.split(b"\n", 1)[1], dtype=np.uint8).reshape(height, width)
    row, col = np.unravel_index(np.argmax(pixels), pixels.shape)
    # Row 0 is y_max; brightest pixel must sit at the map argmax cell.
    ix, iy = np.unravel_index(np.argmax(values), values.shape)
    assert col == ix
    assert row == ys.size - 1 - iy


def test_map_sidecar_same_for_both_formats(tmp_path, coarse_grid):
    values = np.random.default_rng(9).random(coarse_grid.shape)
    image = imaging.ImageMap(coarse_grid, values, 3, 1e9, "full")
    meta = {"config_sha256": "abc", "noise_seed": 7}
    for ext in ("csv", "pgm"):
        fileio.write_map(image, tmp_path / ("map." + ext), ext, meta=meta)
    csv_sidecar = (tmp_path / "map.csv.meta.txt").read_text()
    assert csv_sidecar == (tmp_path / "map.pgm.meta.txt").read_text()
    assert csv_sidecar.startswith("frequency_hz = 1000000000.0\nmatrix_kind = full\n"
                                  "rank_used = 3\nnormalization_max = ")
    assert csv_sidecar.endswith("config_sha256 = abc\nnoise_seed = 7\n")


def test_map_unknown_format_is_config_error(tmp_path, coarse_grid):
    image = imaging.ImageMap(coarse_grid, np.ones(coarse_grid.shape), 1, 1e9, "full")
    with pytest.raises(ConfigError):
        fileio.write_map(image, tmp_path / "map.bmp", "bmp")
    assert list(tmp_path.iterdir()) == []


def test_spectrum_file(tmp_path, born_fixture, contaminated_fixture):
    decomp = imaging.svd(born_fixture)
    path = tmp_path / "spec.csv"
    fileio.write_spectrum(decomp, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    taus = [float(r[1]) for r in rows]
    ratios = [float(r[2]) for r in rows]
    assert ratios[1] <= 1e-10
    assert all(taus[i + 1] <= taus[i] for i in range(len(taus) - 1))

    fileio.write_spectrum(imaging.svd(contaminated_fixture), path)
    ratios = [float(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]
    assert sum(r >= 0.02 for r in ratios) >= 3


def test_writers_replace_a_longer_old_file(tmp_path, born_fixture, coarse_grid):
    image = imaging.ImageMap(coarse_grid, np.ones(coarse_grid.shape), 1, 1e9, "full")
    meta = {"seed": 7}
    writers = {
        "s.csv": lambda path: fileio.write_sparams(born_fixture, path, meta=meta),
        "map.csv": lambda path: fileio.write_map(image, path, "csv", meta=meta),
        "map.pgm": lambda path: fileio.write_map(image, path, "pgm", meta=meta),
        "spec.csv": lambda path: fileio.write_spectrum(imaging.svd(born_fixture), path, meta),
    }
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    for name, write in writers.items():
        write(fresh / name)
        for path in (old / name, old / (name + ".meta.txt")):
            path.write_bytes(b"x" * (1 << 20))
        write(old / name)
        for target in (name, name + ".meta.txt"):
            assert (old / target).read_bytes() == (fresh / target).read_bytes()


def test_sidecar_records_seed_and_hash(tmp_path, born_fixture):
    path = tmp_path / "s.csv"
    fileio.write_sparams(born_fixture, path, meta={"config_sha256": "abc", "seed": 7})
    sidecar = (tmp_path / "s.csv.meta.txt").read_text()
    assert "config_sha256 = abc" in sidecar
    assert "seed = 7" in sidecar


_EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]


def _sparams_matrix(seed):
    """An N x N matrix whose parts mix normal values, random finite bit
    patterns and edge values; half of them are symmetric but for a few
    planted parts that differ from their mirror only in sign or one ulp."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    normal = rng.standard_normal((n, n, 2)) * 10.0 ** rng.integers(-9, 3)
    bits = rng.integers(-2 ** 63, 2 ** 63, size=(n, n, 2), dtype=np.int64).view(float)
    edge = rng.choice(_EDGE_PARTS, size=(n, n, 2))
    source = rng.integers(0, 3, size=(n, n, 2))
    parts = np.where(source == 0, normal, np.where(source == 1, bits, edge))
    parts = np.where(np.isfinite(parts), parts, normal)
    if rng.integers(2):
        lower = np.tri(n, n, -1, dtype=bool)[:, :, None]
        parts = np.where(lower, parts.transpose(1, 0, 2), parts)
        for _ in range(int(rng.integers(0, n + 1))):
            m, j = sorted(rng.choice(n, size=2)) if n > 1 else (0, 0)
            part = int(rng.integers(2))
            value = parts[j, m, part]
            parts[j, m, part] = -value if rng.integers(2) else np.nextafter(value, 0.0)
    entries = parts[..., 0] + 1j * parts[..., 1]
    return forward.ScatteringMatrix(entries, forward.KIND_FULL, "file",
                                    float(rng.integers(1, 5)) * 1e9)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sparams_round_trip_property(tmp_path, seed):
    # Safe with one shared tmp_path: each example writes its own file.  Bits
    # are compared, so -0.0 read back as 0.0 fails.
    s = _sparams_matrix(seed)
    path = tmp_path / ("s%d.csv" % seed)
    fileio.write_sparams(s, path)
    back = fileio.read_sparams(path)
    assert np.array_equal(back.entries.view(np.int64), s.entries.view(np.int64))
    assert back.frequency_hz == s.frequency_hz


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sparams_writer_matches_the_reference_writer(tmp_path, seed):
    # The writer formats only the parts reciprocity does not repeat; its
    # bytes are those of formatting every entry with one "%d,%d,%r,%r" row.
    s = _sparams_matrix(seed)
    path = tmp_path / ("w%d.csv" % seed)
    fileio.write_sparams(s, path)
    reference = "# smig-sparams v1, N=%d, f_hz=%r\nm,n,re,im\n" % (s.size, s.frequency_hz)
    reference += "".join("%d,%d,%r,%r\n" % (m, j, v.real, v.imag)
                         for m, row in enumerate(s.entries.tolist(), start=1)
                         for j, v in enumerate(row, start=1))
    assert path.read_bytes() == reference.encode()


@pytest.mark.parametrize("f_hz", [0.0, -0.0, -1e9], ids=["0.0", "-0.0", "-1e9"])
def test_sparams_frequency_must_be_positive(tmp_path, born_fixture, f_hz):
    path = tmp_path / "s.csv"
    fileio.write_sparams(born_fixture, path)
    text = path.read_text().replace("f_hz=%r" % born_fixture.frequency_hz, "f_hz=%r" % f_hz, 1)
    path.unlink()
    path.write_text(text)
    with pytest.raises(DataError, match="frequency"):
        fileio.read_sparams(path)
    bad = forward.ScatteringMatrix(born_fixture.entries, forward.KIND_FULL, "t", f_hz)
    with pytest.raises(DataError, match="frequency"):
        fileio.write_sparams(bad, tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


_HEADER_RE = re.compile(r"#\s*smig-sparams\s+v1,\s*N=(\d+),\s*f_hz=([^\s,]+)")


def _reference_read_sparams(path):
    """The row-by-row v1 reader: each row is parsed and checked in file order."""
    with open(path, errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or not (match := _HEADER_RE.match(lines[0])):
        raise DataError("%s: missing smig-sparams v1 header" % path)
    n = int(match.group(1))
    try:
        f_hz = float(match.group(2))
    except ValueError:
        raise DataError("%s: malformed header %r" % (path, lines[0])) from None
    if not n:
        raise DataError("%s: header says N=0" % path)
    if n * n >= len(lines):
        raise DataError("%s: header says N=%d, but the file has %d lines" % (path, n, len(lines)))
    values = {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("m,"):
            continue
        try:
            m, j, re_part, im_part = line.split(",")
            m, j, re_part, im_part = int(m), int(j), float(re_part), float(im_part)
        except ValueError:
            raise DataError("%s: malformed row %r" % (path, raw)) from None
        if not (1 <= m <= n and 1 <= j <= n):
            raise DataError("%s: index (%d,%d) outside 1..%d" % (path, m, j, n))
        if (m, j) in values:
            raise DataError("%s: duplicate entry (%d,%d)" % (path, m, j))
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise DataError("%s: non-finite value at (%d,%d)" % (path, m, j))
        values[m, j] = complex(re_part, im_part)
    if len(values) != n * n:
        missing = [(m, j) for m in range(1, n + 1) for j in range(1, n + 1) if (m, j) not in values]
        raise DataError("%s: missing entries %s" % (path, missing[:8]))
    entries = np.array([values[m, j] for m in range(1, n + 1) for j in range(1, n + 1)],
                       dtype=complex).reshape(n, n)
    kind = forward.KIND_ZERO_DIAGONAL if np.all(np.diag(entries) == 0) else forward.KIND_FULL
    return forward.ScatteringMatrix(entries, kind, "file", f_hz)


_MALFORMED_ROWS = ["1,one,0.0,0.0", "1,1,0.0", "1,1,0.0,0.0,0.0", "x", "1.0,1,0.0,0.0",
                   "1,1,0.0,1e5x", ",,,", "1,1,,0.0"]
_NON_FINITE = ["nan", "inf", "-inf", "1e999", "NaN"]


@st.composite
def _sparams_with_faults(draw):
    """A v1 file whose rows carry one or two injected faults, in either order;
    a python_only "fault" is a row only the row-by-row reader can parse."""
    n = draw(st.integers(1, 4))
    part = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = ["%d,%d,%r,%r" % (m, j, draw(part), draw(part))
            for m in range(1, n + 1) for j in range(1, n + 1)]
    faults = draw(st.lists(st.sampled_from(
        ["out_of_range", "duplicate", "non_finite", "malformed", "missing", "python_only"]),
        min_size=1, max_size=2))
    for fault in faults:
        at = draw(st.integers(0, len(rows)))
        if fault == "out_of_range":
            bad = draw(st.sampled_from([0, -1, n + 1, 10 ** 30]))
            good = draw(st.integers(1, n))
            m, j = (bad, good) if draw(st.booleans()) else (good, bad)
            rows.insert(at, "%d,%d,0.0,0.0" % (m, j))
        elif fault == "duplicate" and rows:
            rows.insert(at, rows[draw(st.integers(0, len(rows) - 1))])
        elif fault == "non_finite" and rows:
            i = draw(st.integers(0, len(rows) - 1))
            fields = rows[i].split(",")
            if len(fields) == 4:
                fields[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(_NON_FINITE))
                rows[i] = ",".join(fields)
        elif fault == "malformed":
            rows.insert(at, draw(st.sampled_from(_MALFORMED_ROWS)))
        elif fault == "missing" and rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
        elif fault == "python_only" and rows:
            # Spellings Python's int and float accept and numpy's loadtxt refuses.
            i = draw(st.integers(0, len(rows) - 1))
            fields = rows[i].split(",")
            if len(fields) == 4:
                column = draw(st.integers(0, 3))
                fields[column] = draw(st.sampled_from(["1_0", "\u0661"] if column < 2
                                                      else ["1_0.5", "\uff11.5"]))
                rows[i] = ",".join(fields)
    # Blank lines, comments and padding are skipped or stripped by both readers.
    extras = draw(st.lists(st.sampled_from(["", "  ", "# note", "m,n,re,im"]), max_size=2))
    for extra in extras:
        rows.insert(draw(st.integers(0, len(rows))), extra)
    if rows and draw(st.booleans()):
        rows[0] = " %s\t" % rows[0]
    return "# smig-sparams v1, N=%d, f_hz=1.0\nm,n,re,im\n%s\n" % (n, "\n".join(rows))


def _read_outcome(reader, path):
    try:
        s = reader(path)
    except DataError as exc:
        return str(exc)
    return s.entries.tobytes(), s.kind, s.frequency_hz


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_sparams_with_faults())
def test_sparams_reader_reports_the_row_by_row_fault(tmp_path, text):
    # The bulk reader raises exactly the row-by-row reader's DataError: the
    # first faulty row in file order, or the missing entries of a clean file.
    path = tmp_path / "s.csv"
    path.unlink(missing_ok=True)  # a new file: truncating one just written can stall
    path.write_text(text)
    assert _read_outcome(fileio.read_sparams, path) == _read_outcome(_reference_read_sparams, path)


def test_sparams_writer_matches_row_by_row_format(tmp_path, born_fixture):
    # Reference: one "%d,%d,%r,%r" row per entry, row-major; also for an
    # F-ordered matrix holding -0.0, a subnormal and +-1e300.
    entries = born_fixture.entries.copy()
    entries[0, 1:5] = [complex(-0.0, 5e-324), complex(1e300, -1e300), -1e300j, complex(0.0, -0.0)]
    odd = forward.ScatteringMatrix(entries.T, forward.KIND_FULL, "file", 2.5e9)
    assert odd.entries.flags.f_contiguous and not odd.entries.flags.c_contiguous
    for s_matrix in (born_fixture, odd):
        path = tmp_path / "s.csv"
        path.unlink(missing_ok=True)
        fileio.write_sparams(s_matrix, path)
        rows = ["# smig-sparams v1, N=%d, f_hz=%r\nm,n,re,im\n"
                % (s_matrix.size, float(s_matrix.frequency_hz))]
        for m, row in enumerate(s_matrix.entries.tolist(), start=1):
            rows += ["%d,%d,%r,%r\n" % (m, j, v.real, v.imag) for j, v in enumerate(row, start=1)]
        assert path.read_text() == "".join(rows)
