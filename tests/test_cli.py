import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smig import config as cfgmod
from smig import em, fileio, forward, imaging, structure
from smig.cli import build_parser, main

FAST = [
    "--override", "grid.x_min_m=-0.05", "--override", "grid.x_max_m=0.05",
    "--override", "grid.y_min_m=-0.05", "--override", "grid.y_max_m=0.05",
    "--override", "grid.step_m=0.005",
]


def test_image_defaults_prints_argmax(tmp_path, capsys):
    rc = main(["image", "--out", str(tmp_path)] + FAST)
    out = capsys.readouterr().out
    assert rc == 0
    x = float(out.split("argmax_x_m=")[1].split()[0])
    y = float(out.split("argmax_y_m=")[1].split()[0])
    assert abs(x - 0.01) <= 1e-12 and abs(y - 0.03) <= 1e-12
    assert (tmp_path / "map.csv").exists()
    assert (tmp_path / "map.csv.meta.txt").exists()


def test_image_formats(tmp_path, capsys):
    rc = main(["image", "--out", str(tmp_path), "--format", "both"] + FAST)
    assert rc == 0
    assert (tmp_path / "map.csv").exists()
    assert (tmp_path / "map.pgm").exists()


def test_validate_reports_small_deviation(capsys):
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    deviation = float(out.split("max_identity_deviation=")[1].split()[0])
    spread = float(out.split("ratio_spread=")[1].split()[0])
    assert deviation <= 1e-8
    assert spread <= 1e-6


@pytest.mark.parametrize("count", [2, 3, 64, 100])
def test_validate_passes_for_any_ring_size(capsys, count):
    # The ring average keeps the orders N, 2N, ... <= 64: the most at N = 2,
    # one at N = 64 and none past J_0 at N = 100.
    rc = main(["validate", "--override", "array.count=%d" % count])
    out = capsys.readouterr().out
    assert rc == 0
    assert float(out.split("max_identity_deviation=")[1].split()[0]) <= 1e-8
    assert float(out.split("ratio_spread=")[1].split()[0]) <= 1e-6


@pytest.mark.parametrize("overrides", [
    ["medium.frequency_hz=2e9"],
    ["medium.frequency_hz=3e9"],
    ["grid.x_min_m=-0.2", "grid.x_max_m=0.2", "grid.y_min_m=-0.2", "grid.y_max_m=0.2"],
])
def test_validate_truncation_covers_the_grid(capsys, overrides):
    # The series order grows with 2k max|r - r*|; a fixed S = 64 left a
    # tail of 3.7e-6 at 2 GHz and 1.7e-2 at 3 GHz.
    argv = ["validate"]
    for pair in overrides:
        argv += ["--override", pair]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert float(out.split("max_identity_deviation=")[1].split()[0]) <= 1e-12


@pytest.mark.parametrize("overrides", [[], ["medium.frequency_hz=3e9"]])
def test_validate_prints_the_library_validation(capsys, overrides):
    # smig validate adds no rule of its own: it prints structure.validate of
    # its 21 x 21 lattice, which sizes the series order itself.
    argv = ["validate"]
    for pair in overrides:
        argv += ["--override", pair]
    assert main(argv) == 0
    cfg = cfgmod.apply_overrides(cfgmod.RunConfig(), overrides)
    g = cfg.grid
    lattice = imaging.lattice(np.linspace(g.x_min_m, g.x_max_m, 21),
                              np.linspace(g.y_min_m, g.y_max_m, 21))
    k_real = em.lossless_wavenumber(cfgmod.build_medium(cfg)).k.real
    r_star = np.array([cfg.anomalies[0].center_x_m, cfg.anomalies[0].center_y_m])
    expected = structure.validate(lattice, cfgmod.build_array(cfg), k_real, r_star)
    assert capsys.readouterr().out == "max_identity_deviation=%r ratio_spread=%r\n" % expected


def test_validate_past_max_order_is_one_line_error(capsys):
    # 2k max|r - r*| = 638 at 20 GHz needs an order past 512.
    rc = main(["validate", "--override", "medium.frequency_hz=2e10"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: TruncationError:") and _one_line_error(err)


def test_validate_evaluates_the_series_once(monkeypatch):
    calls = []
    series = structure.structure_diag

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(structure, "structure_diag", counted)
    assert main(["validate"]) == 0
    assert len(calls) == 1


def test_spectrum_writes_file(tmp_path, capsys):
    rc = main(["spectrum", "--out", str(tmp_path),
               "--override", "imaging.matrix_kind=full"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank_selected=" in out
    assert (tmp_path / "spectrum.csv").exists()


def test_spectrum_defaults_select_the_first_pair(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    assert "rank_selected=1 " in capsys.readouterr().out


def test_image_of_all_zero_data_is_rank_error(tmp_path, capsys):
    # An anomaly with the background's material scatters nothing.
    rc = main(["image", "--out", str(tmp_path),
               "--override", "anomaly.1.permittivity_rel=20",
               "--override", "anomaly.1.conductivity_s_per_m=0.2",
               "--override", "synthesis.contamination_amplitude_rel=0",
               "--override", "grid.step_m=0.01"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: RankError:")


def test_spectrum_of_all_zero_data_writes_no_file(tmp_path, capsys):
    rc = main(["spectrum", "--out", str(tmp_path),
               "--override", "anomaly.1.permittivity_rel=20",
               "--override", "anomaly.1.conductivity_s_per_m=0.2",
               "--override", "synthesis.contamination_amplitude_rel=0"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: RankError:")
    assert not (tmp_path / "spectrum.csv").exists()


def test_measured_image_of_another_array_size_is_one_line_error(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--override", "array.count=8"]) == 0
    rc = main(["image", "--out", str(tmp_path), *FAST,
               "--stot", str(tmp_path / "sparams_tot.csv"),
               "--sinc", str(tmp_path / "sparams_inc.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: DataError:")


@pytest.mark.parametrize("command", ["image", "spectrum"])
def test_measured_frequency_must_match_the_config(tmp_path, capsys, command):
    # Files written at 1 GHz are not imaged at the config's 2 GHz.
    sim_dir, out = tmp_path / "sim", tmp_path / "out"
    assert main(["simulate", "--out", str(sim_dir), "--override", "array.count=8"]) == 0
    capsys.readouterr()
    rc = main([command, "--out", str(out), *FAST, "--override", "medium.frequency_hz=2e9",
               "--stot", str(sim_dir / "sparams_tot.csv"),
               "--sinc", str(sim_dir / "sparams_inc.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_line_error(err) and err.startswith("error: DataError:"), err
    assert "1000000000.0 Hz" in err and "2000000000.0 Hz" in err
    assert not list(out.glob("*.csv"))


def test_simulate_then_measured_image_matches_synthetic(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    rc = main(["simulate", "--out", str(sim_dir),
               "--override", "synthesis.contamination_amplitude_rel=0.0"])
    assert rc == 0
    capsys.readouterr()

    scat = fileio.read_sparams(sim_dir / "sparams_scat.csv")
    zero = forward.ScatteringMatrix(
        np.zeros_like(scat.entries), forward.KIND_FULL, "file", scat.frequency_hz
    )
    p_zero = tmp_path / "zero.csv"
    fileio.write_sparams(zero, p_zero)

    out_syn = tmp_path / "syn"
    out_meas = tmp_path / "meas"
    args = ["--override", "synthesis.contamination_amplitude_rel=0.0"] + FAST
    assert main(["image", "--out", str(out_syn)] + args) == 0
    synthetic = capsys.readouterr().out
    assert main([
        "image", "--out", str(out_meas),
        "--stot", str(sim_dir / "sparams_scat.csv"), "--sinc", str(p_zero),
    ] + args) == 0
    measured = capsys.readouterr().out
    assert synthetic.split("files=")[0] == measured.split("files=")[0]
    assert (out_syn / "map.csv").read_text() == (out_meas / "map.csv").read_text()


def test_measured_needs_both_files(tmp_path, capsys):
    rc = main(["image", "--out", str(tmp_path), "--stot", "only.csv"] + FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError:")
    assert err.count("\n") == 1


def test_unknown_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_bad_override_is_one_line_error(tmp_path, capsys):
    rc = main(["image", "--out", str(tmp_path), "--override", "array.count=two"] + FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError")


def test_seed_reproducibility(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a", "b", "c"))
    args = ["spectrum", "--override", "imaging.matrix_kind=full"]
    assert main(args + ["--out", str(a), "--seed", "42"]) == 0
    assert main(args + ["--out", str(b), "--seed", "42"]) == 0
    assert main(args + ["--out", str(c), "--seed", "43"]) == 0
    capsys.readouterr()
    spec_a = (a / "spectrum.csv").read_text()
    assert spec_a == (b / "spectrum.csv").read_text()
    assert spec_a != (c / "spectrum.csv").read_text()


def test_sidecar_has_config_hash(tmp_path, capsys):
    rc = main(["spectrum", "--out", str(tmp_path), "--seed", "5"])
    assert rc == 0
    sidecar = (tmp_path / "spectrum.csv.meta.txt").read_text()
    assert "config_sha256 = " in sidecar
    assert "contamination_seed = 5" in sidecar


def _one_line_error(err):
    return err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


COARSE = ["--override", "grid.step_m=0.02"]


@pytest.mark.parametrize("overrides", [
    ["grid.x_min_m=nan"],
    ["grid.step_m=inf"],
    ["synthesis.noise_snr_db=-inf"],
    ["synthesis.noise_snr_db=1e300"],
    ["medium.frequency_hz=1e300"],
    ["anomaly.1.radius_m=1e300"],
    ["synthesis.contamination_amplitude_rel=nan"],
    ["imaging.rank_mode=fixed", "imaging.rank_fixed_m=99"],
    ["anomaly.1.center_x_m=0.0", "anomaly.1.center_y_m=-0.085"],
    ["grid.step_m=1e-6"],
])
def test_bad_input_is_one_line_error(tmp_path, capsys, overrides):
    argv = ["image", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    if not any(item.startswith("grid.step_m=") for item in overrides):
        argv += COARSE
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_line_error(err), err


def test_antenna_count_over_bound_is_one_line_error(tmp_path, capsys):
    # 10^5 antennas would ask for a 160 GB matrix before any check ran.
    rc = main(["spectrum", "--out", str(tmp_path), "--override", "array.count=100000"])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_line_error(err) and err.startswith("error: ConfigError: array: "), err


def test_config_file_with_stray_bytes_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"medium.frequency_hz = 1e9\xff\n")
    assert main(["image", "--config", str(path), "--out", str(tmp_path)] + COARSE) == 1
    assert _one_line_error(capsys.readouterr().err)


def test_validate_huge_frequency_is_one_line_error(capsys):
    rc = main(["validate", "--override", "imaging.lossless_k=true",
               "--override", "medium.frequency_hz=1e300"])
    assert rc == 1
    assert _one_line_error(capsys.readouterr().err)


_KEYS = [line.split(" = ")[0]
         for line in cfgmod.serialize_config(cfgmod.RunConfig()).splitlines()]
_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "", "bogus", "1,5"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["image", "simulate", "spectrum", "validate"]),
       key=st.sampled_from(_KEYS), value=st.sampled_from(_VALUES))
def test_cli_never_tracebacks(tmp_path, capsys, command, key, value):
    argv = [command, "--out", str(tmp_path), "--override", "%s=%s" % (key, value)]
    if key != "grid.step_m":
        argv += COARSE
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1)
    if rc == 1:
        assert _one_line_error(err), err


_PARSER_ARGVS = {
    "simulate": ["simulate", "--config", "c.txt", "--override", "array.count=8",
                 "--override", "grid.step_m=0.002", "--out", "o", "--seed", "3"],
    "image": ["image", "--format", "both", "--stot", "t.csv", "--sinc", "i.csv", "--seed", "1"],
    "validate": ["validate", "--override", "medium.frequency_hz=2e9"],
    "spectrum": ["spectrum", "--stot", "t.csv", "--sinc", "i.csv", "--out", "o"],
}


def _parse_outcome(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(_PARSER_ARGVS))
def test_parser_of_one_command_matches_the_full_parser(capsys, command):
    # build_parser(command) gives only that subcommand its options: its help
    # and its namespaces are the full parser's.
    for argv in (_PARSER_ARGVS[command], [command, "--help"], [command],
                 [command, "--stot"], [command, "--format", "bmp"], [command, "--format", "csv"]):
        assert (_parse_outcome(build_parser(command), argv, capsys)
                == _parse_outcome(build_parser(), argv, capsys)), argv


@pytest.mark.parametrize("argv", [["simulate", "--format", "csv"], ["spectrum", "--format", "csv"],
                                  ["validate", "--format", "csv"], ["validate", "--seed", "1"]])
def test_unused_option_is_usage_error(capsys, argv):
    # Only image writes a map, and validate draws no random numbers.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: smig") and "unrecognized arguments: %s" % argv[1] in err


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], [], ["bogus", "--help"],
                                  ["--out", "o", "image"]])
def test_main_without_a_command_keeps_the_full_usage(capsys, argv):
    expected = _parse_outcome(build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == expected
    assert exc.value.code in (0, 2)
