"""End-to-end command-line runs: output contract, config handling, exit codes."""

import json
import math

import numpy as np
import pytest

from dleit.cli import _parse_pair, _parse_sweep, build_parser, main
from dleit.core import MediumParams
from dleit.dynamics import PulseShape, SimGrid, simulate
from dleit.phase_jump import critical_depth, detect_zero_crossing
from dleit.steady_state import trace_curve, unwrapped_phase


def run_csv(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return out.read_text()


def parse_csv(text):
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    table = [l for l in lines if not l.startswith("# ")]
    columns = table[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in table[1:]]
    return meta, columns, rows


def test_parse_sweep_inclusive_grid():
    assert _parse_sweep("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        _parse_sweep("0:1")
    with pytest.raises(ValueError):
        _parse_sweep("0:1:-0.5")
    for spec in ("0:inf:1", "nan:1:0.5", "0:1:inf", "-inf:0:1", "0:-inf:1"):
        with pytest.raises(ValueError, match="finite"):
            _parse_sweep(spec)


@pytest.mark.parametrize("argv", [
    ["jump", "--delta-sweep", "0:inf:1"],
    ["amplify-sweep", "--alpha-sweep", "1:inf:1"],
    ["steady", "--alpha", "10", "--phi-r-sweep", "0:nan:0.1"],
])
def test_non_finite_sweep_exits_via_parser(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    # argparse reports the rejected spec, not the ValueError text.
    assert argv[-1] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["steady", "--alpha", "10", "--phi-r", "nan"],
    ["phase-diagram", "--alpha", "10", "--phi-r", "1", "inf"],
    ["jump", "--delta", "nan"],
    ["jump", "--delta", "16.5", "inf"],
])
def test_non_finite_angle_or_detuning_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr()
    assert "finite" in err.err
    assert err.out == ""


def test_parse_pair():
    assert _parse_pair("0.5:60") == (0.5, 60.0)
    with pytest.raises(ValueError):
        _parse_pair("0.5")


def test_steady_zero_depth_row(tmp_path):
    text = run_csv(tmp_path, "steady.csv", ["steady", "--alpha", "0"])
    meta, columns, rows = parse_csv(text)
    assert columns == ["phi_r", "T_p", "T_s", "dphi_p", "dphi_s"]
    assert rows == [[0.0, 1.0, 1.0, 0.0, 0.0]]
    assert any("alpha = 0.0" in line for line in meta)
    # The identity medium is pinned to exact rows over a whole sweep.
    text = run_csv(tmp_path, "sweep.csv", ["steady", "--alpha", "0", "--phi-r-sweep", "0:6.2832:0.5"])
    _, _, rows = parse_csv(text)
    assert rows == [[phi, 1.0, 1.0, 0.0, 0.0] for phi in _parse_sweep("0:6.2832:0.5")]
    assert ",-0.0" not in text


def _sampled_steady_rows(alpha, delta, phis):
    """The sampled route the closed form replaced: one 2,000-sample curve per phi_r."""
    params = MediumParams(alpha=alpha, delta=delta)
    rows = []
    for phi in phis:
        curve = trace_curve(phi, params, n_samples=2000)
        dphi_p, dphi_s = (float(phase[-1]) for phase in unwrapped_phase(curve))
        # numpy's array |z| and its scalar |z| can differ in the last bit;
        # the CLI takes the array one.
        t_p, t_s = (float(np.abs(ratio)[-1]) ** 2 for ratio in (curve.probe_ratio, curve.signal_ratio))
        rows.append([phi, t_p, t_s, dphi_p, dphi_s])
    return rows


@pytest.mark.parametrize("alpha, delta", [
    (100.0, 16.5),  # the README sweep
    *(tuple(np.round(np.random.default_rng(seed).uniform((20.0, -30.0), (200.0, 30.0)), 6))
      for seed in (1, 2)),
])
def test_steady_sweep_matches_sampled_unwrap(tmp_path, alpha, delta):
    spec = "0:6.2832:0.02"
    argv = ["steady", "--alpha", repr(float(alpha)), "--delta", repr(float(delta)), "--phi-r-sweep", spec]
    text = run_csv(tmp_path, "steady.csv", argv)
    lines = text.splitlines()
    assert lines[:7] == [
        "# command = steady",
        f"# alpha = {float(alpha)}",
        f"# delta = {float(delta)}",
        "# phi_r = 0.0",
        f"# phi_r_sweep = {_parse_sweep(spec)}",
        "# samples = 2000",
        "phi_r,T_p,T_s,dphi_p,dphi_s",
    ]
    expected = _sampled_steady_rows(alpha, delta, _parse_sweep(spec))
    assert len(lines) == 7 + len(expected)
    for line, ref in zip(lines[7:], expected):
        fields = line.split(",")
        assert fields[:3] == [repr(v) for v in ref[:3]]
        # One closed-form evaluation against an unwrap over 2,000 samples:
        # the same winding, up to rounding.
        for got, want in zip(fields[3:], ref[3:]):
            assert abs(float(got) - want) <= 1e-12, (line, ref)


@pytest.mark.filterwarnings("error")
def test_steady_single_mode_loop_phases(tmp_path):
    # phi_r = 0 leaves only the non-decaying mode (b = 0), phi_r = pi only
    # the decaying one (a = 0 up to rounding); neither may divide by zero.
    _, _, rows = parse_csv(run_csv(tmp_path, "zero.csv", ["steady", "--alpha", "40", "--delta", "3"]))
    assert rows == [[0.0, 1.0, 1.0, 0.0, 0.0]]
    argv = ["steady", "--alpha", "40", "--delta", "3", "--phi-r", repr(math.pi)]
    _, _, rows = parse_csv(run_csv(tmp_path, "pi.csv", argv))
    assert rows[0] == pytest.approx(_sampled_steady_rows(40.0, 3.0, [math.pi])[0], abs=1e-12)


def test_steady_samples_is_validated_and_echoed(tmp_path, capsys):
    assert main(["steady", "--alpha", "3", "--samples", "1"]) == 2
    assert "samples" in capsys.readouterr().err
    few = run_csv(tmp_path, "few.csv", ["steady", "--alpha", "3", "--delta", "0.5", "--phi-r", "0.3", "--samples", "16"])
    many = run_csv(tmp_path, "many.csv", ["steady", "--alpha", "3", "--delta", "0.5", "--phi-r", "0.3"])
    assert "# samples = 16" in few.splitlines()
    # The closed-form phases do not depend on the sample count.
    assert few.replace("# samples = 16", "# samples = 2000") == many


def test_steady_near_half_turn_is_opaque(tmp_path):
    text = run_csv(
        tmp_path,
        "opaque.csv",
        ["steady", "--alpha", "100", "--delta", "0", "--phi-r", "3.14159"],
    )
    _, _, rows = parse_csv(text)
    assert rows[0][1] < 1e-9
    assert rows[0][2] < 1e-9


def test_steady_sweep_json_structure(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["steady", "--alpha", "10", "--phi-r-sweep", "0:6.28:0.5",
         "--samples", "200", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "columns", "data"}
    assert payload["config"]["command"] == "steady"
    assert payload["config"]["alpha"] == 10.0
    assert payload["columns"] == ["phi_r", "T_p", "T_s", "dphi_p", "dphi_s"]
    assert len(payload["data"]) == 13
    assert all(len(row) == 5 for row in payload["data"])
    assert payload["data"][0][0] == 0.0
    assert payload["data"][0][1] == pytest.approx(1.0, abs=1e-9)


def test_steady_sweep_is_deterministic(tmp_path):
    argv = ["steady", "--alpha", "10", "--phi-r-sweep", "0:6.28:0.5",
            "--samples", "200"]
    assert run_csv(tmp_path, "a.csv", argv) == run_csv(tmp_path, "b.csv", argv)


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["steady", "--alpha", "10", "--threads", "2"])
    assert "--threads" in capsys.readouterr().err


def test_phase_diagram_single_and_multi(tmp_path):
    single = run_csv(
        tmp_path, "one.csv",
        ["phase-diagram", "--alpha", "5", "--phi-r", "1.0", "--samples", "50"],
    )
    _, columns, rows = parse_csv(single)
    assert columns == ["zeta", "re_probe", "im_probe", "re_signal", "im_signal"]
    assert len(rows) == 50
    assert rows[0] == [0.0, 1.0, 0.0, 1.0, 0.0]

    multi = run_csv(
        tmp_path, "two.csv",
        ["phase-diagram", "--alpha", "5", "--phi-r", "1.0", "2.0",
         "--samples", "50"],
    )
    _, columns, rows = parse_csv(multi)
    assert columns[0] == "phi_r"
    assert len(rows) == 100
    assert {row[0] for row in rows} == {1.0, 2.0}


def test_jump_verify_locates_zero(tmp_path):
    text = run_csv(
        tmp_path, "jump.csv",
        ["jump", "--delta", "16.5", "10", "--verify"],
    )
    _, columns, rows = parse_csv(text)
    assert columns == ["delta", "critical_depth", "probe_jump_phase",
                       "signal_jump_phase", "zero_zeta", "zero_offset",
                       "grid_step"]
    for row in rows:
        assert not math.isnan(row[4])
        assert row[5] < row[6]
    assert rows[0][1] == pytest.approx(52.0267, abs=1e-3)


@pytest.mark.parametrize("samples", [3, 64, 2000])
@pytest.mark.parametrize("argv", [
    ["--delta-sweep=-50:-2:2.5"],
    ["--delta-sweep=-20:20:0.75", "--n", "3"],
    ["--delta", "-16.5", "16.5", "0.3", "-0.3", "34.25"],
])
def test_jump_verify_rows_equal_traced_zero_crossings(tmp_path, argv, samples):
    # The probe-only verification gives, bit for bit, the zero that the
    # traced balanced curve and the public zero locator give.
    text = run_csv(tmp_path, "jump.csv", ["jump", *argv, "--verify", "--samples", str(samples)])
    _, _, rows = parse_csv(text)
    n = 3 if "--n" in argv else 1
    assert len(rows) >= 5
    for delta, depth, probe_phase, _, zero, offset, step in rows:
        curve = trace_curve(probe_phase, MediumParams(alpha=depth, delta=delta), n_samples=samples)
        expected = detect_zero_crossing(curve, "probe")
        assert depth == critical_depth(delta, n)
        if expected is None:
            assert math.isnan(zero) and math.isnan(offset)
        else:
            assert zero == expected and offset == abs(expected - depth)
        assert step == depth / (samples - 1)


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("samples", ["1", "0", "-4"])
def test_jump_rejects_too_few_samples_before_computing(verify, samples, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("jump computed before --samples was validated")

    monkeypatch.setattr("dleit.cli.solve_jump", fail)
    monkeypatch.setattr("dleit.cli.verify_jump", fail)
    assert main(["jump", "--delta", "16.5", "--samples", samples, *verify]) == 2
    assert "samples must be >= 2" in capsys.readouterr().err


def test_jump_verify_rejects_an_infinite_critical_depth(capsys):
    # |delta| so large that alpha_c = pi*(delta^2 + 1)/|delta| overflows.
    assert main(["jump", "--delta", "1e200", "--verify"]) == 2
    assert "critical depth" in capsys.readouterr().err


def test_jump_sweep_grid(tmp_path):
    text = run_csv(tmp_path, "jumps.csv", ["jump", "--delta-sweep", "5:25:5"])
    _, columns, rows = parse_csv(text)
    assert [row[0] for row in rows] == [5.0, 10.0, 15.0, 20.0, 25.0]
    assert columns == ["delta", "critical_depth", "probe_jump_phase",
                       "signal_jump_phase"]


def test_apm_command_finds_operating_point(tmp_path):
    text = run_csv(
        tmp_path, "apm.csv",
        ["apm", "--alpha", "100", "--target", "pi", "--scan-step", "0.5"],
    )
    _, columns, rows = parse_csv(text)
    assert columns == ["alpha", "delta_opt", "phi_r", "T_with", "T_without",
                       "phase_with", "phase_without", "contrast"]
    row = rows[0]
    assert 16.0 < row[1] < 17.0
    assert row[7] == pytest.approx(2.6114, abs=0.02)


def table(text):
    """Header and data lines of a CSV output, without the metadata lines."""
    return [line for line in text.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("argv, depths", [
    (["apm", "--target", "pi"], ["10", "55.5", "131.3"]),
    (["apm", "--target", "half_pi"], ["10", "55.5", "131.3"]),
    (["amplify-sweep"], ["0", "50", "100"]),
])
def test_multi_depth_rows_equal_one_depth_calls(argv, depths, capsys):
    assert main(argv + ["--alpha", *depths]) == 0
    together = table(capsys.readouterr().out)
    expected = together[:1]
    for depth in depths:
        assert main(argv + ["--alpha", depth]) == 0
        expected += table(capsys.readouterr().out)[1:]
    assert together == expected
    if argv[0] == "amplify-sweep":
        assert together[1] == "0.0,nan,0.0,1.0,1.0"


@pytest.mark.parametrize("depths, message", [
    (["1", "-3"], "no feasible detuning for target 'half_pi' in [40.0, 60.0] at alpha=1.0"),
    (["-3", "1"], "alpha must be finite and > 0, got -3.0"),
])
def test_apm_reports_the_first_failing_depth(depths, message, capsys):
    argv = ["apm", "--alpha", *depths, "--target", "half_pi", "--delta-range", "40:60"]
    assert main(argv) == 2
    err = capsys.readouterr()
    assert err.err == f"error: {message}\n"
    assert err.out == ""


def test_cached_parser_matches_a_fresh_parser(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "apm.cfg"
    cfg.write_text("alpha = 20 60\ntarget = half_pi\ntol = 1e-5\n")
    runs = [
        ["apm", "--alpha", "10", "--tol", "1e-4"],
        ["apm", "--alpha", "10"],
        ["steady", "--alpha", "40", "--delta", "5", "--phi-r-sweep", "0:1:0.25"],
        ["apm", "--config", str(cfg)],
        ["apm", "--alpha", "10", "--format", "json"],
        ["steady", "--alpha", "40"],
        ["amplify-sweep", "--alpha", "20", "--scan-step", "0.5"],
        ["apm", "--config", str(cfg), "--alpha", "30"],
        ["apm", "--alpha", "10"],
    ]

    def outputs():
        texts = []
        for argv in runs:
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
            # Parser errors between the runs still exit through argparse.
            for bad in (["apm"], ["apm", "--alpha", "10", "--target", "tau"]):
                with pytest.raises(SystemExit) as err:
                    main(bad)
                assert err.value.code == 2
            capsys.readouterr()
        return texts

    cached = outputs()
    assert build_parser() is build_parser()
    monkeypatch.setattr("dleit.cli.build_parser", build_parser.__wrapped__)
    assert cached == outputs()
    # Defaults come back after a run that overrode them.
    assert "# tol = 0.0001\n" in cached[0]
    assert "# tol = 0.001\n" in cached[1] and "# target = pi\n" in cached[1]
    assert "# target = half_pi\n" in cached[3] and "# tol = 1e-05\n" in cached[3]
    assert cached[8] == cached[1]


def test_propagate_emits_waveforms_and_energy_meta(tmp_path):
    text = run_csv(
        tmp_path, "prop.csv",
        ["propagate", "--alpha", "5", "--pulse", "square", "--t-on", "0",
         "--t-off", "5", "--n-z", "32", "--dt", "0.05", "--t-final", "10",
         "--t-stride", "5"],
    )
    meta, columns, rows = parse_csv(text)
    assert len(columns) == 9
    assert len(rows) == 41
    assert any("energy_transmission_probe" in line for line in meta)
    assert any("group_delay_signal" in line for line in meta)


def test_propagate_rows_are_simulate_arrays_at_stride(tmp_path):
    text = run_csv(
        tmp_path, "prop.csv",
        ["propagate", "--alpha", "5", "--delta", "1.5", "--gamma21", "0.01",
         "--phi-r", "0.7", "--n-z", "32", "--dt", "0.05", "--t-final", "20",
         "--t-stride", "7"],
    )
    _, _, rows = parse_csv(text)
    params = MediumParams(alpha=5.0, delta=1.5, gamma21=0.01, omega_c=1.0,
                          omega_d=np.exp(0.7j))
    probe = PulseShape("smoothed_square", 1e-3, 10.0, 210.0, 2.0)
    signal = PulseShape("smoothed_square", 1e-3, 10.0, 210.0, 2.0)
    result = simulate(params, probe, signal, SimGrid(n_z=32, dt=0.05, t_final=20.0))
    expected = [result.time_grid]
    for wave in (result.input_probe, result.input_signal,
                 result.output_probe, result.output_signal):
        expected += [wave.real, wave.imag]
    # CSV floats are repr()-printed, so they round-trip exactly.
    assert np.array_equal(np.array(rows), np.column_stack(expected)[::7])


def test_amplify_sweep_is_deterministic(tmp_path):
    argv = ["amplify-sweep", "--alpha", "5", "10", "20", "--scan-step", "0.5"]
    first = run_csv(tmp_path, "amp1.csv", argv)
    second = run_csv(tmp_path, "amp2.csv", argv)
    assert first == second
    _, columns, rows = parse_csv(first)
    assert columns == ["alpha", "delta_opt", "phi_r_opt", "T_p", "T_s"]
    t_s = [row[4] for row in rows]
    assert t_s == sorted(t_s)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the dispersive point\n"
        "alpha = 50\n"
        "delta = 3\n"
        "phi_r = 1.5\n"
    )
    out = tmp_path / "cfg.json"
    code = main(
        ["steady", "--config", str(cfg), "--alpha", "10",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert config["alpha"] == 10.0
    assert config["delta"] == 3.0
    assert config["phi_r"] == 1.5


def test_config_file_rejects_nested_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("config = other.cfg\n")
    assert main(["steady", "--alpha", "1", "--config", str(cfg)]) == 2


def test_json_replaces_undefined_values_with_null(tmp_path):
    out = tmp_path / "silent.json"
    code = main(
        ["propagate", "--alpha", "5", "--probe-amp", "0", "--signal-amp", "0",
         "--pulse", "square", "--t-on", "0", "--t-off", "2", "--n-z", "16",
         "--dt", "0.05", "--t-final", "5", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["group_delay_probe"] is None
    assert payload["config"]["energy_transmission_probe"] == 0.0


def test_exit_code_for_invalid_physics(capsys):
    assert main(["steady", "--alpha", "-5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_propagate_rejects_bad_t_stride_before_simulating(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulate ran before --t-stride was validated")

    monkeypatch.setattr("dleit.cli.simulate", fail)
    assert main(["propagate", "--alpha", "10", "--t-stride", "0"]) == 2
    assert "t-stride" in capsys.readouterr().err


def test_exit_code_for_numerical_instability(capsys):
    code = main(
        ["propagate", "--alpha", "10", "--probe-amp", "50",
         "--signal-amp", "50", "--n-z", "32", "--dt", "0.02",
         "--t-final", "20"]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_for_unwritable_output(capsys):
    code = main(["steady", "--alpha", "0", "--out", "/no_such_dir/x.csv"])
    assert code == 4
    capsys.readouterr()


def test_missing_subcommand_exits_via_parser():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_mutually_exclusive_phase_flags():
    with pytest.raises(SystemExit) as err:
        main(["steady", "--alpha", "1", "--phi-r", "1", "--phi-r-sweep", "0:1:0.5"])
    assert err.value.code == 2


def test_stdout_output(capsys):
    assert main(["jump", "--delta", "16.5"]) == 0
    out = capsys.readouterr().out
    assert "delta,critical_depth,probe_jump_phase,signal_jump_phase" in out
