import math
import re
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gsteady.cli import main
from gsteady.config import KEYS, build_setup, parse_config_text, serialize_config
from gsteady.dsmc import EngineConfig, InitialCondition
from gsteady.errors import ConfigError
from gsteady.restitution import viscoelastic

BASE_CONFIG = """
engine.N = 400
engine.dt = 0.01
engine.mu = 0.0
engine.seed = 5
restitution.kind = constant
restitution.e0 = 1.0
init.kind = maxwellian
init.T0 = 0.5
run.max_steps = 300
run.window = 10
run.sample_every = 5
run.diss_pairs = 1000
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_parse_and_roundtrip():
    values = parse_config_text(BASE_CONFIG)
    assert values["engine.N"] == 400
    assert values["restitution.e0"] == 1.0
    again = parse_config_text(serialize_config(values))
    assert again == values


def test_config_errors_name_the_key():
    with pytest.raises(ConfigError, match="restitution.kind"):
        build_setup(parse_config_text(
            "engine.N = 10\nengine.dt = 0.1\nengine.mu = 0\n"))
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a kv line\n")
    with pytest.raises(ConfigError, match="bogus.key"):
        parse_config_text("bogus.key = 3\n")
    with pytest.raises(ConfigError, match="engine.N"):
        parse_config_text("engine.N = many\n")
    with pytest.raises(ConfigError, match="restitution.e0"):
        build_setup(parse_config_text(
            "engine.N = 10\nengine.dt = 0.1\nengine.mu = 0\n"
            "restitution.kind = constant\n"))
    with pytest.raises(ConfigError, match="restitution.gamma"):
        build_setup(parse_config_text(
            "engine.N = 10\nengine.dt = 0.1\nengine.mu = 0\n"
            "restitution.kind = power_law\n"))


def test_config_comments_and_removed_keys(runner, tmp_path):
    """Comments are dropped; recentering is unconditional and gamma_bar is
    fixed by the law, so neither is a key any more."""
    values = parse_config_text(
        "engine.N = 8  # particles\nengine.dt = 0.1\nengine.mu = 0\n"
        "restitution.kind = viscoelastic\n")
    assert build_setup(values).model.kind == "viscoelastic"
    for line in ("engine.recenter = off", "restitution.gamma_bar = 0.4"):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(BASE_CONFIG + line + "\n")
        res = runner.invoke(main, ["simulate", write(tmp_path, BASE_CONFIG + line),
                                   "--out-prefix", str(tmp_path / "x")])
        assert res.exit_code == 1
        assert f"config error: line 14: unknown key '{key}'" in res.output
    assert not (tmp_path / "x_series.csv").exists()


def test_minimal_config_takes_dataclass_defaults():
    setup = build_setup(parse_config_text(
        "engine.N = 10\nengine.dt = 0.1\nengine.mu = 0.5\n"
        "restitution.kind = viscoelastic\n"))
    assert setup.engine == EngineConfig(10, 0.1, 0.5)
    assert setup.init == InitialCondition()
    assert setup.model == viscoelastic(1.0)


def _valid_values():
    """A value inside its field's valid range for every key of the table."""
    def floats(lo, hi, **kw):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)

    unit = floats(0.0, 1.0, exclude_min=True)
    return st.fixed_dictionaries({
        "engine.N": st.integers(2, 10 ** 9),
        "engine.dt": floats(0.0, 1e300, exclude_min=True),
        "engine.mu": floats(0.0, 1e300),
        "engine.seed": st.integers(0, 2 ** 63 - 1),
        "restitution.kind": st.sampled_from(
            ["constant", "power_law", "powerlaw", "viscoelastic"]),
        "restitution.a": floats(0.0, 1e300, exclude_min=True),
        "restitution.gamma": unit,
        "restitution.e0": unit,
        "restitution.lambda": unit,
        "init.kind": st.sampled_from(["maxwellian", "bimodal", "uniform_ball"]),
        "init.T0": floats(0.0, 1e300, exclude_min=True),
        # Speeds whose square neither rounds to 0 nor overflows.
        "init.v0": floats(1e-160, 1e154),
        "init.R": floats(1e-160, 1e154),
        "run.max_steps": st.integers(1, 10 ** 9),
        "run.window": st.integers(2, 10 ** 6),
        "run.tol": floats(0.0, 1e300, exclude_min=True),
        "run.sample_every": st.integers(1, 10 ** 6),
        "run.diss_pairs": st.integers(1, 10 ** 12),
    })


@settings(max_examples=100, deadline=None)
@given(values=_valid_values())
def test_config_roundtrip_property(values):
    """Every key of the table survives serialize -> parse unchanged and
    lands in its own dataclass field."""
    assert set(values) == set(KEYS)
    text = serialize_config(values)
    assert parse_config_text(text) == values
    setup = build_setup(parse_config_text(text))
    assert setup == build_setup(values)
    law = setup.model.kind
    for key, (part, name, _) in KEYS.items():
        got = getattr(getattr(setup, part), name)
        if key == "restitution.kind":
            assert got == values[key].replace("powerlaw", "power_law")
        elif key == "restitution.gamma" and law == "viscoelastic":
            assert got == 0.2  # the viscoelastic law fixes its own exponent
        else:
            assert got == values[key]


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from([k for k, (_, _, conv) in KEYS.items()
                            if conv is float]),
       value=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]))
def test_config_rejects_non_finite_property(key, value):
    text = ("engine.N = 10\nengine.dt = 0.1\nengine.mu = 0.5\n"
            "restitution.kind = viscoelastic\n")
    with pytest.raises(ConfigError, match=f"bad value for {re.escape(key)}"):
        parse_config_text(text + f"{key} = {value}\n")


def test_simulate_missing_key_exits_1(runner, tmp_path):
    cfg = write(tmp_path, "engine.N = 10\nengine.dt = 0.1\nengine.mu = 0\n")
    result = runner.invoke(main, ["simulate", cfg])
    assert result.exit_code == 1
    assert "restitution.kind" in result.output


def test_simulate_bad_model_value_exits_1(runner, tmp_path):
    """A value the restitution model refuses is a config error, not a
    traceback."""
    cfg = write(tmp_path, BASE_CONFIG.replace("restitution.e0 = 1.0",
                                              "restitution.e0 = 1.5"))
    result = runner.invoke(main, ["simulate", cfg])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "config error: constant restitution requires e0 in (0, 1]" in result.output


def test_simulate_zero_diss_pairs_exits_1(runner, tmp_path):
    """run.diss_pairs = 0 is a one-line config error, not a NaN estimate."""
    cfg = write(tmp_path, BASE_CONFIG.replace("run.diss_pairs = 1000",
                                              "run.diss_pairs = 0"))
    result = runner.invoke(main, ["simulate", cfg,
                                  "--out-prefix", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == "config error: diss_pairs must be at least 1"
    assert not (tmp_path / "x_series.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64])
def test_seed_outside_philox_range_rejected(runner, tmp_path, seed):
    """Seeds of 2^63 and above would share Philox streams: refused by
    EngineConfig, by the config parser's setup and by simulate."""
    message = "seed must lie in [0, 2^63)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        EngineConfig(n=10, dt=0.1, mu=0.1, seed=seed)
    text = BASE_CONFIG.replace("engine.seed = 5", f"engine.seed = {seed}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_setup(parse_config_text(text))
    result = runner.invoke(main, ["simulate", write(tmp_path, text),
                                  "--out-prefix", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"config error: {message}"


def test_uniqueness_probe_derived_seed_out_of_range(runner, tmp_path,
                                                    monkeypatch):
    """A derived seed past 2^63 - 1 is a config error before any run."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    cfg = write(tmp_path, BASE_CONFIG.replace("engine.seed = 5",
                                              f"engine.seed = {2 ** 63 - 1}"))
    result = runner.invoke(main, ["uniqueness-probe", cfg, "--seeds", "2"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "config error: seed must lie in [0, 2^63)" in result.output
    assert runs == []


@pytest.mark.parametrize("line, message", [
    ("init.T0 = 0", "init.T0 must be finite and positive"),
    ("init.T0 = -1", "init.T0 must be finite and positive"),
    ("init.v0 = 0", "init.v0 must be finite and positive"),
    ("init.v0 = -1.5", "init.v0 must be finite and positive"),
    ("init.R = 0", "init.R must be finite and positive"),
    ("init.R = -2", "init.R must be finite and positive"),
    ("init.v0 = 1e-200", "init.v0 must be finite and positive"),
    ("init.v0 = 1e160", "init.v0 must be finite and positive"),
    ("init.R = 1e-170", "init.R must be finite and positive"),
    ("init.R = 1e160", "init.R must be finite and positive"),
    ("init.kind = nope", "init.kind must be one of"),
])
def test_bad_initial_condition_is_config_error(runner, tmp_path, monkeypatch,
                                               line, message):
    """An initial condition with no ensemble behind it exits 1 with one line,
    from simulate and from uniqueness-probe, before any run."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    key = line.split(" = ")[0]
    text = re.sub(f"^{re.escape(key)} = .*$", line, BASE_CONFIG, flags=re.M)
    if line not in text:
        text += line + "\n"
    cfg = write(tmp_path, text)
    result = runner.invoke(main, ["simulate", cfg,
                                  "--out-prefix", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"config error: {message}")
    if key == "init.kind":
        cfg = write(tmp_path, BASE_CONFIG)
        result = runner.invoke(main, ["uniqueness-probe", cfg, "--init",
                                      "maxwellian", "--init", "nope"])
    else:
        result = runner.invoke(main, ["uniqueness-probe", cfg])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"config error: {message}")
    assert runs == []


@pytest.mark.parametrize("kind, line, message", [
    ("bimodal", "init.v0 = 1e154", "init.v0 = 1e+154"),
    ("uniform_ball", "init.R = 1e154", "init.R = 1e+154"),
    ("maxwellian", "init.T0 = 1e306", "init.T0 = 1e+306"),
])
def test_ensemble_energy_overflow_is_config_error(runner, tmp_path,
                                                   monkeypatch, kind, line,
                                                   message):
    """Each scale passes its own check, but N = 400 particles sum to an
    energy that overflows (or, for the Maxwellian, is rescaled to 0): exit 1
    with one line, from simulate and from the commands that run replicas,
    which stop before run_many starts any run."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    text = (BASE_CONFIG
            .replace("restitution.kind = constant\nrestitution.e0 = 1.0",
                     "restitution.kind = power_law\nrestitution.gamma = 0.2")
            .replace("init.kind = maxwellian\ninit.T0 = 0.5",
                     f"init.kind = {kind}\n{line}"))
    cfg = write(tmp_path, text)
    other = "bimodal" if kind == "maxwellian" else "maxwellian"
    calls = [["simulate", cfg, "--out-prefix", str(tmp_path / "x")],
             ["uniqueness-probe", cfg, "--seeds", "2", "--init", other,
              "--init", kind]]
    if kind != "maxwellian":  # sweep-lambda sets T0 from the closure
        calls.append(["sweep-lambda", cfg, "-l", "0.5", "-l", "0.2",
                      "--out", str(tmp_path / "sweep.csv")])
    for args in calls:
        result = runner.invoke(main, args)
        assert result.exit_code == 1, (args, result.output)
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            f"config error: {message} gives N=400 particles the energy")
    assert runs == []
    assert list(tmp_path.glob("x_*")) == []
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_lambda_elastic_law_exits_1(runner, tmp_path, monkeypatch):
    """An elastic law under a bath dissipates nothing, so no lambda has a
    steady temperature to start from: sweep-lambda exits 1 with one
    `config error:` line before run_many starts any run."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep-lambda", write(tmp_path, BASE_CONFIG),
                                  "-l", "0.5", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("config error: no steady temperature")
    assert result.output.count("\n") == 1
    assert runs == [] and not out.exists()


def test_simulate_elastic_reaches_t0(runner, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", cfg,
                                  "--out-prefix", str(out)])
    assert result.exit_code == 0
    report = (tmp_path / "out_report.csv").read_text().splitlines()
    assert report[0].startswith("# gsteady-manifest ")
    header = report[1].split(",")
    row = report[2].split(",")
    temp = float(row[header.index("temperature")])
    assert temp == pytest.approx(0.5, abs=1e-6)
    assert all(cell not in ("nan", "inf") for cell in row)
    series = (tmp_path / "out_series.csv").read_text().splitlines()
    assert series[0] == report[0]
    assert series[1] == "step,t,m1,m3_2,m2,m3,diss_estimate,collision_prob"
    assert (tmp_path / "out_snapshot.bin").exists()


def test_simulate_nonconverged_exits_2(runner, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace("engine.mu = 0.0",
                                              "engine.mu = 0.5")
                .replace("run.window = 10", "run.window = 200"))
    result = runner.invoke(main, ["simulate", cfg, "--out-prefix",
                                  str(tmp_path / "nc")])
    assert result.exit_code == 2


def test_theta_subcommand(runner):
    result = runner.invoke(main, ["theta", "--a", "1.0", "--gamma", "0.2"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "a,gamma,theta_oracle,theta_paper_formula"
    _, _, oracle, paper = lines[1].split(",")
    assert float(oracle) == pytest.approx(1.0649041657330351, rel=1e-12)
    assert float(paper) > 0.0
    bad = runner.invoke(main, ["theta", "--a", "-1.0"])
    assert bad.exit_code == 1


def test_verify_subcommand(runner, tmp_path):
    out = str(tmp_path / "verify.csv")
    result = runner.invoke(main, ["verify", "maps", "--out", out])
    assert result.exit_code == 0
    assert "PASS" in result.output
    assert "FAIL" not in result.output
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[0].startswith("# gsteady-verify maps")
    assert lines[1] == "property,margin,passed"
    # The suites are maps, povzner, dissipation and all; there is no fast one.
    for args in ("verify bogus", "verify fast"):
        unknown = runner.invoke(main, args)
        assert unknown.exit_code == 1
        assert "Invalid value" in unknown.output


def test_povzner_check_subcommand(runner, tmp_path):
    out = str(tmp_path / "pov.csv")
    result = runner.invoke(main, ["povzner-check", "--pairs", "100",
                                  "--model", "viscoelastic", "--out", out])
    assert result.exit_code == 0
    lines = (tmp_path / "pov.csv").read_text().splitlines()
    assert lines[1].startswith("p,model,")
    assert len(lines) == 4  # manifest, header, p=2, p=3


def test_povzner_check_bad_input_exits_1(runner, tmp_path):
    """p < 2 and a pair count below 1 give a message and exit 1, no traceback."""
    out = tmp_path / "pov.csv"
    for args, message in ((["--p", "1.5"], "the clean bound needs p >= 2"),
                          (["--pairs", "0"], "0 is not in the range x>=1")):
        res = runner.invoke(main, ["povzner-check", *args, "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert message in res.output
    assert not out.exists()


def test_sweep_lambda_single(runner, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG
                .replace("restitution.kind = constant",
                         "restitution.kind = power_law\nrestitution.gamma = 0.2")
                .replace("restitution.e0 = 1.0", "")
                .replace("engine.mu = 0.0", "engine.mu = 0.8")
                .replace("run.max_steps = 300", "run.max_steps = 1200")
                .replace("run.window = 10", "run.window = 30"))
    out = str(tmp_path / "sweep.csv")
    result = runner.invoke(main, ["sweep-lambda", cfg, "-l", "1.0",
                                  "--out", out])
    assert result.exit_code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("lambda,temperature,theta_oracle,")
    assert len(lines) == 3
    bad = runner.invoke(main, ["sweep-lambda", cfg, "-l", "1.7", "--out", out])
    assert bad.exit_code == 1


def test_sweep_lambda_rate_fit_line(runner, tmp_path):
    """Two lambdas print the fit of log d_moment against log lambda, whose
    slope is the one through the two rows of the CSV."""
    cfg = write(tmp_path, BASE_CONFIG
                .replace("restitution.kind = constant",
                         "restitution.kind = power_law\nrestitution.gamma = 0.2")
                .replace("restitution.e0 = 1.0", "")
                .replace("run.max_steps = 300", "run.max_steps = 200"))
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep-lambda", cfg, "-l", "1.0", "-l", "0.5",
                                  "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
    assert [row["lambda"] for row in rows] == [1.0, 0.5]
    slope = (math.log(rows[1]["d_moment"] / rows[0]["d_moment"])
             / math.log(0.5))
    fit = re.search(r"^d_moment rate fit: slope=(\S+) se=(\S+)$",
                    result.output, flags=re.M)
    assert fit is not None, result.output
    assert float(fit.group(1)) == pytest.approx(slope, abs=1e-4)
    assert float(fit.group(2)) == 0.0  # two points leave no residual


def test_sweep_lambda_rejects_bad_lambda_before_running(runner, tmp_path,
                                                       monkeypatch):
    """Every lambda is checked before any run, so nothing is run or written."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    cfg = write(tmp_path, BASE_CONFIG)
    out = tmp_path / "sweep.csv"
    bad = runner.invoke(main, ["sweep-lambda", cfg, "-l", "0.5", "-l", "1.7",
                               "--out", str(out)])
    assert bad.exit_code == 1
    assert "lambda 1.7 outside (0, 1]" in bad.output
    assert runs == []
    assert not out.exists()


def test_simulate_outputs_byte_identical(runner, tmp_path):
    """Two runs of one config write the same bytes: the manifest line
    carries the config hash and version, not the wall clock."""
    cfg = write(tmp_path, BASE_CONFIG)
    outputs = []
    for tag in ("a", "b"):
        res = runner.invoke(main, ["simulate", cfg, "--out-prefix",
                                   str(tmp_path / tag)])
        assert res.exit_code == 0
        outputs.append([(tmp_path / f"{tag}_{kind}.csv").read_bytes()
                        for kind in ("series", "report")])
    assert outputs[0] == outputs[1]
    assert b"wall=" not in outputs[0][0]


def test_snapshot_determinism_via_cli(runner, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace("engine.mu = 0.0",
                                              "engine.mu = 0.1"))
    for tag in ("a", "b"):
        res = runner.invoke(main, ["simulate", cfg, "--out-prefix",
                                   str(tmp_path / tag)])
        assert res.exit_code in (0, 2)
    snap_a = (tmp_path / "a_snapshot.bin").read_bytes()
    snap_b = (tmp_path / "b_snapshot.bin").read_bytes()
    assert snap_a == snap_b


def test_uniqueness_probe_seeds_are_distinct(runner, tmp_path, monkeypatch):
    """Replica k of initial condition i runs with seed engine.seed + i * seeds
    + k, so no two runs share a random stream."""
    jobs = []

    def fake_run_many(batch):
        jobs.extend(batch)
        report = SimpleNamespace(converged=True, temperature=0.5,
                                 moments={2.0: 0.75})
        return [(None, report)] * len(batch)

    monkeypatch.setattr("gsteady.cli.run_many", fake_run_many)
    cfg = write(tmp_path, BASE_CONFIG)
    res = runner.invoke(main, ["uniqueness-probe", cfg, "--init", "maxwellian",
                               "--init", "bimodal", "--init", "uniform_ball",
                               "--seeds", "3"])
    assert res.exit_code == 0, res.output
    assert [(cfg.seed, init.kind) for cfg, _, init in jobs] == [
        (5 + i * 3 + k, kind)
        for i, kind in enumerate(("maxwellian", "bimodal", "uniform_ball"))
        for k in range(3)]


def test_uniqueness_probe_needs_two_seeds(runner, tmp_path, monkeypatch):
    """With one seed there is no variance to test against: exit 1, no run."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    cfg = write(tmp_path, BASE_CONFIG)
    for seeds in ("1", "0"):
        res = runner.invoke(main, ["uniqueness-probe", cfg, "--seeds", seeds])
        assert res.exit_code == 1
        assert "at least two seeds" in res.output
    assert runs == []


def test_uniqueness_probe_rejects_repeated_init(runner, tmp_path, monkeypatch):
    """A repeated --init would compare a sample with itself: exit 1, no run."""
    runs = []
    monkeypatch.setattr("gsteady.cli.run_many", runs.append)
    cfg = write(tmp_path, BASE_CONFIG)
    res = runner.invoke(main, ["uniqueness-probe", cfg, "--init", "maxwellian",
                               "--init", "maxwellian"])
    assert res.exit_code == 1
    assert "distinct initial conditions" in res.output
    assert runs == []
