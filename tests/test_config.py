import itertools
from pathlib import Path

import pytest

from transmission.config import (
    ConfigError,
    SimConfig,
    parse_config_text,
    serialize_config,
)

MINIMAL = """
[geometry]
n = 16

[run]
mode = spectrum
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.geometry.n == 16
    assert cfg.physics.s == 0.5
    assert cfg.physics.beta0 == 1.0
    assert cfg.time.blow_up_threshold == 1e8
    assert cfg.run.mode == "spectrum"


def test_invalid_s_reports_range():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "\n[physics]\ns = 1.5\n")
    assert any("s in (0, 1)" in v for v in err.value.violations)


def test_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "\n[physics]\nwibble = 3\n")
    assert any("unknown key physics.wibble" in v for v in err.value.violations)


def test_unknown_section_named():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "\n[wobble]\na = 1\n")
    assert any("unknown section [wobble]" in v for v in err.value.violations)


def test_all_violations_reported_not_just_first():
    bad = """
[geometry]
n = 1
y0 = 2.0

[physics]
s = 1.5
delta = 3
"""
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert len(err.value.violations) >= 4


@pytest.mark.parametrize("section,entry", [
    ("bulk_nonlinearity", "terms = nan:2.0"),
    ("bulk_nonlinearity", "terms = 1.0:nan"),
    ("bulk_nonlinearity", "terms = inf:2.0"),
    ("bulk_nonlinearity", "terms = 1.0:-0.5"),
    ("bulk_nonlinearity", "constant = nan"),
    ("interface_nonlinearity", "terms = 1.0:inf"),
    ("interface_nonlinearity", "constant = -inf"),
])
def test_invalid_nonlinearity_rejected(section, entry):
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + f"\n[{section}]\n{entry}\n")
    assert any(v.startswith(section) for v in err.value.violations)


@pytest.mark.parametrize("section,entry", [
    ("time", "horizon = nan"),
    ("time", "dt_max = inf"),
    ("run", "alpha = nan"),
    ("run", "eps = -inf"),
    ("run", "seed = -1"),
    ("run", "spectrum_count = 0"),
    ("run", "snapshot_stride = -2"),
    ("run", "safety_factor = 0"),
    ("pairs", "horizon = 0"),
    ("sweep", "p_values = abc"),
    ("sweep", "cf_values = nan,1.0"),
    ("sweep", "p_values = -1"),
    ("sweep", "p_values ="),
])
def test_invalid_values_rejected(section, entry):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[geometry]\nn = 16\n\n[{section}]\n{entry}\n")
    assert any(v.startswith(section) for v in err.value.violations)


@pytest.mark.parametrize("section,key", [
    ("physics", "c0"), ("physics", "c1"), ("sweep", "c_f"), ("sweep", "c_h"),
])
def test_removed_keys_are_unknown(section, key):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[{section}]\n{key} = 1.0\n")
    assert err.value.violations == [f"unknown key {section}.{key}"]


def test_round_trip_default():
    cfg = SimConfig()
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg


def test_round_trip_modified():
    cfg = parse_config_text("""
[geometry]
n = 32
interface = koch
koch_level = 2
y0 = 0.4
dirichlet_side = none

[physics]
s = 0.25
beta = 2.5
beta0 = 2.5
delta = 0

[bulk_nonlinearity]
terms = 1.0:2.0; -0.5:0.0
constant = 0.125

[sweep]
simulate = true

[run]
mode = sweep
alpha = 3.0
""")
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert cfg.bulk_nonlinearity.pairs() == [(1.0, 2.0), (-0.5, 0.0)]


def test_neumann_requires_positive_beta0():
    with pytest.raises(ConfigError) as err:
        parse_config_text("""
[geometry]
dirichlet_side = none

[physics]
beta = 0.0
beta0 = 0.0
""")
    assert any("beta0 must be positive" in v for v in err.value.violations)


def test_env_override():
    cfg = parse_config_text(MINIMAL, env={"TRANSMISSION_GEOMETRY__N": "24"})
    assert cfg.geometry.n == 24


def test_env_override_is_checked_like_a_file_value():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL, env={"TRANSMISSION_TIME__HORIZON": "nan"})
    assert err.value.violations == [
        "environment override TRANSMISSION_TIME__HORIZON: "
        "time.horizon = 'nan': expected a finite number, got 'nan'"]


def test_env_override_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL, env={"TRANSMISSION_GEOMETRY__NOPE": "1"})


def test_bad_step_ordering_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "\n[time]\ndt0 = 1.0\ndt_max = 0.1\n")
    assert any("dt_min < dt0 <= dt_max" in v for v in err.value.violations)


def test_alpha_validation():
    with pytest.raises(ConfigError):
        parse_config_text("[run]\nalpha = 1.5\n")
    cfg = parse_config_text("[run]\nalpha = 3.0\n")
    assert float(cfg.run.alpha) == 3.0


def test_shipped_configs_round_trip():
    from pathlib import Path

    shipped = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))
    assert shipped, "example configs missing"
    for path in shipped:
        cfg = parse_config_text(path.read_text())
        assert parse_config_text(serialize_config(cfg)) == cfg


def test_sweep_grid_shapes():
    cfg = parse_config_text("""
[sweep]
p_values = 0,1
q_values = 1,2
""")
    grid = cfg.sweep.grid()
    assert len(grid) == 4
    cfg2 = parse_config_text("""
[sweep]
p_values = 0
q_values = 2
cf_values = -1.0,1.0
ch_values = -1.0,1.0
""")
    assert len(cfg2.sweep.grid()) == 4


def test_sweep_grid_is_one_product():
    assert SimConfig().sweep.grid() == list(itertools.product(
        (0.0, 1.0), (1.0, 2.0, 3.0), (1.0,), (1.0,)))
    # one list of coefficients alone spans the grid too
    cfg = parse_config_text("""
[sweep]
p_values = 0
q_values = 2
cf_values = -1,0.25
""")
    assert cfg.sweep.grid() == [(0.0, 2.0, -1.0, 1.0), (0.0, 2.0, 0.25, 1.0)]


def test_readme_config_sample_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sample = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config_text(sample)
    assert cfg.geometry.n == 32
    assert len(cfg.sweep.grid()) == 12
