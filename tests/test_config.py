import pytest

from geodlab.config import (DEFAULT_SEED, EXPERIMENTS, ConfigError,
                            ExperimentConfig, build_config, parse_kv_text)


def test_defaults_fill_in():
    cfg = ExperimentConfig("thin")
    assert cfg.seed == DEFAULT_SEED
    assert cfg.params["delta_grid"] == (0.05, 0.1, 0.2)
    assert cfg.params["tau"] == 1.5
    assert cfg.params["steps"] == 5


def test_every_experiment_validates_with_defaults():
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(name)
        assert set(cfg.params) == set(EXPERIMENTS[name])


def test_unknown_experiment_and_key():
    with pytest.raises(ConfigError, match="unknown experiment 'frobnicate'"):
        ExperimentConfig("frobnicate")
    with pytest.raises(ConfigError, match="unknown key 'taus'"):
        ExperimentConfig("thin", params={"taus": "1.0"})


def test_int_rejects_fractional():
    with pytest.raises(ConfigError, match="thin.steps"):
        ExperimentConfig("thin", params={"steps": 4.5})
    with pytest.raises(ConfigError, match="thin.steps"):
        ExperimentConfig("thin", params={"steps": "4.5"})
    cfg = ExperimentConfig("thin", params={"steps": 4.0})
    assert cfg.params["steps"] == 4 and isinstance(cfg.params["steps"], int)


def test_grid_parsing_and_order():
    cfg = ExperimentConfig("count", params={"r_grid": "2, 3 4.5"})
    assert cfg.params["r_grid"] == (2.0, 3.0, 4.5)
    with pytest.raises(ConfigError, match="strictly increasing"):
        ExperimentConfig("count", params={"r_grid": "3, 3"})
    with pytest.raises(ConfigError, match="grid is empty"):
        ExperimentConfig("count", params={"r_grid": ""})
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig("count", params={"r_grid": "1, two"})
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig("count", params={"r_grid": "1, inf"})


def test_prob_open_interval():
    for bad in ("0", "1", "-0.2", "1.5"):
        with pytest.raises(ConfigError, match=r"must lie in \(0, 1\)"):
            ExperimentConfig("walk", params={"delta": bad})
    assert ExperimentConfig("walk", params={"delta": "0.1"}).params["delta"] == 0.1


def test_prob_grid_entries_lie_in_the_open_interval():
    for bad in ("0.5, 1", "0.5, 2", "0, 0.5"):
        with pytest.raises(ConfigError, match="thin.delta_grid: "):
            ExperimentConfig("thin", params={"delta_grid": bad})
    with pytest.raises(ConfigError, match=r"entries must lie in \(0, 1\)"):
        ExperimentConfig("thin", params={"delta_grid": "0.5, 1"})
    cfg = ExperimentConfig("thin", params={"delta_grid": "0.01, 0.999"})
    assert cfg.params["delta_grid"] == (0.01, 0.999)


def test_minimum_enforced():
    with pytest.raises(ConfigError, match="must be at least 1000"):
        ExperimentConfig("mix", params={"samples": 500})
    with pytest.raises(ConfigError, match="must be at least 0.5"):
        ExperimentConfig("walk", params={"tau": 0.1})
    # veech's from words, as its maximum
    from geodlab.words import MIN_AXIS_STEP
    with pytest.raises(ConfigError, match=f"must be at least {MIN_AXIS_STEP}"):
        ExperimentConfig("veech", params={"step": MIN_AXIS_STEP * 0.99})
    # a grid's minimum bounds each entry
    from geodlab.flow import MIN_CENSUS_TIME
    from geodlab.lattice import MIN_SYSTOLE
    for experiment, key, bottom in (("close", "r_grid", MIN_CENSUS_TIME),
                                    ("lattice", "systole_grid", MIN_SYSTOLE)):
        grid = f"{bottom!r}, 1"
        assert ExperimentConfig(experiment, params={key: grid}).params[key][0] == bottom
        with pytest.raises(ConfigError, match=f"{experiment}.{key}: entries "
                                              f"must be at least {bottom}"):
            ExperimentConfig(experiment, params={key: f"{bottom * 0.99!r}, 1"})


def test_maximum_enforced_from_the_runners_modules():
    from geodlab.flow import MAX_BOX_FRACTION, MAX_CENSUS_TIME, MAX_MIX_TIME
    from geodlab.lattice import MAX_ORBIT_RADIUS, MAX_SPREAD_RADIUS
    from geodlab.products import MAX_CONTRACTION_RADIUS
    from geodlab.torus import MAX_SYSTOLE
    from geodlab.words import MAX_AXIS_STEP, MAX_ENUM_LENGTH
    for experiment, key, top in (("veech", "max_length", MAX_ENUM_LENGTH),
                                 ("veech", "step", MAX_AXIS_STEP),
                                 ("assemble", "r", MAX_ENUM_LENGTH),
                                 ("lattice", "spread_radius", MAX_SPREAD_RADIUS),
                                 ("mix", "time", MAX_MIX_TIME),
                                 ("mix", "fraction", MAX_BOX_FRACTION),
                                 ("close", "fraction", MAX_BOX_FRACTION)):
        assert ExperimentConfig(experiment, params={key: top}).params[key] == top
        with pytest.raises(ConfigError, match=f"{experiment}.{key}: must be at most"):
            ExperimentConfig(experiment, params={key: top * 1.01})
    # a grid's maximum bounds each entry
    for experiment, key, top in (("count", "r_grid", MAX_ENUM_LENGTH),
                                 ("lattice", "tau_grid", MAX_ORBIT_RADIUS),
                                 ("close", "r_grid", MAX_CENSUS_TIME),
                                 ("bias-verify", "tau_grid",
                                  MAX_CONTRACTION_RADIUS),
                                 ("lattice", "systole_grid", MAX_SYSTOLE)):
        grid = f"1, {top}"
        assert ExperimentConfig(experiment, params={key: grid}).params[key][-1] == top
        with pytest.raises(ConfigError, match="entries must be at most"):
            ExperimentConfig(experiment, params={key: f"1, {top + 0.5}"})


def test_a_slope_fit_gets_two_points_at_config_time():
    # veech fits its slope over the classes up to max_length, which must
    # hold two lengths: traces 3 and 4; bias-verify fits over its radii
    from geodlab.words import MIN_FIT_LENGTH, teich_length_from_trace
    assert MIN_FIT_LENGTH == teich_length_from_trace(4)
    cfg = ExperimentConfig("veech", params={"max_length": MIN_FIT_LENGTH})
    assert cfg.params["max_length"] == MIN_FIT_LENGTH
    for bad in (1.0, 1.3, MIN_FIT_LENGTH * (1 - 1e-15)):
        with pytest.raises(ConfigError,
                           match=f"veech.max_length: must be at least {MIN_FIT_LENGTH}"):
            ExperimentConfig("veech", params={"max_length": bad})
    with pytest.raises(ConfigError, match="bias-verify.tau_grid: grid needs "
                                          "at least 2 entries"):
        ExperimentConfig("bias-verify", params={"tau_grid": "3"})
    assert ExperimentConfig("bias-verify",
                            params={"tau_grid": "3, 4"}).params["tau_grid"] == (3.0, 4.0)
    # lattice divides its thinnest cell by its thickest
    with pytest.raises(ConfigError, match="lattice.systole_grid: grid needs "
                                          "at least 2 entries"):
        ExperimentConfig("lattice", params={"systole_grid": "0.1"})
    # other grids may hold one entry
    assert ExperimentConfig("count", params={"r_grid": "3"}).params["r_grid"] == (3.0,)


def test_grid_entries_must_be_positive():
    for grid in ("0, 1", "-1, 2"):
        with pytest.raises(ConfigError, match="lattice.systole_grid: grid entries must be positive"):
            ExperimentConfig("lattice", params={"systole_grid": grid})


def test_seed_and_workers_ranges():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig("count", seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig("count", seed=2 ** 64)
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        build_config("count", overrides={"workers": "1"})
    assert ExperimentConfig("count", seed=0).seed == 0


def test_parse_kv_text():
    text = "a = 1\n\n# comment\nb= two # trailing\n  c =3\n"
    assert parse_kv_text(text) == {"a": "1", "b": "two", "c": "3"}


def test_parse_kv_errors_name_line():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_kv_text("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'a'"):
        parse_kv_text("a = 1\nb = 2\na = 3\n")
    with pytest.raises(ConfigError, match="line 1: empty key"):
        parse_kv_text("= 4\n")


def test_build_config_override_precedence():
    text = "tau = 1.0\nsteps = 3\nseed = 7\n"
    cfg = build_config("thin", file_text=text,
                       overrides={"tau": "2.0", "steps": None})
    assert cfg.params["tau"] == 2.0  # override wins
    assert cfg.params["steps"] == 3  # None override is ignored
    assert cfg.seed == 7
    cfg2 = build_config("thin", file_text=text, overrides={"seed": "9"})
    assert cfg2.seed == 9
    with pytest.raises(ConfigError, match="seed must be an integer"):
        build_config("thin", overrides={"seed": "abc"})
