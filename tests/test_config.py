import pytest

from intentsim.config import SimConfig, config_digest, load_config, parse_config_text
from intentsim.errors import ConfigError


def test_defaults_validate():
    cfg = SimConfig()
    assert cfg.grid_size == 200
    assert cfg.total_steps == 3600
    assert cfg.n_riders == 100
    assert cfg.max_move_per_step == 30
    assert cfg.order_cap == 3
    assert len(cfg.peak_ticks_per_day) == 3


@pytest.mark.parametrize(
    "field,value",
    [
        ("grid_size", 0),
        ("grid_size", -5),
        ("grid_size", 2**31 + 1),  # the offer key would overflow int64
        ("total_steps", 100),  # not a multiple of steps_per_day
        ("steps_per_day", 0),
        ("n_riders", -1),
        ("max_move_per_step", 0),
        ("order_cap", 0),
        ("base_order_rate", -0.1),
        ("wage_rate", -1.0),
    ],
)
def test_invalid_field_is_named(field, value):
    with pytest.raises(ConfigError) as err:
        SimConfig(**{field: value})
    assert err.value.field == field


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_riders", 4.0),
        ("grid_size", True),
        ("seed", "42"),
        ("base_order_rate", True),
        ("wage_rate", "1.0"),
        ("peak_ticks_per_day", (40, 60.0)),
        ("peak_ticks_per_day", (False,)),
        ("payment_range", (5.0, True)),
    ],
)
def test_mistyped_field_is_named(field, value):
    with pytest.raises(ConfigError) as err:
        SimConfig(**{field: value})
    assert err.value.field == field


def test_float_fields_take_ints():
    cfg = SimConfig(base_order_rate=2, payment_range=(5, 15))
    assert cfg.base_order_rate == 2 and cfg.payment_range == (5, 15)


def test_peak_tick_bounds_checked():
    with pytest.raises(ConfigError) as err:
        SimConfig(peak_ticks_per_day=(40, 130))
    assert err.value.field == "peak_ticks_per_day"


def test_payment_range_ordering():
    with pytest.raises(ConfigError) as err:
        SimConfig(payment_range=(10.0, 5.0))
    assert err.value.field == "payment_range"


def test_order_cap_override_to_five():
    cfg = SimConfig(order_cap=5)
    assert cfg.order_cap == 5


def test_config_file_round_trip(tmp_path):
    cfg = SimConfig(grid_size=64, total_steps=240, n_riders=7, seed=99,
                    peak_ticks_per_day=(10, 50), payment_range=(1.0, 2.5))
    path = tmp_path / "sim.cfg"
    path.write_text(
        "grid_size = 64\ntotal_steps = 240\nn_riders = 7\nseed = 99\n"
        "peak_ticks_per_day = 10, 50\npayment_range = 1.0, 2.5\n"
    )
    assert load_config(path) == cfg


def test_parse_config_text_comments_and_lists():
    cfg = parse_config_text(
        """
        # a comment
        grid_size = 32
        total_steps = 120
        steps_per_day = 120
        peak_ticks_per_day = 5, 20, 40
        payment_range = 2, 4
        """
    )
    assert cfg.grid_size == 32
    assert cfg.peak_ticks_per_day == (5, 20, 40)
    assert cfg.payment_range == (2.0, 4.0)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("mystery_knob = 3")
    assert err.value.field == "mystery_knob"


def test_digest_stable_and_sensitive():
    a = SimConfig()
    b = SimConfig()
    c = SimConfig(seed=43)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
