"""Config parsing: one mapping per section, and frequency keys that stay
finite in rad/s."""

import pytest

from twinbeam.configio import ConfigError, parse_sections, section_frequency


def test_parse_sections_maps_each_section_to_its_keys():
    text = "; medium\n[atomic]\ndepth = 400\n\n[window]\n# coarse\npoints = 21\nmin_MHz = -60\n"
    assert parse_sections(text) == {
        "atomic": {"depth": "400"},
        "window": {"points": "21", "min_MHz": "-60"},
    }
    assert parse_sections("[sweep]\n") == {"sweep": {}}


@pytest.mark.parametrize(
    "text, err",
    [
        ("[atomic]\ndepth = 1\n[window]\npoints = 3\n[atomic]\n", "line 5: duplicate section [atomic]"),
        ("[window]\npoints = 3\npoints = 4\n", "line 3: duplicate key 'points' in section"),
        ("depth = 1\n", "line 1: assignment before any [section] header"),
    ],
    ids=["section", "key", "no-section"],
)
def test_parse_sections_names_the_line_of_an_error(text, err):
    with pytest.raises(ConfigError) as exc:
        parse_sections(text)
    assert str(exc.value) == err


def test_section_frequency_reads_in_the_unit_of_the_key():
    mapping = {"min_MHz": "-60", "gamma_g_kHz": "1e305"}
    assert section_frequency(mapping, "window", "min_MHz") == -60.0
    # 1e305 kHz is 6.3e308 rad/s; 1e304 kHz is finite, though 1e304 MHz is not
    with pytest.raises(ConfigError) as exc:
        section_frequency(mapping, "atomic", "gamma_g_kHz")
    assert str(exc.value) == (
        "section [atomic], key 'gamma_g_kHz': 1e+305 kHz overflows the float range in rad/s"
    )
    assert section_frequency({"gamma_g_kHz": "1e304"}, "atomic", "gamma_g_kHz") == 1e304
    with pytest.raises(ConfigError, match="1e\\+304 MHz overflows"):
        section_frequency({"Omega_MHz": "1e304"}, "atomic", "Omega_MHz")
