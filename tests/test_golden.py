"""The command line's JSON outputs, pinned against snapshots in tests/data.

``analyze --json`` on the three bundled configs, ``verify-examples
--json`` and ``continue`` from the bundled resonances, at 16 modes and at
the benchmark's 32: keys, integers, booleans and strings must match
exactly, floats to 1e-12 relative.
"""

import json
import math
from pathlib import Path

import pytest

from equideg import cli
from equideg.problems import config_path

DATA = Path(__file__).parent / "data"


def _assert_same(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _run(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_analyze_json_matches_snapshot(name, capsys):
    code, got = _run(["analyze", str(config_path(name)), "--json"], capsys)
    assert code == 0
    _assert_same(got, json.loads((DATA / f"analyze_{name}.json").read_text()))


def test_verify_examples_json_matches_snapshot(capsys):
    code, got = _run(["verify-examples", "--json"], capsys)
    assert code == 0
    _assert_same(got, json.loads((DATA / "verify_examples.json").read_text()))


# the resonances the benchmark continues, and example 3's lambda0 = 0, which
# fails at its first amplitude
CONTINUED = {"example2": ("example2", 0.0),
             "example1": ("example1", 1.0 - math.sqrt(2.0)),
             "example3": ("example3", (4.0 - math.sqrt(10.0)) ** (1.0 / 3.0)),
             "example3_probe": ("example3", 0.0)}


def _continued(name, modes, tmp_path, capsys):
    config, lam0 = CONTINUED[name]
    code, got = _run(["continue", str(config_path(config)), "--resonance", repr(lam0),
                      "--amplitudes", "4,16,64", "--modes", str(modes),
                      "--out", str(tmp_path / "branch.csv")], capsys)
    assert code == (1 if name == "example3_probe" else 0)
    assert got["csv"] == str(tmp_path / "branch.csv")
    got["csv"] = "branch.csv"
    return got


@pytest.mark.parametrize("name", list(CONTINUED))
def test_continue_json_matches_snapshot(name, tmp_path, capsys):
    got = _continued(name, 16, tmp_path, capsys)
    _assert_same(got, json.loads((DATA / f"continue_{name}.json").read_text()))


# the benchmark's truncation order
@pytest.mark.parametrize("name", ["example2", "example1", "example3"])
def test_continue_json_matches_snapshot_at_32_modes(name, tmp_path, capsys):
    got = _continued(name, 32, tmp_path, capsys)
    _assert_same(got, json.loads((DATA / f"continue_{name}_32.json").read_text()))


def test_snapshot_comparison_catches_a_changed_float():
    want = json.loads((DATA / "analyze_example2.json").read_text())
    got = json.loads((DATA / "analyze_example2.json").read_text())
    got["resonances"][0]["lambda0"] += 1e-9
    with pytest.raises(AssertionError, match="lambda0"):
        _assert_same(got, want)
