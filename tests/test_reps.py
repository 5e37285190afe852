import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equideg import (SO2, RepDecomposition, consistency_check, gcd_closure,
                     isotropy_gcd_set, kernel_rep_at_infinity)


def gcd_closure_oracle(freqs):
    """All gcds of nonempty subsets, by brute enumeration."""
    freqs = sorted(freqs)
    out = set()
    for r in range(1, len(freqs) + 1):
        for sub in itertools.combinations(freqs, r):
            out.add(math.gcd(*sub))
    return frozenset(out)


def test_rep_validation():
    r = RepDecomposition([(2, 0), (1, 3)])
    assert r.parts == ((2, 0), (1, 3))
    with pytest.raises(ValueError):
        RepDecomposition([(0, 1)])
    with pytest.raises(ValueError):
        RepDecomposition([(1, -1)])
    with pytest.raises(ValueError):
        RepDecomposition([(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        RepDecomposition([(1, 3), (1, 2)])
    with pytest.raises(AttributeError):
        r.parts = ()


def test_dimension_counts_real_dimensions():
    # trivial summands are 1-dimensional, rotating ones 2-dimensional
    assert RepDecomposition([(3, 0)]).dimension == 3
    assert RepDecomposition([(2, 5)]).dimension == 4
    assert RepDecomposition([(1, 0), (2, 1), (1, 4)]).dimension == 7
    assert RepDecomposition([]).dimension == 0


def test_frequencies_and_multiplicity():
    r = RepDecomposition([(2, 0), (1, 2), (3, 6)])
    assert r.frequencies == frozenset({0, 2, 6})
    assert r.nonzero_frequencies == frozenset({2, 6})
    assert r.multiplicity(6) == 3
    assert r.multiplicity(1) == 0


def test_json_round_trip():
    r = RepDecomposition([(1, 0), (4, 7)])
    assert r.to_json() == [[1, 0], [4, 7]]


def test_gcd_closure_examples():
    assert gcd_closure({2, 6}) == {2, 6}
    assert gcd_closure({4, 6}) == {2, 4, 6}
    assert gcd_closure({6, 10, 15}) == {1, 2, 3, 5, 6, 10, 15}
    assert gcd_closure(set()) == frozenset()
    with pytest.raises(ValueError):
        gcd_closure({0, 2})


def test_gcd_closure_matches_subset_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        size = int(rng.integers(1, 6))
        freqs = set(int(v) for v in rng.integers(1, 40, size=size))
        assert gcd_closure(freqs) == gcd_closure_oracle(freqs)


def test_kernel_rep_at_infinity_diagonal():
    r = kernel_rep_at_infinity(np.diag([0.0, 1.0, 4.0, 4.0, 7.0]))
    assert r.parts == ((1, 0), (1, 1), (2, 2))
    assert kernel_rep_at_infinity(np.diag([-3.0, 2.5])).parts == ()


def test_reps_imports_no_other_equideg_module():
    # load the package object without running its __init__, then reps alone
    code = ("import importlib.util, json, sys\n"
            "spec = importlib.util.find_spec('equideg')\n"
            "sys.modules['equideg'] = importlib.util.module_from_spec(spec)\n"
            "import equideg.reps\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'equideg')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert json.loads(out) == ["equideg", "equideg.reps"]


def test_isotropy_labels():
    assert isotropy_gcd_set(RepDecomposition([(1, 0)])) == {SO2}
    assert isotropy_gcd_set(RepDecomposition([(2, 4), (1, 6)])) == {2, 4, 6}
    assert isotropy_gcd_set(RepDecomposition([(1, 0), (1, 3)])) == {3, SO2}


def test_so2_label_is_not_an_integer():
    # the trivial-summand label must never collide with a Z_k label
    labels = isotropy_gcd_set(RepDecomposition([(1, 0)]))
    assert all(not isinstance(x, int) for x in labels)
    assert SO2 not in {1, 2, 3}


def test_consistency_verdicts():
    def is_consistent(v, w):
        return consistency_check(v, w)["consistent"]

    assert not is_consistent(RepDecomposition([(1, 1)]), RepDecomposition([(1, 2)]))
    r = RepDecomposition([(2, 3), (1, 5)])
    assert is_consistent(r, r)
    assert not is_consistent(RepDecomposition([(1, 0)]), RepDecomposition([(1, 2)]))
    # shared achievable gcd, not shared generator: {4,6}->2 and {2}
    assert is_consistent(RepDecomposition([(1, 4), (1, 6)]), RepDecomposition([(1, 2)]))
    assert not is_consistent(RepDecomposition([]), r)
