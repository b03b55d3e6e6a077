"""Byte-identity guard: the benchmark workloads' runs and the README sweeps
still write what `tests/golden/` holds (see `regen_golden.py`).

Discrete fields (strings, integers, booleans, nulls, JSON key order, CSV
layout) must match exactly; reals to a relative tolerance of 1e-12, which
allows for the last bits of a different BLAS build and nothing more.
"""

import json
import math

import pytest

from regen_golden import CASES, GOLDEN, produce

RTOL = 1e-12


def _cell(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _parse(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.split("\n")]


def _assert_same(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a real"
        assert (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), \
            f"{where}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: {got!r} does not have {len(want)} entries"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, tmp_path):
    out = produce(case, tmp_path)
    want_dir = GOLDEN / case
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        _assert_same(_parse(out / name), _parse(want_dir / name), f"{case}/{name}")
