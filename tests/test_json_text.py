"""The one JSON writer, cli._json_text, against json.dumps(indent=2).

The oracle is the writer it replaced: a pass that turns every non-finite
float into None, then json.dumps(indent=2, allow_nan=False). The writer
must give the oracle's text, byte for byte, on any payload of dicts with
str keys, lists, tuples, str, int, bool, None and floats (np.float64
included), and on every report the CLI writes.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qhj3d import cli
from qhj3d.dynamics import Termination
from qhj3d.scenario import parse_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"
SHIPPED = sorted(path.stem for path in SCENARIOS.glob("*.scn"))


def _strict(obj):
    """obj with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def oracle(obj) -> str:
    return json.dumps(_strict(obj), indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, -1.5e300)
EDGE_TEXTS = ("", "é", "ψ ∂ 𝔼", '"quoted"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", " ")

floats = st.floats() | st.sampled_from(EDGE_FLOATS) | st.floats().map(np.float64)
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
           | floats | st.text() | st.sampled_from(EDGE_TEXTS))
payloads = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text() | st.sampled_from(EDGE_TEXTS), children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(obj=payloads)
@example(obj={"empty": [], "none": {}, "tuple": (), "nested": [[], {}, [[]]]})
@example(obj=[*EDGE_FLOATS, *(np.float64(x) for x in EDGE_FLOATS)])
@example(obj={text: text for text in EDGE_TEXTS})
@example(obj=[2**100, -(2**70), True, False, None, 0, -1])
@example(obj=math.nan)
@example(obj=())
def test_writer_matches_oracle(obj):
    assert cli._json_text(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, {1: "one"}, [np.bool_(True)], {"a": [object()]}])
def test_unsupported_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


@pytest.mark.parametrize("name", SHIPPED)
def test_written_reports_equal_oracle_text(name, tmp_path, monkeypatch):
    """The metric report over the scenario's [metric] points, the verify
    report and the trajectory sidecar: each file holds the oracle's text of
    the payload it was written from."""
    written = []
    write = cli._json_text

    def spy(obj):
        written.append((obj, write(obj)))
        return written[-1][1]

    monkeypatch.setattr(cli, "_json_text", spy)
    scenario = parse_scenario((SCENARIOS / f"{name}.scn").read_text())
    outs = [tmp_path / "metric.json", tmp_path / "verify.json", tmp_path / "traj.json"]
    cli.run_metric(scenario, out=str(outs[0]))
    cli.run_verify(scenario, out=str(outs[1]))
    cli.run_trajectory(scenario, out=str(tmp_path / "traj.csv"))
    assert len(written) == 3
    for out, (obj, text) in zip(outs, written):
        assert out.read_text() == text == oracle(obj), out.name


@pytest.mark.parametrize("term", [
    Termination("completed", t=5.0, position=(np.float64(0.1), -0.0, np.float64(2.5))),
    Termination("domain_exit", t=np.float64(1.25), position=(1.0, 2.0, 3.0)),
    Termination("singularity", kind="node", t=0.0, position=None),
], ids=["float64-position", "float-position", "no-position"])
def test_sidecar_termination_is_its_fields(term):
    """The sidecar writes a termination as its dataclass fields: status,
    kind, t and position, a position as a list."""
    position = None if term.position is None else list(term.position)
    want = {"status": term.status, "kind": term.kind, "t": term.t, "position": position}
    assert cli._json_text(dataclasses.asdict(term)) == oracle(want)
