"""Mutated scenario files: every input builds or is rejected with exit 2.

Each example takes the text of a shipped scenario and replaces one token
(a section or key name, a number, a selector, a catalog entry) with an
edge value. parse_scenario must either return a Scenario or raise
ScenarioError, and a parsed Scenario builds or fails numerically (a
QhjError such as Overflow, or a float overflow at extreme but finite
values). The CLI must exit 0, 2, 3 or 4 and write
only strict JSON, and no input may raise a numpy RuntimeWarning (an
overflow or invalid value) on the way. The trajectory command is left out: a mutated but
finite t_end can legitimately integrate for a long time.
"""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qhj3d import QhjError, ScenarioError
from qhj3d.cli import main
from qhj3d.scenario import build_action, parse_scenario

from conftest import strict_json

SCENARIOS = Path(__file__).parent.parent / "scenarios"
TEXTS = {path.name: path.read_text() for path in sorted(SCENARIOS.iterdir())}

# A token: anything between the separators of the scenario format.
TOKEN = re.compile(r"[^\s,=*;:()\[\]#]+")

EDGE_VALUES = ("", "0", "1", "-1", "2.5", "-0.5", "16", "1e300", "-1e300", "1e-300",
               "nan", "inf", "-inf", "x", "u3", "free", "box", "harmonic")

METRIC_POINTS = "0.5,0.3,-0.2; 1.8,1.8,1.8; 5,0,0"


@st.composite
def mutated_scenario(draw):
    text = TEXTS[draw(st.sampled_from(sorted(TEXTS)))]
    body = text.split("\n")
    lineno = draw(st.sampled_from([i for i, line in enumerate(body)
                                   if TOKEN.search(line.split("#", 1)[0])]))
    line = body[lineno].split("#", 1)[0]
    start, end = draw(st.sampled_from([m.span() for m in TOKEN.finditer(line)]))
    body[lineno] = line[:start] + draw(st.sampled_from(EDGE_VALUES)) + line[end:]
    return "\n".join(body)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_scenario())
def test_mutated_scenario_builds_or_exits_two(text, tmp_path_factory):
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        scenario = None
    if scenario is not None:
        try:
            build_action(scenario)
        except ScenarioError:
            raise
        except (QhjError, ArithmeticError):
            pass  # a numerical failure (Overflow, or float overflow at extreme scales): exit 3

    out = tmp_path_factory.mktemp("mutated")
    path = out / "scenario.scn"
    path.write_text(text)
    codes = (main(["verify", str(path), "--grid", "2,2,2", "--out", str(out / "verify.json")]),
             main(["metric", str(path), "--at", METRIC_POINTS, "--out", str(out / "metric.json")]))
    assert all(code in (0, 2, 3, 4) for code in codes)
    if scenario is None:
        assert codes == (2, 2)
    for written in out.glob("*.json"):
        strict_json(written.read_text())
