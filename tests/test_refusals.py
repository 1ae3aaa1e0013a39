"""Library calls outside their stated preconditions raise the documented
error, one row per refusal."""

import numpy as np
import pytest

import opdyn as od
from opdyn.errors import PreconditionError, ShapeError, ValidationError

REFUSALS = [
    ("one_agent_matrix", lambda: od.WeightMatrix([[1.0]], 1.0),
     ShapeError, "at least 2 agents"),
    ("string_matrix", lambda: od.WeightMatrix("ab", 1.0),
     ShapeError, "matrix must be an array of numbers"),
    ("ragged_opinions", lambda: od.opinion_vector([[0.1], [0.2, 0.3]]),
     ShapeError, "opinions must be an array of numbers"),
    ("short_text_row", lambda: od.parse_weight_matrix_text("2\n0.5 0.5\n1.0\n"),
     ValidationError, "row 1 has 1 entries, expected 2"),
    ("negative_step", lambda: od.StaticSchedule(od.uniform_complete_matrix(2)).matrix_at(-1),
     PreconditionError, "step index must be >= 0"),
    ("generator_one_agent", lambda: od.random_strongly_connected_matrix(1, od.SplitMix64(0), 0.5),
     PreconditionError, "at least 2 agents"),
    ("generator_p_above_one", lambda: od.random_strongly_connected_matrix(4, od.SplitMix64(0), 1.5),
     PreconditionError, "edge_probability"),
    ("generator_p_below_zero", lambda: od.random_strongly_connected_matrix(4, od.SplitMix64(0), -0.1),
     PreconditionError, "edge_probability"),
    ("constant_no_agent", lambda: od.Constant(()),
     ValidationError, "at least one agent"),
    ("custom_not_elementwise", lambda: od.Custom(lambda x: x.sum()),
     ValidationError, "elementwise"),
    ("custom_non_finite", lambda: od.Custom(lambda x: np.where(x > 0.5, np.nan, 0.5)),
     ValidationError, "non-finite"),
    ("zero_target_epsilon", lambda: od.StopRule(target=0.0, target_epsilon=0.0),
     ValidationError, "target_epsilon must be positive"),
    ("bool_consensus_epsilon", lambda: od.StopRule(consensus_epsilon=True),
     ValidationError, "consensus_epsilon must be a number"),
    ("bool_target", lambda: od.StopRule(target=False, target_epsilon=0.5),
     ValidationError, "target must be a number"),
    ("bool_target_epsilon", lambda: od.StopRule(target=0.0, target_epsilon=True),
     ValidationError, "target_epsilon must be a number"),
    ("string_consensus_epsilon", lambda: od.StopRule(consensus_epsilon="1e-9"),
     ValidationError, "consensus_epsilon must be a number"),
    ("huge_consensus_epsilon", lambda: od.StopRule(consensus_epsilon=10**400),
     ValidationError, "too large for a double"),
    ("one_state_row", lambda: od.TrajectoryRecord.from_states(np.zeros(3)),
     ShapeError, r"\(steps\+1, n\)"),
    ("degenerate_interval", lambda: od.LimitClassification(
        od.Outcome.CONSENSUS_IN_OPEN_INTERVAL, "basis", interval=(0.5, 0.5)),
     PreconditionError, "degenerate interval"),
    ("randrange_empty", lambda: od.SplitMix64(0).randrange(0),
     ValueError, "empty range"),
]


@pytest.mark.parametrize("call,error,match", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call,match", [
    (lambda: od.parse_weight_matrix_text("x" * 600_000 + "\n0.5 0.5\n0.5 0.5\n"),
     "first line must be the size"),
    (lambda: od.StopRule(max_steps="x" * 600_000), "max_steps must be an integer"),
], ids=["matrix_size_line", "max_steps"])
def test_a_huge_value_is_echoed_briefly(call, match):
    with pytest.raises(ValidationError, match=match) as caught:
        call()
    assert len(str(caught.value)) < 300


def test_a_stop_rule_keeps_an_int_and_floats():
    rule = od.StopRule(max_steps=np.int64(5), consensus_epsilon=np.float32(0.5),
                       target=np.float64(-1.0), target_epsilon=1)
    assert [type(v) for v in (rule.max_steps, rule.consensus_epsilon, rule.target,
                              rule.target_epsilon)] == [int, float, float, float]
    assert rule == od.StopRule(max_steps=5, consensus_epsilon=0.5, target=-1.0, target_epsilon=1.0)
