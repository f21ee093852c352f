"""The argument positions that the benchmark's span wrappers read.

perfbench/spans.py wraps package functions and reads some of their
arguments by position. A parameter that moved would be read as another
argument, or as its default, and no run would fail: these tests pin each
position it reads.
"""

import inspect

import pytest

from diracmono import potentials, propagation

READ_BY_POSITION = [
    (propagation.propagate, {2: "E", 4: "i_from", 5: "i_to", 6: "record", 7: "phase"}),
    (propagation.match_values, {0: "table", 1: "fam_idx", 2: "E"}),
    (propagation.count_bisect, {0: "table", 2: "lo"}),
    (propagation.build_step_table, {4: "x_nodes"}),
    (potentials.PotentialFamily.evaluate, {1: "r"}),
]


@pytest.mark.parametrize("fn, positions", READ_BY_POSITION,
                         ids=[fn.__qualname__ for fn, _ in READ_BY_POSITION])
def test_parameters_the_benchmark_reads_keep_their_positions(fn, positions):
    params = list(inspect.signature(fn).parameters.values())
    for pos, name in positions.items():
        assert params[pos].name == name
        assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
