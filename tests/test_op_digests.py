"""The op-level same-behaviour check at smoke sizes: two passes over the
first oracle-referee ops give equal lines, and every op passes its judge.

tests/op_digests.py runs the ops; run as a script, it compares them
between two trees.
"""

from __future__ import annotations

import op_digests


def test_oracle_referee_ops_repeat_and_pass():
    first = op_digests.lines("oracle-referee", 20, seed=1, smoke=True)
    assert op_digests.lines("oracle-referee", 20, seed=1, smoke=True) == first
    assert [line.split(" ")[0] for line in first] == [str(i) for i in range(20)]
    assert all(line.split(" ", 2)[1] == "[]" for line in first), first
    # the cycle's every op kind is covered: np2, np3, ccp2, ccp3, logit3, gamma
    kinds = {line.split(" ", 3)[2] for line in first}
    assert kinds == {"np2", "np3", "ccp2", "ccp3", "logit3", "gamma"}
