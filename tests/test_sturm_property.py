"""Property test of the closed-form Sturm sweep: on random constant runs
around a random support, the sweep's count equals the row-by-row
recurrence (the oracle ``sturm_count_loop``) at shifts inside, outside and
exactly at the edges of both runs' bands, with every run stepped in closed
form and with ``count_below``'s default.  Derandomized, so the run is
reproducible."""

from unittest import mock

import numpy as np
import pytest

from specdiff import schrodinger1d
from specdiff.schrodinger1d import _SturmSweep, count_below

from test_schrodinger1d import sturm_count_loop

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, max_examples=200,
                     deadline=None)
@hypothesis.given(
    alpha=st.floats(-5.0, 5.0), beta=st.floats(0.1, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    lead=st.integers(0, 60), trail=st.integers(0, 60),
    support=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.2, 3.0)),
                     max_size=12),
    where=st.floats(-3.0, 3.0), pick=st.integers(0, 5))
def test_count_matches_row_recurrence(alpha, beta, sign, lead, trail,
                                      support, where, pick):
    # leading run (alpha, sign * beta); trailing run (alpha + 1/2, -beta/2)
    diag = np.array([alpha] * (lead + 1) + [d for d, _ in support]
                    + [alpha + 0.5] * (trail + 1))
    off = np.array([sign * beta] * lead + [e for _, e in support] + [beta]
                   + [-0.5 * beta] * trail)
    shift = (alpha + where * beta,
             alpha - 2.0 * beta, alpha + 2.0 * beta,        # lead band edges
             alpha + 0.5 - beta, alpha + 0.5 + beta,        # trail band edges
             diag[lead + 1])                                # a zero pivot
    want, last = sturm_count_loop(diag, off, shift[pick])
    if last != 0.0:    # otherwise the shift is an eigenvalue to the last bit
        # A function-scoped monkeypatch fixture trips Hypothesis' health
        # check, so the patch lives in the test body.
        with mock.patch.object(schrodinger1d, "_MIN_RUN", 1):
            every_run = _SturmSweep(diag, off)
        assert every_run.count([shift[pick]])[0] == want
        assert count_below(diag, off, shift[pick]) == want
