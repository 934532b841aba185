"""SUSS extension term for the CSA00 model: compressed slow start.

SUSS (paper Algorithm 1) multiplies ``cwnd`` by ``G = 2**(k+1)`` instead
of doubling whenever ``k`` extra doublings are provably safe, which in
the paper's design comes down to Condition 1: the previous round's ACK
train must fit within ``minRTT * fraction / 2**k``.  On an uncongested
path the ACK-train duration *is* the data train's serialisation time at
the bottleneck, ``cwnd * wire_segment / btl_bw`` — so the analytical
tier evaluates Condition 1 in closed form and reuses
:func:`repro.core.growth.growth_factor` (the exact Algorithm 1
implementation the packet tier's SUSS module uses) to pick ``G``.  The
first decision uses the initial window's train, so acceleration can
begin with round 2, matching the packet tier's first ``suss.decision``.

Condition 2 guards against queueing-delay growth; a single analytical
flow on the mean path sees no standing queue while its window is below
the BDP, which is precisely the regime where Condition 1 admits
acceleration — so Condition 2 holds throughout (``r = 0`` semantics).

Two things change relative to :class:`~repro.flowsim.csa00.Csa00Model`,
both via hooks — every CSA00 term (handshake, loss episode, steady
state) is inherited unchanged:

* the growth schedule (``G`` instead of ``gamma`` while Condition 1
  holds), which is what removes whole rounds from long transfers; and
* the final round's tail for flows that end inside an accelerated
  round: the red (paced) part of the round leaves on the pacing plan's
  schedule (Section 4: guard Eq. 12, rate Eq. 11) instead of waiting
  for the next ACK-clocked round, which is how SUSS speeds up even
  flows whose *round count* acceleration cannot shrink.

``rounds_saved`` in the resulting FlowEstimate reports how many
slow-start rounds the accelerated ladder compressed away relative to
traditional doubling — the quantity behind the paper's Fig. 11/12 FCT
improvements.
"""

from __future__ import annotations

from repro.core.growth import DEFAULT_K_MAX, growth_factor
from repro.core.units import Seconds
from repro.flowsim.csa00 import Csa00Model, _Ladder
from repro.flowsim.model import PathParams, register_model


class SussCsa00Model(Csa00Model):
    """CSA00 with SUSS's compressed slow-start growth schedule."""

    name = "csa00+suss"

    def __init__(self, k_max: int = DEFAULT_K_MAX) -> None:
        if k_max < 0:
            raise ValueError("k_max must be non-negative")
        super().__init__()
        self.k_max = k_max

    def growth_factor(self, cwnd: float, round_index: int,
                      path: PathParams) -> float:
        # Analytical ACK-train duration of the round just sent: cwnd
        # segments serialised at the bottleneck.
        dt_at = cwnd * path.wire_segment / path.btl_bw
        g = growth_factor(dt_at=dt_at, mo_rtt=path.rtt, min_rtt=path.rtt,
                          r=0, k_max=self.k_max)
        if g <= 2:
            return path.gamma
        # Delayed ACKs slow the clocked part of every scheme equally:
        # scale SUSS's G by the same per-round factor gamma/2 that turns
        # traditional doubling into 1.5x growth.
        return g * (path.gamma / 2.0)

    def final_round_time(self, remaining: float, ladder: _Ladder,
                         path: PathParams) -> Seconds:
        rtt = path.effective_rtt
        ack_clocked = super().final_round_time(remaining, ladder, path)
        if ladder.rounds <= 1:
            return ack_clocked
        w_prev = ladder.prev_window
        w_final = ladder.final_window
        blue = path.gamma * w_prev
        if w_final <= blue + 1e-9 or remaining <= blue:
            # Final round not accelerated, or the clocked (blue) part
            # alone carries the tail: plain CSA00 timing.
            return ack_clocked
        # The tail rides the pacing period (paper Fig. 5): the red data
        # starts after the previous round's ACK train plus the guard
        # interval (Eq. 12) and is paced at cwnd_target / minRTT
        # (Eq. 11); the last byte then pays its flight plus ACK.  The
        # paced schedule can promise more than the bottleneck delivers,
        # so the ACK-clocked drain bound stays a floor.
        dt_bat = w_prev * path.wire_segment / path.btl_bw
        guard = max(blue / (2.0 * w_final) * path.rtt - dt_bat / 2.0, 0.0)
        red = remaining - blue
        pace_time = red / w_final * path.rtt
        paced = min(dt_bat + guard + pace_time + rtt, rtt + rtt)
        return max(paced, ack_clocked)


register_model("csa00+suss", SussCsa00Model)
