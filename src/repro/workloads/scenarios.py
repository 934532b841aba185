"""Scenario catalogue: the paper's testbeds as simulation path models.

**Internet-scale testbed** (Section 6.1): seven servers — one stand-alone
NZ campus server plus Google (US-East, Tokyo, Singapore) and Oracle
(US-West, Sydney, London) data centers — crossed with four last-hop link
types (5G, wired, WiFi, 4G).  Clients are in Sweden for 5G/wired and in
New Zealand for WiFi/4G (Fig. 18 caption).  That yields the 28 testing
scenarios of Figs. 17-18.

Path parameters are plausible public-internet values for the named city
pairs; per Appendix B, wireless last hops carry bandwidth variation and
jitter (4G > WiFi > 5G > wired), and Oracle paths are modelled with
shallower effective buffers than Google paths, which is what makes loss
"noticeable in testing scenarios using Oracle servers and high-speed
links" (Section 6.3).

**Local testbed**: five client-server pairs over two routers in a dumbbell
with a 50 Mbps netem-shaped bottleneck (Figs. 2, 15, 16, Table 1).

The catalogue is data: importing this module loads neither the engine nor
the network substrate, so specs can be built, hashed and looked up in a
result store without them.  ``build()`` / ``bandwidth_profile()`` import
``repro.net`` and ``repro.sim`` when a scenario is instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.units import MBPS, Bytes, BytesPerSec, Seconds, bdp_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.netem import BandwidthProfile
    from repro.net.topology import Dumbbell
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry

#: Client location per last-hop link type (paper Fig. 18).
CLIENT_LOCATION = {"5g": "sweden", "wired": "sweden",
                   "wifi": "nz", "4g": "nz"}

#: Last-hop link models: (mean rate B/s, bandwidth-variation span,
#: jitter std seconds, buffer in BDP multiples).
LINK_TYPES: Dict[str, Tuple[float, float, float, float]] = {
    "wired": (100 * MBPS, 0.00, 0.0003, 1.0),
    "5g": (200 * MBPS, 0.25, 0.002, 1.5),
    "wifi": (40 * MBPS, 0.40, 0.005, 2.0),
    "4g": (30 * MBPS, 0.50, 0.008, 3.0),
}

#: Servers: base two-way propagation RTT (seconds) to each client location,
#: and a buffer-depth scale factor (Oracle paths run shallower).
SERVERS: Dict[str, Dict[str, float]] = {
    "nz-campus": {"sweden": 0.280, "nz": 0.015, "buffer_scale": 1.0},
    "google-us-east": {"sweden": 0.110, "nz": 0.150, "buffer_scale": 1.5},
    "google-tokyo": {"sweden": 0.260, "nz": 0.170, "buffer_scale": 1.5},
    "google-singapore": {"sweden": 0.180, "nz": 0.140, "buffer_scale": 1.5},
    "oracle-us-west": {"sweden": 0.160, "nz": 0.130, "buffer_scale": 0.6},
    "oracle-sydney": {"sweden": 0.300, "nz": 0.035, "buffer_scale": 0.6},
    "oracle-london": {"sweden": 0.030, "nz": 0.280, "buffer_scale": 0.6},
}

#: Azure servers: the paper also deployed on Microsoft Azure but omitted
#: those results for space ("we did observe similar results with
#: Microsoft Azure", Section 6.1).  Provided here as extra scenarios —
#: not part of the 28-scenario Fig. 17/18 matrix.
AZURE_SERVERS: Dict[str, Dict[str, float]] = {
    "azure-dublin": {"sweden": 0.045, "nz": 0.290, "buffer_scale": 1.2},
    "azure-virginia": {"sweden": 0.115, "nz": 0.155, "buffer_scale": 1.2},
}

SERVER_NAMES: List[str] = list(SERVERS)
LINK_NAMES: List[str] = list(LINK_TYPES)


@dataclass(frozen=True)
class PathScenario:
    """One internet-scale download path (server x last-hop link type)."""

    name: str
    server: str
    link_type: str
    client_location: str
    rtt: Seconds          # base two-way propagation delay
    btl_bw: BytesPerSec   # mean bottleneck bandwidth
    bw_variation: float   # RandomWalkBandwidth span; 0 disables variation
    jitter: Seconds       # per-packet jitter std
    loss_rate: float      # random (non-congestion) loss probability
    buffer_bdp: float     # bottleneck buffer in BDP multiples

    @property
    def bdp(self) -> Bytes:
        return bdp_bytes(self.btl_bw, self.rtt)

    @property
    def buffer_bytes(self) -> Bytes:
        return max(int(self.buffer_bdp * self.bdp), 3000)

    def bandwidth_profile(self, rng: Optional[RngRegistry] = None
                          ) -> BandwidthProfile:
        from repro.net.netem import ConstantBandwidth, RandomWalkBandwidth
        from repro.sim.rng import RngRegistry

        if self.bw_variation <= 0:
            return ConstantBandwidth(self.btl_bw)
        stream = (rng or RngRegistry(0)).stream(f"bw:{self.name}")
        return RandomWalkBandwidth(self.btl_bw, span=self.bw_variation,
                                   rng=stream)

    def build(self, sim: Simulator, rng: Optional[RngRegistry] = None
              ) -> Dumbbell:
        """Instantiate this scenario's network in ``sim``."""
        from repro.net.netem import JitterModel, LossModel
        from repro.net.topology import build_path
        from repro.sim.rng import RngRegistry

        rng = rng or RngRegistry(0)
        jitter = (JitterModel(self.jitter, rng.stream(f"jitter:{self.name}"))
                  if self.jitter > 0 else None)
        loss = (LossModel(self.loss_rate, rng.stream(f"loss:{self.name}"))
                if self.loss_rate > 0 else None)
        return build_path(sim, self.bandwidth_profile(rng), self.rtt,
                          self.buffer_bytes, jitter=jitter, loss=loss)


def _make_scenarios(servers: Dict[str, Dict[str, float]]
                    ) -> Dict[str, PathScenario]:
    scenarios: Dict[str, PathScenario] = {}
    for server, info in servers.items():
        for link, (rate, variation, jitter, buffer_bdp) in LINK_TYPES.items():
            location = CLIENT_LOCATION[link]
            name = f"{server}/{link}"
            scenarios[name] = PathScenario(
                name=name, server=server, link_type=link,
                client_location=location, rtt=info[location],
                btl_bw=rate, bw_variation=variation, jitter=jitter,
                loss_rate=0.0,
                buffer_bdp=buffer_bdp * info["buffer_scale"])
    return scenarios


#: All 28 scenarios of Figs. 17-18, keyed "server/link".
INTERNET_SCENARIOS: Dict[str, PathScenario] = _make_scenarios(SERVERS)

#: Azure scenarios (tested but unpublished in the paper; see AZURE_SERVERS).
AZURE_SCENARIOS: Dict[str, PathScenario] = _make_scenarios(AZURE_SERVERS)


def get_scenario(server: str, link_type: str) -> PathScenario:
    """Look up one of the 28 internet scenarios."""
    key = f"{server}/{link_type}"
    if key not in INTERNET_SCENARIOS:
        raise KeyError(f"unknown scenario {key!r}; servers={SERVER_NAMES}, "
                       f"links={LINK_NAMES}")
    return INTERNET_SCENARIOS[key]


#: The headline scenario of Figs. 9-10: NZ 4G client, Google US-East server.
#: The paper's trace exits slow start around cwnd ≈ 1300 packets, which
#: pins this particular path's BDP: ~75 Mbit/s of 4G downlink at ~200 ms.
FIG9_SCENARIO = replace(get_scenario("google-us-east", "4g"),
                        name="google-us-east/4g-fig9", rtt=0.200,
                        btl_bw=75 * MBPS, bw_variation=0.35)
#: The Fig. 11/12 scenarios: Tokyo server, all four link types.
FIG11_SCENARIOS = [get_scenario("google-tokyo", link)
                   for link in ("5g", "wired", "wifi", "4g")]
#: Fig. 13: Google US-East -> Sydney (both endpoints in data centers).
FIG13_SCENARIO = replace(get_scenario("google-us-east", "wired"),
                         name="google-us-east/sydney-dc", rtt=0.150,
                         btl_bw=300 * MBPS, bw_variation=0.0,
                         jitter=0.0002, buffer_bdp=1.0)
#: Fig. 14: Oracle London -> 5G client in Sweden.  Section 6.3 notes loss
#: is noticeable on Oracle + high-speed-link paths; the shallow effective
#: buffer is what makes slow start's final doubling overflow there.
FIG14_SCENARIO = replace(get_scenario("oracle-london", "5g"),
                         name="oracle-london/5g-fig14", buffer_bdp=0.45)


# ----------------------------------------------------------------------
# local testbed (dumbbell, Figs. 2, 15, 16, Table 1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LocalTestbedConfig:
    """The paper's five-pair dumbbell shaped with netem."""

    bottleneck_mbps: float = 50.0
    rtts: Tuple[Seconds, ...] = (0.050, 0.050, 0.050, 0.050, 0.050)
    buffer_bdp: float = 1.0
    reference_rtt: Optional[Seconds] = None  # BDP sizing RTT; default max(rtts)
    jitter: Seconds = 0.0

    @property
    def btl_bw(self) -> BytesPerSec:
        return self.bottleneck_mbps * MBPS

    @property
    def buffer_bytes(self) -> Bytes:
        ref = self.reference_rtt if self.reference_rtt is not None else max(self.rtts)
        return max(int(self.buffer_bdp * bdp_bytes(self.btl_bw, ref)), 3000)

    def build(self, sim: Simulator, rng: Optional[RngRegistry] = None
              ) -> Dumbbell:
        from repro.net.netem import JitterModel
        from repro.net.topology import build_dumbbell
        from repro.sim.rng import RngRegistry

        rng = rng or RngRegistry(0)
        jitter = (JitterModel(self.jitter, rng.stream("jitter:local"))
                  if self.jitter > 0 else None)
        return build_dumbbell(sim, len(self.rtts), self.btl_bw,
                              list(self.rtts), self.buffer_bytes,
                              jitter=jitter)
