"""The paper's abstract model (Section 2).

The model describes a search query's packet-level timeline (Figure 2):

* ``tb`` — TCP three-way handshake begins;
* ``t1`` — the client sends the HTTP GET;
* ``t2`` — the client receives the ACK of the GET (one RTT later);
* ``t3`` / ``t4`` — first / last packet of the **static** portion;
* ``t5`` — first packet of the **dynamic** portion;
* ``te`` — last packet of the response.

and defines the measurable quantities

* ``Tstatic  := t4 - t2``
* ``Tdynamic := t5 - t2``
* ``Tdelta   := t5 - t4``

with the central inequality (paper Eq. 1) and decomposition (Eq. 2):

* ``Tdelta <= Tfetch <= Tdynamic``
* ``Tfetch  = Tproc + C * RTTbe``

:class:`AbstractModel` turns those equations into executable predictions
parameterised by the client-FE RTT, the FE processing delay, the fetch
time, and the number of extra client-FE round trips the static portion's
TCP-window delivery needs (``static_windows``, the paper's implicit
``k``).  The predictions are what Figures 3-5 check qualitatively; the
test suite checks the simulator against them quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AbstractModel:
    """Closed-form predictions of the Section-2 model.

    Parameters
    ----------
    fe_delay:
        FE processing delay before the static portion is written (s).
    tfetch:
        FE-BE fetch time: forwarding + back-end processing + delivery of
        the dynamic portion to the FE (s).
    static_windows:
        Extra client-FE round trips needed to deliver the static portion
        beyond its first in-window burst (the ``k`` factor; 0 when the
        static portion fits in the initial congestion window).
    """

    fe_delay: float
    tfetch: float
    static_windows: int = 1

    def __post_init__(self):
        if self.fe_delay < 0 or self.tfetch < 0:
            raise ValueError("delays must be non-negative")
        if self.static_windows < 0:
            raise ValueError("static_windows must be >= 0")

    # ------------------------------------------------------------------
    def predict_tstatic(self, rtt: float) -> float:
        """t4 - t2: FE delay plus the windowed static delivery."""
        return self.fe_delay + self.static_windows * rtt

    def predict_tdelta(self, rtt: float) -> float:
        """t5 - t4: positive until the static delivery catches up."""
        return max(0.0, self.tfetch - self.predict_tstatic(rtt))

    def predict_tdynamic(self, rtt: float) -> float:
        """t5 - t2: the larger of the fetch and the static delivery."""
        return max(self.tfetch, self.predict_tstatic(rtt))

    def rtt_threshold(self) -> float:
        """The RTT beyond which Tdelta is predicted to be zero.

        Beyond this point the last static packet and the first dynamic
        packet are delivered back-to-back, and reducing the client-FE
        RTT further cannot improve Tdynamic: end-to-end performance is
        determined solely by the FE-BE fetch time.  This is the paper's
        placement/fetch-time trade-off.
        """
        if self.static_windows == 0:
            return float("inf") if self.tfetch > self.fe_delay else 0.0
        return max(0.0, (self.tfetch - self.fe_delay) / self.static_windows)
