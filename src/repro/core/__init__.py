"""The paper's contribution: the model-based inference framework.

* :mod:`repro.core.model` — the Section-2 abstract model (Eq. 1 & 2).
* :mod:`repro.core.metrics` — trace -> (Tstatic, Tdynamic, Tdelta).
* :mod:`repro.core.bounds` — Tdelta <= Tfetch <= Tdynamic validation.
* :mod:`repro.core.threshold` — the RTT threshold beyond which FE
  placement stops mattering.
* :mod:`repro.core.factoring` — Tfetch = Tproc + C*RTTbe via the
  distance regression (Figure 9).
* :mod:`repro.core.cache_detect` — do FEs cache search results?
* :mod:`repro.core.compare` — the Bing-vs-Google style comparison.
"""
