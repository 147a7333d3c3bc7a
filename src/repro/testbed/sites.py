"""Geographic site catalogue.

Synthetic stand-ins for the geography of the 2011 measurement study:

* **metros** — cities hosting PlanetLab-style vantage points (most are
  university towns, mirroring the paper's observation that PlanetLab
  nodes sit in campus networks);
* **back-end data-center sites** — locations inspired by the public
  Google/Microsoft data-center lists the paper cites ([1, 2] in the
  paper);
* **front-end site builders** — the Akamai-like deployment places an FE
  in (nearly) every metro, the Google-like deployment only at major
  hubs.  This density difference is what produces the paper's Figure 6
  (Bing FEs closer to clients than Google FEs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.net.geo import GeoPoint


@dataclass(frozen=True)
class Metro:
    """A metropolitan area that can host vantage points and FE servers."""

    name: str
    location: GeoPoint
    region: str       # "us", "eu", "asia", "other"
    hub: bool = False  # major interconnection hub (google-like FE site)


def _metro(name, lat, lon, region, hub=False):
    return Metro(name, GeoPoint(lat, lon), region, hub)


#: Vantage-point metros.  ``hub=True`` marks major interconnection points.
METROS: Tuple[Metro, ...] = (
    # United States
    _metro("minneapolis", 44.98, -93.27, "us"),
    _metro("chicago", 41.88, -87.63, "us", hub=True),
    _metro("new-york", 40.71, -74.01, "us", hub=True),
    _metro("boston", 42.36, -71.06, "us"),
    _metro("washington-dc", 38.91, -77.04, "us", hub=True),
    _metro("atlanta", 33.75, -84.39, "us", hub=True),
    _metro("miami", 25.76, -80.19, "us", hub=True),
    _metro("seattle", 47.61, -122.33, "us", hub=True),
    _metro("san-francisco", 37.77, -122.42, "us", hub=True),
    _metro("los-angeles", 34.05, -118.24, "us", hub=True),
    _metro("san-diego", 32.72, -117.16, "us"),
    _metro("denver", 39.74, -104.99, "us"),
    _metro("dallas", 32.78, -96.80, "us", hub=True),
    _metro("houston", 29.76, -95.37, "us"),
    _metro("phoenix", 33.45, -112.07, "us"),
    _metro("st-louis", 38.63, -90.20, "us"),
    _metro("pittsburgh", 40.44, -79.99, "us"),
    _metro("philadelphia", 39.95, -75.17, "us"),
    _metro("salt-lake-city", 40.76, -111.89, "us"),
    _metro("portland", 45.52, -122.68, "us"),
    _metro("madison", 43.07, -89.40, "us"),
    _metro("ann-arbor", 42.28, -83.74, "us"),
    _metro("austin", 30.27, -97.74, "us"),
    _metro("raleigh", 35.78, -78.64, "us"),
    _metro("ithaca", 42.44, -76.50, "us"),
    # Europe
    _metro("london", 51.51, -0.13, "eu", hub=True),
    _metro("paris", 48.86, 2.35, "eu", hub=True),
    _metro("berlin", 52.52, 13.40, "eu"),
    _metro("frankfurt", 50.11, 8.68, "eu", hub=True),
    _metro("amsterdam", 52.37, 4.90, "eu", hub=True),
    _metro("madrid", 40.42, -3.70, "eu"),
    _metro("rome", 41.90, 12.50, "eu"),
    _metro("zurich", 47.37, 8.54, "eu"),
    _metro("vienna", 48.21, 16.37, "eu"),
    _metro("stockholm", 59.33, 18.07, "eu", hub=True),
    _metro("helsinki", 60.17, 24.94, "eu"),
    _metro("warsaw", 52.23, 21.01, "eu"),
    _metro("dublin", 53.35, -6.26, "eu"),
    _metro("brussels", 50.85, 4.35, "eu"),
    _metro("prague", 50.08, 14.44, "eu"),
    _metro("athens", 37.98, 23.73, "eu"),
    # Asia-Pacific
    _metro("tokyo", 35.68, 139.69, "asia", hub=True),
    _metro("seoul", 37.57, 126.98, "asia"),
    _metro("beijing", 39.90, 116.41, "asia"),
    _metro("singapore", 1.35, 103.82, "asia", hub=True),
    _metro("hong-kong", 22.32, 114.17, "asia"),
    _metro("taipei", 25.03, 121.57, "asia"),
    # Other
    _metro("sydney", -33.87, 151.21, "other", hub=True),
    _metro("toronto", 43.65, -79.38, "other", hub=True),
    _metro("vancouver", 49.28, -123.12, "other"),
    _metro("sao-paulo", -23.55, -46.63, "other", hub=True),
)


def nearest_metro(location: GeoPoint) -> Metro:
    """The metro closest to ``location`` (the first, on a tie)."""
    return min(METROS, key=lambda metro:
               metro.location.distance_miles(location))


#: Regional mixture matching PlanetLab's 2011 footprint.
REGION_WEIGHTS = {"us": 0.55, "eu": 0.30, "asia": 0.10, "other": 0.05}


#: Google-like back-end data centers (from the public location list the
#: paper cites: The Dalles, Council Bluffs, Lenoir, Berkeley County,
#: Mayes County, Dublin, St. Ghislain).
GOOGLE_LIKE_BE_SITES: Tuple[Tuple[str, GeoPoint], ...] = (
    ("the-dalles-or", GeoPoint(45.60, -121.18)),
    ("council-bluffs-ia", GeoPoint(41.26, -95.86)),
    ("lenoir-nc", GeoPoint(35.91, -81.54)),
    ("berkeley-county-sc", GeoPoint(33.07, -80.04)),
    ("mayes-county-ok", GeoPoint(36.30, -95.30)),
    ("dublin-ie", GeoPoint(53.35, -6.26)),
    ("st-ghislain-be", GeoPoint(50.45, 3.82)),
)

#: Bing-like back-end data centers (Microsoft's 2011 list: Boydton VA,
#: Quincy WA, Chicago, San Antonio, Dublin, Amsterdam).
BING_LIKE_BE_SITES: Tuple[Tuple[str, GeoPoint], ...] = (
    ("boydton-va", GeoPoint(36.66, -78.39)),
    ("quincy-wa", GeoPoint(47.23, -119.85)),
    ("chicago-il", GeoPoint(41.88, -87.63)),
    ("san-antonio-tx", GeoPoint(29.42, -98.49)),
    ("dublin-ie", GeoPoint(53.35, -6.26)),
    ("amsterdam-nl", GeoPoint(52.37, 4.90)),
)


def akamai_like_fe_sites(coverage: float = 0.9
                         ) -> List[Tuple[str, GeoPoint]]:
    """FE sites for the shared-CDN deployment: an FE in (almost) every
    metro.  ``coverage`` is the fraction of metros covered; uncovered
    metros are skipped deterministically (every k-th metro)."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    skip_every = int(round(1.0 / (1.0 - coverage))) if coverage < 1.0 else 0
    sites = []
    for index, metro in enumerate(METROS):
        if skip_every and (index + 1) % skip_every == 0 and not metro.hub:
            continue
        sites.append((metro.name, metro.location))
    return sites


def google_like_fe_sites() -> List[Tuple[str, GeoPoint]]:
    """FE sites for the dedicated deployment: hub metros only."""
    return [(m.name, m.location) for m in METROS if m.hub]
