"""PlanetLab-style testbed: sites, vantage points, scenario assembly."""
