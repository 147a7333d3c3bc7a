"""Search content model: keywords and synthetic result pages."""
