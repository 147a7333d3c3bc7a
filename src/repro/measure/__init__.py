"""Active measurement: capture, query emulation, campaign drivers."""
