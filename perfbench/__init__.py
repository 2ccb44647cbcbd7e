"""End-to-end benchmark: record -> synthesize -> analyze -> serve."""
