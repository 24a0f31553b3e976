"""Suite-wide pytest configuration."""

from hypothesis import settings

# Tier-1 sees the same examples every run: a property test that passes on
# a PR cannot fail on its merge commit for having drawn different inputs.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
