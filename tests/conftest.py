"""Suite-wide settings."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    pass
else:
    # Fixed examples and no per-example deadline: runs repeat exactly, and a
    # slow machine cannot fail a property test on timing alone.
    settings.register_profile("shadowscan", deadline=None, derandomize=True, database=None)
    settings.load_profile("shadowscan")
