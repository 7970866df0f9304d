"""Settings shared by the whole test suite."""

from hypothesis import settings

# Derandomised, so every run draws the same examples, and without a
# deadline, since the time an exact computation takes varies with the
# host.  A test sets only its own max_examples.
settings.register_profile("suite", deadline=None, max_examples=60,
                          derandomize=True)
settings.load_profile("suite")
