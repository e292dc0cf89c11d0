"""Shared test settings: property tests run a fixed, bounded set of examples."""

from hypothesis import settings

settings.register_profile(
    "gasketforms",
    derandomize=True,
    deadline=None,
    max_examples=25,
    database=None,
    print_blob=False,
)
settings.load_profile("gasketforms")
