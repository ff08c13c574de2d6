from hypothesis import settings

# Every run draws the same examples, so a property failure reproduces; there
# is no per-example deadline, because the properties that call the quadrature
# oracles take longer than hypothesis' default 200 ms on some draws.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
