import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # reproducible property tests with no per-example deadline: the same
    # examples on every run, and no flaky timeouts on a slow or loaded host
    settings.register_profile("entrokit", derandomize=True, deadline=None,
                              max_examples=200)
    settings.load_profile("entrokit")
