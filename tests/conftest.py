"""Session set-up shared by every test module.

When a property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` inside its report hook, to suggest a patch.
That module imports libcst, whose import defines a
``mypy_extensions.TypedDict`` and so raises a ``DeprecationWarning``; the
``filterwarnings = ["error"]`` rule turns it into an error inside the hook,
pytest ends in INTERNALERROR and the falsifying example is never printed.
The module is imported here once, before any test runs, with that one
warning ignored, so the hook finds it loaded and every other warning stays
an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the hook skips its patch as well
        pass
