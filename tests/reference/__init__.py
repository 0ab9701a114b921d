"""From-scratch test oracles for the production primitives in ``repro``.

Modules here are imported only by the test suite (``from reference
import keccak``); ``tests/test_imports.py`` fails if anything under
``src/repro`` imports them, so an oracle never becomes a production
dependency.
"""
