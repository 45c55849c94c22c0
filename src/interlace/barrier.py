"""Empty: kept only because the bench's tracer (``perfbench/tracing.py``)
imports every module of its ``LAYERS`` by name, this one among them.  The
soft-edge barriers are in ``tests/barrier.py``; the tracer's rewrite on
ROADMAP deletes this module, with ``Polynomial.derivative``."""
