"""Swap scoring for the routers: :data:`repro.compiler.backends.base.SCORER`."""
