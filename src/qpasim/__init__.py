"""Simulator and analysis toolkit for a free-space squeezed-light phased-array receiver."""
