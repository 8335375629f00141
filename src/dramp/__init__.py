"""Adaptive MCMC with delayed rejection, compact weighted chains, recursive
sample refinement, restartable runs, and simulated parallel protocols."""

__version__ = "0.1.0"
