"""Performance analysis for a STAR-RIS assisted wireless-powered two-user uplink.

Subpackages:
    channel     fading primitives, cascaded-channel moments, Gamma moment match
    system      system configuration, policies, the scheme table, uplink SNRs, SIC
    analytics   closed-form outage, throughput, success probability, average AoI
    montecarlo  simulation oracle for every closed form
    optimizer   genetic-algorithm resource allocation under an AoI constraint
    cli         command line front end (sweeps, presets, GA runs)
"""

__version__ = "0.2.0"
