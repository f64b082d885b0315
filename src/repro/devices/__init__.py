"""Device layer: hardware performance profiles, clocks, sensor models.

This package is the substitution for the paper's physical testbed (a
Raspberry Pi 3B light node and a PC full node): costs are charged to a
:class:`~repro.devices.profiles.DeviceProfile` against a
:class:`~repro.devices.clock.SimulatedClock`.
"""
