"""The assembled link layer: stations on a shared radio channel.

:class:`~repro.link.channel.RadioChannel` implements the medium the
MACs contend on, delivers completed transmissions through each
receiver's modem pipeline, and converts co-channel overlap into
interference samples (capture effect included).
:class:`~repro.link.station.LinkStation` bundles position, modem,
controller and MAC into one WaveLAN host.
"""
