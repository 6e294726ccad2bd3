"""The E-WAN protocol: parameters, node state, host books, round geometry
and the run that executes one deployment."""
