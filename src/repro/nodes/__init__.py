"""Node roles of the Fig. 3 architecture: light nodes (wireless
sensors), full nodes (gateways) and the manager."""
