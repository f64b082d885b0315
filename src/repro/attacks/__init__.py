"""Attack harnesses for the four threats of Section III: lazy tips,
double spending, Sybil identities, and DDoS/single-point-of-failure."""
