"""The package's numerical tolerances, one name per decision.

SNAP  offsets within this distance of a node (tree/flower/general
      endpoint) are snapped onto it, so a point has one representation.
TIE   two times, values or route statistics this close count as equal:
      a release is due, alpha >= 1/2, minimizer and Held-Karp ties,
      zero-width ring gaps.
FEAS  at-the-point and ordering checks: the server is at a location,
      a node lies on a tree path, an event is not in the past, a metric
      satisfies its axioms.
"""

SNAP = 1e-12
TIE = 1e-12
FEAS = 1e-9
