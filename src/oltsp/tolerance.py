"""The package's numerical tolerances, one name per decision.

SNAP  offsets within this distance of a node (tree/flower/general
      endpoint) are snapped onto it, so a point has one representation.
TIE   two times, values or route statistics this close count as equal:
      a release is due, alpha >= 1/2, minimizer and Held-Karp ties,
      zero-width ring gaps.
FEAS  at-the-point and ordering checks: the server is at a location,
      a node lies on a tree path, an event is not in the past, a metric
      satisfies its axioms.
SWEEP_SLACK      a sweep row violates its guarantee only when its ratio
                 exceeds the bound by more than this.
STATIC_MARGIN    a static fixture's ratio passes within this distance
                 of its expected value.
ADAPTIVE_MARGIN  the same for a fixture played against an adaptive
                 release adversary.
DIAMETER_FLOOR   a generated instance draws its release times over at
                 least twice this diameter, also when every request sits
                 at the origin.
ETA_BAND         perturb_predictions' achieved error is within this share of its target.
"""

SNAP = 1e-12
TIE = 1e-12
FEAS = 1e-9
SWEEP_SLACK = 1e-6
STATIC_MARGIN = 1e-6
ADAPTIVE_MARGIN = 1e-4
DIAMETER_FLOOR = 1e-6
ETA_BAND = 0.05
