import math
import random

from oltsp.harness import SweepSpec, generate_one
from oltsp.spaces import Euclid2D, Flower, General, Line, Ring, Tree


def random_tree(rng: random.Random, max_leaves: int = 4, max_edges: int = 6) -> Tree:
    edges = []
    nodes = [0]
    leaves = set()
    for _ in range(rng.randint(1, max_edges)):
        if len(leaves) >= max_leaves:
            parent = rng.choice(sorted(leaves))
        else:
            parent = rng.choice(nodes)
        child = len(nodes)
        edges.append((parent, child, round(rng.uniform(0.2, 2.0), 6)))
        leaves.discard(parent)
        leaves.add(child)
        nodes.append(child)
    return Tree(edges)


def random_flower(rng: random.Random, max_petals: int = 2) -> Flower:
    petals = tuple(round(rng.uniform(0.5, 1.5), 6) for _ in range(rng.randint(1, max_petals)))
    stem = round(rng.uniform(0.0, 1.0), 6) if rng.random() < 0.7 else 0.0
    return Flower(petals, stem)


def random_general(rng: random.Random, sites: int) -> General:
    pts = [(0.0, 0.0)] + [
        (round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)) for _ in range(sites - 1)
    ]
    mat = [[math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts] for a in pts]
    return General(mat)


def random_point(space, rng: random.Random):
    if isinstance(space, Line):
        return round(rng.uniform(-2, 2), 6)
    if isinstance(space, Euclid2D):
        return (round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6))
    if isinstance(space, Ring):
        return round(rng.uniform(0, space.circumference), 6)
    if isinstance(space, Tree):
        ei = rng.randrange(len(space.edges))
        return space.canon((ei, round(rng.uniform(0, space.edges[ei][2]), 6)))
    if isinstance(space, Flower):
        comps = list(range(len(space.petals))) + (["stem"] if space.stem > 0 else [])
        c = rng.choice(comps)
        ln = space.stem if c == "stem" else space.petals[c]
        return space.canon((c, round(rng.uniform(0, ln), 6)))
    if isinstance(space, General):
        return rng.randrange(space.n)
    raise TypeError(space)


def random_space(kind: str, rng: random.Random, n_hint: int = 6):
    if kind == "line":
        return Line()
    if kind == "euclid2d":
        return Euclid2D()
    if kind == "ring":
        return Ring(round(rng.uniform(0.5, 2.0), 6))
    if kind == "tree":
        return random_tree(rng)
    if kind == "flower":
        return random_flower(rng)
    if kind == "general":
        return random_general(rng, n_hint + 3)
    raise ValueError(kind)


# -- pinned pools: seeded instances shared by the digest tests -----------------

_GRID_TREE = Tree([(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (0, 4, 1.0)])
_GRID_FLOWER = Flower((2.0, 2.0), 1.0)
# the L1 metric of a 3 x 3 grid, origin at its centre: integer lengths, many
# equal routes
_GRID_SITES = [(1, 1)] + [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
_GRID_GENERAL = General([[float(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in _GRID_SITES]
                         for a in _GRID_SITES])


def pin_space(family, rng):
    if family == "line":
        return Line()
    if family == "euclid2d":
        return Euclid2D()
    if family == "general":
        pts = [(0.0, 0.0)] + [(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
                              for _ in range(rng.randint(2, 8))]
        return General([[math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts] for a in pts])
    if family == "ring":
        return Ring(rng.choice([1.0, 2.0, 3.0]))
    if family == "tree":
        return Tree([(rng.randrange(child), child, rng.choice([0.5, 1.0, 1.5]))
                     for child in range(1, rng.randint(2, 5))])
    if family == "flower":
        return Flower(tuple(rng.choice([1.0, 2.0]) for _ in range(rng.randint(1, 2))),
                      rng.choice([0.0, 1.0]))
    raise ValueError(family)


def _pin_point(space, rng):
    if isinstance(space, Line):
        return round(rng.uniform(-2, 2), 3)
    if isinstance(space, Euclid2D):
        return (round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
    if isinstance(space, General):
        return rng.randrange(space.n)
    if isinstance(space, Ring):
        return round(rng.uniform(0, space.circumference), 3)
    if isinstance(space, Tree):
        ei = rng.randrange(len(space.edges))
        return space.canon((ei, round(rng.uniform(0, space.edges[ei][2]), 3)))
    c = rng.choice(list(range(len(space.petals))) + (["stem"] if space.stem > 0 else []))
    ln = space.stem if c == "stem" else space.petals[c]
    return space.canon((c, round(rng.uniform(0, ln), 3)))


def _grid_point(space, rng):
    # on the grid spaces: ties in position, depth, antipode and petal middle;
    # in the plane, sums of the same lengths in another order, an ulp apart
    if isinstance(space, Line):
        return rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])
    if isinstance(space, Euclid2D):
        return (rng.choice([-0.5, 0.0, 0.5, 1.0]), rng.choice([-0.5, 0.0, 0.5]))
    if isinstance(space, General):
        return rng.randrange(space.n)
    if isinstance(space, Ring):
        return rng.choice([0.0, 0.5, 1.0, 1.5])
    if isinstance(space, Tree):
        return space.canon((rng.randrange(len(space.edges)), rng.choice([0.5, 1.0])))
    c = rng.choice([0, 1, "stem"])
    return space.canon((c, rng.choice([0.5, 1.0]) if c == "stem" else rng.choice([0.5, 1.0, 1.5])))


def pin_pool(family, variant, count=40, n_max=6):
    """``count`` seeded random instances (30% of them with a duplicated
    prediction), then ``count`` tie-heavy ones on a fixed grid space, as
    (space, predictions, release times)."""
    rng = random.Random(f"{family}/{variant}")
    for _ in range(count):
        space = pin_space(family, rng)
        n = rng.randint(1, n_max)
        locs = [_pin_point(space, rng) for _ in range(n)]
        if rng.random() < 0.3:
            locs[rng.randrange(n)] = rng.choice(locs)
        yield space, locs, [round(rng.uniform(0, 2), 3) for _ in range(n)]
    space = {"line": Line(), "ring": Ring(2.0), "tree": _GRID_TREE, "flower": _GRID_FLOWER,
             "general": _GRID_GENERAL, "euclid2d": Euclid2D()}[family]
    for _ in range(count):
        n = rng.randint(1, n_max)
        yield (space, [_grid_point(space, rng) for _ in range(n)],
               [rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(n)])


def asymmetric_tree_instances():
    """Three sweep instances (n = 7) on trees whose distance is not bitwise
    symmetric: reading a leg against the direction the server walks it
    moves OPT's value by an ulp on each, as tree/closed seeds 135 and 248
    and tree/open seed 135."""
    return [generate_one(SweepSpec(space="tree", variant=variant, n=7, count=1, seed=seed), 0)
            for variant, seed in (("closed", 135), ("closed", 248), ("open", 135))]
