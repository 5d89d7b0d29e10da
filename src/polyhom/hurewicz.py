"""The defect homomorphism from simplex data to the binding group, and
the executable verdict that it induces an isomorphism.

Index conventions, fixed once for the whole package: faces of a datum
are numbered 0..n (face i sits over the vertex set minus its i-th
smallest element) and the face/slot shift disappears in code because Q
tuples are also stored 0-based, so face i occupies tuple slot i.  The
defect eps(g) is the unique group element with

    Q(e_0, ..., e_{n-1}, eps(g).e_n),      e_i = twist_i . selector_i,

found by exhaustive horn search rather than by any formula, so it works
on scrambled and user-supplied instances.  All identities involving
signs use the alternating sum over 0-based positions; under that
convention a twist change of delta on the faces moves eps by
(-1)^(n+1) * sum_i (-1)^i delta_i.

A propped-up simplex here keeps exactly what eps consumes: one chosen
fiber element per abstract face (the selector) plus one group twist per
face standing for the remaining embedding freedom.  Parallel data over
the same faces differ only in twists, which is what makes pockets with
equal boundary but distinct defect representable.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass

from .algebra import FinAbelianGroup, GroupElement, group_from_addition, iso_check
from .binding import ActionTable, ExtractionError, base_config, extract
from .polygroupoid import Polygroupoid, _config_key


class EpsilonError(ValueError):
    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}: {witness}")


@dataclass(frozen=True)
class AbstractFace:
    face_id: str
    config: tuple
    selector: str


@dataclass(frozen=True)
class SimplexDatum:
    vertices: tuple
    faces: tuple
    twists: tuple


@dataclass(frozen=True)
class CoSimplexDatum:
    vertices: tuple
    pairs: dict  # (i, j) position pair, i < j -> (AbstractFace, twist)

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.pairs))))


def canonical_faces(h: Polygroupoid):
    """One abstract face per top fiber: the lexicographically least
    element is the selector."""
    out = {}
    for config in h.top_configs:
        fiber = h.fiber(config)
        if fiber:
            out[config] = AbstractFace(f"f:{_config_key(config)}", config, fiber[0])
    return out


def _simplex_faces(canon, vertices):
    """The canonical face over each n-subset of an (n+1)-subset, by
    dropped position."""
    return tuple(canon[vertices[:i] + vertices[i + 1 :]] for i in range(len(vertices)))


def _pair_faces(canon, vertices):
    """The canonical face over each n-subset of an (n+2)-subset, by the
    pair of dropped positions."""
    return {
        (i, j): canon[tuple(v for k, v in enumerate(vertices) if k not in (i, j))]
        for i, j in itertools.combinations(range(len(vertices)), 2)
    }


def simplex_datum(h: Polygroupoid, group: FinAbelianGroup, vertices, twists=None, faces=None):
    """Datum over an (n+1)-subset with the given or canonical faces."""
    n = h.arity
    vertices = tuple(sorted(vertices))
    if len(vertices) != n + 1:
        raise ValueError("need n+1 vertices")
    faces = _simplex_faces(canonical_faces(h), vertices) if faces is None else tuple(faces)
    for i, f in enumerate(faces):
        expected = tuple(v for v in vertices if v != vertices[i])
        if f.config != expected:
            raise ValueError(f"face {i} sits over {f.config}, expected {expected}")
        if f.selector not in h.fiber(f.config):
            raise ValueError(f"selector of face {i} is not in its fiber")
    if twists is None:
        twists = tuple(group.zero() for _ in range(n + 1))
    return SimplexDatum(vertices, faces, tuple(twists))


def cosimplex_datum(h: Polygroupoid, group: FinAbelianGroup, vertices, twists=None, faces=None):
    """Datum over an (n+2)-subset; twists and faces are keyed by the
    position pairs (i, j) with i < j."""
    n = h.arity
    vertices = tuple(sorted(vertices))
    if len(vertices) != n + 2:
        raise ValueError("need n+2 vertices")
    if faces is None:
        faces = _pair_faces(canonical_faces(h), vertices)
    pairs = {}
    for i, j in itertools.combinations(range(n + 2), 2):
        face = faces[(i, j)]
        if face.config != tuple(v for k, v in enumerate(vertices) if k not in (i, j)):
            raise ValueError(f"pair face {(i, j)} sits over the wrong config")
        twist = group.zero() if twists is None else twists[(i, j)]
        pairs[(i, j)] = (face, twist)
    return CoSimplexDatum(vertices, pairs)


def embedded(h: Polygroupoid, act: ActionTable, g: SimplexDatum):
    return tuple(
        act.apply(f.config, t, f.selector) for f, t in zip(g.faces, g.twists)
    )


def epsilon(h: Polygroupoid, act: ActionTable, g: SimplexDatum) -> GroupElement:
    """The unique gamma with Q(e_0, ..., e_{n-1}, gamma.e_n)."""
    n = h.arity
    e = embedded(h, act, g)
    rest = e[:n]
    fillers = h.fillers.get((n, rest), ())
    if len(fillers) != 1:
        raise EpsilonError(
            "no unique horn filler", {"horn": list(rest), "fillers": len(fillers)}
        )
    gamma = act.difference(g.faces[n].config, e[n], fillers[0])
    if gamma is None:
        raise EpsilonError(
            "action not transitive on fiber", {"from": e[n], "to": fillers[0]}
        )
    return gamma


def epsilon_chain(h, act, terms) -> GroupElement:
    """Linear extension of the defect to integer combinations of data."""
    group = act.group
    acc = group.zero()
    for coef, datum in terms:
        acc = group.add(acc, group.scale(coef, epsilon(h, act, datum)))
    return acc


def _co_face_pairs(n2, j):
    """The position pairs read by co-face j of an n2-vertex datum, by
    face: face k reads the pair {j, m} with m = k for k < j, else k+1."""
    return [(min(j, m), max(j, m)) for m in range(n2) if m != j]


def co_face(g: CoSimplexDatum, j: int) -> SimplexDatum:
    """Face j of an (n+2)-vertex datum: drop the j-th vertex; its faces
    and twists are read from the pairs given by `_co_face_pairs`."""
    n2 = len(g.vertices)
    if not 0 <= j < n2:
        raise ValueError("face index out of range")
    vertices = tuple(v for i, v in enumerate(g.vertices) if i != j)
    read = [g.pairs[p] for p in _co_face_pairs(n2, j)]
    return SimplexDatum(vertices, tuple(f for f, _ in read), tuple(t for _, t in read))


def check_boundary_zero(h, act, g: CoSimplexDatum) -> bool:
    """Whether the alternating sum of the face defects vanishes."""
    group = act.group
    acc = group.zero()
    for j in range(len(g.vertices)):
        val = epsilon(h, act, co_face(g, j))
        acc = group.add(acc, val) if j % 2 == 0 else group.sub(acc, val)
    return acc == group.zero()


def natural_iso(group: FinAbelianGroup, g: SimplexDatum, g2: SimplexDatum):
    """Twist-difference certificate: present exactly when the
    alternating sum of the per-face twist differences vanishes.

    The alternating sum is a homomorphism G^(n+1) -> G, so
    alt(t2 - t1) = alt(t2) - alt(t1): a certificate exists exactly when
    alt(t1) == alt(t2).  `verdict` therefore keys twist vectors by their
    alternating sum instead of comparing them pairwise."""
    if g.vertices != g2.vertices:
        raise ValueError("data sit over different vertex sets")
    if g.faces != g2.faces:
        raise ValueError("data have different abstract faces")
    delta = tuple(group.sub(t2, t1) for t1, t2 in zip(g.twists, g2.twists))
    if group.alternating_sum(delta) == group.zero():
        return delta
    return None


def twist_by(group: FinAbelianGroup, g: SimplexDatum, gamma: GroupElement) -> SimplexDatum:
    """Shift the last twist by -gamma; moves the defect by +gamma and
    leaves every face unchanged."""
    twists = list(g.twists)
    twists[-1] = group.sub(twists[-1], gamma)
    return SimplexDatum(g.vertices, g.faces, tuple(twists))


@dataclass(frozen=True)
class VerdictReport:
    stages: dict
    group: FinAbelianGroup | None
    pocket_group: FinAbelianGroup | None
    isomorphic: bool

    @property
    def passed(self):
        return self.isomorphic and all(s["passed"] for s in self.stages.values())

    def to_json_dict(self):
        def group_dict(g):
            if g is None:
                return None
            return {"invariant_factors": list(g.invariant_factors), "free_rank": g.free_rank}

        return {
            "stages": self.stages,
            "group": group_dict(self.group),
            "pocket_group": group_dict(self.pocket_group),
            "isomorphic": self.isomorphic,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _twist_vectors(group, count, exhaustive, samples, rng):
    if exhaustive:
        yield from itertools.product(group.elements(), repeat=count)
    else:
        pool = list(group.elements())
        for _ in range(samples):
            yield tuple(rng.choice(pool) for _ in range(count))


def verdict(h: Polygroupoid, samples=10000, seed=0) -> VerdictReport:
    """Five-stage executable comparison of the pocket-class group with
    the extracted binding group.

    (i) extract the group and action; (ii) the defect vanishes on
    boundaries of (n+2)-vertex data, exhaustively when the twist space
    is small (arity 2, order <= 4) and sampled otherwise -- the only
    stage that samples; (iii) equal defect is equivalent to a
    natural-isomorphism certificate over fixed faces; (iv) twisting
    reaches every group element; (v) the group of twist classes under
    natural isomorphism matches the extracted group.

    Stage (ii) evaluates each co-face defect once per twist key: co-face
    j of an (n+2)-subset reads only the n+1 twists of the pairs holding
    j, so a memo per subset and co-face maps that twist tuple to the
    coordinates of eps, and the alternating sum of a vector is taken on
    those integers modulo the invariant factors.  The vectors, and so
    the count, the first failure and the witness, are those of calling
    `check_boundary_zero` on every datum, which re-checks a witness.

    Stages (iii) and (v) key each twist vector t by alt(t), its
    alternating sum, which decides natural isomorphism (see
    `natural_iso`).  The pairwise law of (iii) then says that the map
    alt(t) -> eps is well defined and injective; one pass over the
    |G|^(n+1) vectors in product order checks both, and the first
    collision in either direction is the witness pair.  In (v) the first
    vector of each key, in product order, represents its class.
    """
    n = h.arity
    rng = random.Random(seed)
    stages = {}
    group = None
    act = None
    pocket = None

    try:
        group, act = extract(h, base_config(h))
        stages["extract"] = {"passed": True, "group": str(group)}
    except ExtractionError as exc:
        stages["extract"] = {"passed": False, "witness": str(exc)}
        return VerdictReport(stages, None, None, False)
    canon = canonical_faces(h)

    exhaustive = n == 2 and group.order() <= 4
    pair_keys = list(itertools.combinations(range(n + 2), 2))
    per_subset = max(1, samples // max(1, math.comb(len(h.vertices), n + 2)))
    witness = None
    checked = 0
    try:
        for big in itertools.combinations(h.vertices, n + 2):
            faces = _pair_faces(canon, big)
            zero = cosimplex_datum(h, group, big, faces=faces)
            # per co-face j: the twist positions it reads, its vertices and
            # faces, and a memo from its twist tuple to the coordinates of
            # (-1)^j eps -- eps is a function of the datum, so this is exact
            cofaces = [
                (
                    operator.itemgetter(*(pair_keys.index(p) for p in _co_face_pairs(n + 2, j))),
                    co_face(zero, j),
                    -1 if j % 2 else 1,
                    {},
                )
                for j in range(n + 2)
            ]
            for vec in _twist_vectors(group, len(pair_keys), exhaustive, per_subset, rng):
                checked += 1
                signed = []
                for read, template, sign, memo in cofaces:
                    key = read(vec)
                    val = memo.get(key)
                    if val is None:
                        eps = epsilon(h, act, SimplexDatum(template.vertices, template.faces, key))
                        val = memo[key] = tuple(sign * c for c in eps.coords)
                    signed.append(val)
                if any(sum(col) % d for col, d in zip(zip(*signed), group.invariant_factors)):
                    datum = cosimplex_datum(h, group, big, twists=dict(zip(pair_keys, vec)), faces=faces)
                    if check_boundary_zero(h, act, datum):
                        raise AssertionError(f"boundary sum over {big} disagrees with check_boundary_zero")
                    witness = {
                        "vertices": list(big),
                        "twists": {f"{i},{j}": list(g.coords) for (i, j), g in zip(pair_keys, vec)},
                    }
                    raise StopIteration
    except StopIteration:
        pass
    except EpsilonError as exc:
        witness = {"reason": exc.reason, "detail": exc.witness}
    stages["boundary-vanishing"] = {
        "passed": witness is None,
        "checked": checked,
        "exhaustive": exhaustive,
        "witness": witness,
    }

    witness = None
    checked = 0
    base_vertices = min(itertools.combinations(h.vertices, n + 1))
    base_faces = _simplex_faces(canon, base_vertices)
    vectors = list(itertools.product(group.elements(), repeat=n + 1))

    def datum(t):
        return simplex_datum(h, group, base_vertices, twists=t, faces=base_faces)

    try:
        by_key = {}  # alt(t) -> (eps, t) of the first vector with that key
        by_eps = {}  # eps -> (alt(t), t) of the first vector with that defect
        for t in vectors:
            checked += 1
            key = group.alternating_sum(t)
            eps = epsilon(h, act, datum(t))
            if by_key.setdefault(key, (eps, t))[0] != eps:
                t1 = by_key[key][1]
            elif by_eps.setdefault(eps, (key, t))[0] != key:
                t1 = by_eps[eps][1]
            else:
                continue
            witness = {
                "twists": [[list(g.coords) for g in t1], [list(g.coords) for g in t]],
                "equal_defect": epsilon(h, act, datum(t1)) == eps,
                "certificate": natural_iso(group, datum(t1), datum(t)) is not None,
            }
            break
    except EpsilonError as exc:
        witness = {"reason": exc.reason, "detail": exc.witness}
    stages["defect-vs-natural-iso"] = {
        "passed": witness is None,
        "checked": checked,
        "witness": witness,
    }

    witness = None
    try:
        for big in itertools.combinations(h.vertices, n + 1):
            g0 = simplex_datum(h, group, big, faces=_simplex_faces(canon, big))
            base = epsilon(h, act, g0)
            reached = set()
            for gamma in group.elements():
                shifted = epsilon(h, act, twist_by(group, g0, gamma))
                reached.add(group.sub(shifted, base))
            if reached != set(group.elements()):
                witness = {"vertices": list(big), "reached": sorted(str(list(g.coords)) for g in reached)}
                break
    except EpsilonError as exc:
        witness = {"reason": exc.reason, "detail": exc.witness}
    stages["twist-surjectivity"] = {"passed": witness is None, "witness": witness}

    try:
        class_of = {}  # alt(t) -> class index
        reps = []
        for t in vectors:
            key = group.alternating_sum(t)
            if key not in class_of:
                class_of[key] = len(reps)
                reps.append(t)

        def add_classes(a, b):
            s = [group.add(x, y) for x, y in zip(reps[a], reps[b])]
            return class_of[group.alternating_sum(s)]

        pocket, _, _ = group_from_addition(range(len(reps)), add_classes, class_of[group.zero()])
        stages["pocket-group"] = {"passed": True, "classes": len(reps)}
    except ValueError as exc:
        stages["pocket-group"] = {"passed": False, "witness": {"reason": str(exc)}}

    isomorphic = pocket is not None and iso_check(pocket, group)
    return VerdictReport(stages, group, pocket, isomorphic)

