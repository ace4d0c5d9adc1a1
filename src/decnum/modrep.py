"""Actions of tiny groups on finite abelian groups, and their mod-l shadows.

Only three symmetry groups ever show up downstream (trivial, the order-2
group, and the symmetric group on three letters), so representation
theory here is a handful of closed-form regimes rather than a general
character-theory engine.  Everything known about those groups sits in
one table, GROUPS: per kind its generators, its elements as words in
them, its defining relations, and its simple modules mod l.  Only this
module reads it, and an unknown kind is refused with "unknown group".
check_relations is the one routine that checks the generator labels and
the relations, on folding permutations (rootsys.FoldingDatum), on
actions mod the invariant factors (EquivariantAbGroup) and on matrices
mod l (ModularRep).  Irreducible labels are fixed strings:

    "1"    trivial character (dimension 1)
    "eps"  sign character    (dimension 1)
    "psi"  two-dimensional irreducible of S3

Which labels survive reduction mod l depends on l; see
irreducible_labels.  composition_multiplicities counts composition
factors (not direct summands), which is what decomposition numbers
need.
"""

from __future__ import annotations

from .intmat import FinAbGroup, Record, Rows, _built, check_prime, freeze, identity, multiply

# The three symmetry groups: kind -> (generators, elements as words in
# them with "e" the identity first, defining relations as (word, word,
# message for a generator set that breaks it), simple modules mod ell
# keyed by ell = 2, 3 and 0 for every other prime).
_SQUARE = ("ss", "e", "generator s must square to the identity")
GROUPS = {
    "trivial": ((), ("e",), (), {2: ("1",), 3: ("1",), 0: ("1",)}),
    "C2": (("s",), ("e", "s"), (_SQUARE,), {2: ("1",), 3: ("1", "eps"), 0: ("1", "eps")}),
    "S3": (
        ("s", "t"),
        ("e", "t", "tt", "s", "st", "stt"),
        (_SQUARE, ("ttt", "e", "generator t must cube to the identity"),
         ("sts", "tt", "generators must satisfy s t s = t^2")),
        {2: ("1", "psi"), 3: ("1", "eps"), 0: ("1", "eps", "psi")},
    ),
}
_KIND = {entry[0]: kind for kind, entry in GROUPS.items()}

CHARACTER_DIMS = {"1": 1, "eps": 1, "psi": 2}


def _group(kind) -> tuple:
    if not isinstance(kind, str) or kind not in GROUPS:
        raise ValueError(f"unknown group {kind!r}")
    return GROUPS[kind]


def _word_value(word: str, gens: dict, unit, compose):
    if word == "e":
        return unit
    value = gens[word[0]]
    for label in word[1:]:
        value = compose(value, gens[label])
    return value


def group_elements(kind: str, gens: dict, unit, compose) -> dict:
    """Every element of the group kind, keyed by its word in GROUPS.

    A word's value is compose folded over its letters' values from the
    left; "e" is unit.
    """
    return {word: _word_value(word, gens, unit, compose) for word in _group(kind)[1]}


def check_relations(kind: str, gens: dict, unit, compose) -> None:
    """Refuse gens unless they are kind's generators and satisfy its relations.

    Both words of a relation are valued as in group_elements and compared
    with ==, so compose must return its values in one normal form.  Wrong
    labels, or the first relation that fails, raise ValueError.
    """
    labels, _, relations, _ = _group(kind)
    if tuple(sorted(gens)) != labels:
        raise ValueError("generator labels do not match symmetry group")
    for lhs, rhs, message in relations:
        if _word_value(lhs, gens, unit, compose) != _word_value(rhs, gens, unit, compose):
            raise ValueError(message)


def _mod_entrywise(m: Rows, mods: tuple[int, ...]) -> Rows:
    return _built([tuple([e % d for e in row]) for row, d in zip(m, mods)])


class _GroupAction(Record):
    # _kind is not a field: _set_action works it out from the generator labels
    __slots__ = ("_kind",)
    action: dict[str, Rows]

    @property
    def kind(self) -> str:
        return self._kind

    def _set_action(self, action: dict[str, Rows], n: int, reduce) -> None:
        """Store each generator frozen, n x n and reduced; check the relations."""
        labels = tuple(sorted(action))
        if labels not in _KIND:
            raise ValueError(f"unsupported generator set {labels}")
        self._kind = _KIND[labels]
        fixed = {}
        for label, m in action.items():
            if n:
                m = freeze(m)
                if len(m) != n or len(m[0]) != n:
                    raise ValueError(f"generator {label} must be {n}x{n}")
            fixed[label] = reduce(m) if n else ()
        self.action = fixed
        if n:
            check_relations(self._kind, fixed, _built(identity(n)),
                            lambda a, b: reduce(multiply(a, b)))


class EquivariantAbGroup(_GroupAction):
    """A finite abelian group with a generator-indexed integer action.

    group must be pure torsion; each action matrix acts on invariant
    factor coordinates and is stored reduced mod the row's divisor.
    Generator labels determine the group kind (see GROUPS), and the
    defining relations are verified mod the divisors.
    """

    __slots__ = ("group", "action")

    def __init__(self, group: FinAbGroup, action: dict[str, Rows] | None = None) -> None:
        self.group = group
        self.action = {} if action is None else action
        if self.group.free_rank:
            raise ValueError("equivariant structure requires a finite group")
        divs = self.group.divisors
        self._set_action(self.action, len(divs), lambda m: _mod_entrywise(m, divs))


class ModularRep(_GroupAction):
    """A finite-dimensional representation over the field with ell elements.

    action maps generator labels to dim x dim matrices with entries
    reduced mod ell; generators must satisfy the group relations, which
    makes each of them invertible.
    """

    __slots__ = ("ell", "dim", "action")

    def __init__(self, ell: int, dim: int, action: dict[str, Rows] | None = None) -> None:
        self.ell = ell
        self.dim = dim
        self.action = action = {} if action is None else action
        check_prime(ell)
        if type(dim) is not int:
            raise ValueError(f"dim must be an int, got {dim!r}")
        if dim < 0:
            raise ValueError("negative dimension")
        self._set_action(action, dim, self._reduce)

    def _reduce(self, m: Rows) -> Rows:
        ell = self.ell
        return _built([tuple([e % ell for e in row]) for row in m])

    def elements(self) -> dict[str, Rows]:
        """All group element matrices, keyed by word in the generators."""
        return group_elements(self.kind, self.action, identity(self.dim),
                              lambda a, b: self._reduce(multiply(a, b)))


def modp_rank(m: Rows, p: int) -> int:
    """Rank of a matrix over the field with p elements (p prime)."""
    if not m or not m[0]:
        return 0
    a = [[e % p for e in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = pow(a[row][col], p - 2, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for r in range(rows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[row])]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def _eigenspace_dim(m: Rows, scalar: int, p: int, dim: int) -> int:
    if dim == 0:
        return 0
    shifted = [
        [(e - scalar if i == j else e) % p for j, e in enumerate(row)]
        for i, row in enumerate(m)
    ]
    return dim - modp_rank(shifted, p)


def reduce_mod_l(e: EquivariantAbGroup, ell: int) -> ModularRep:
    """F_ell tensor the group, with the inherited action.

    Only invariant factors divisible by ell contribute (one dimension
    each); the action matrix restricts to those coordinates, which
    ModularRep reduces mod ell.

    >>> g = EquivariantAbGroup(FinAbGroup((6,)), {"s": ((5,),)})
    >>> reduce_mod_l(g, 2).action["s"]
    ((1,),)
    >>> reduce_mod_l(g, 5).dim
    0
    """
    keep = [i for i, d in enumerate(e.group.divisors) if d % ell == 0]
    action = {
        label: tuple([tuple([m[i][j] for j in keep]) for i in keep])
        for label, m in e.action.items()
    }
    return ModularRep(ell=ell, dim=len(keep), action=action)


def irreducible_labels(group: str, ell: int) -> tuple[str, ...]:
    """Irreducible F_ell-representations of the given group, by label.

    An ell that is not a prime, or an unknown group, raises ValueError.

    >>> irreducible_labels("S3", 2)
    ('1', 'psi')
    >>> irreducible_labels("C2", 2)
    ('1',)
    """
    check_prime(ell)
    simples = _group(group)[3]
    return simples.get(ell, simples[0])


def composition_multiplicities(rep: ModularRep) -> dict[str, int]:
    """Composition factor multiplicities of rep, keyed by label.

    Every label from irreducible_labels appears, possibly with
    multiplicity zero.  The counts satisfy
    sum(multiplicity * dimension) == rep.dim in every regime.

    >>> r = ModularRep(3, 1, {"s": ((2,),)})
    >>> composition_multiplicities(r)
    {'1': 0, 'eps': 1}
    """
    ell, dim = rep.ell, rep.dim
    labels = irreducible_labels(rep.kind, ell)
    out = {label: 0 for label in labels}

    if labels == ("1",):
        # only the trivial simple exists; length equals dimension
        out["1"] = dim
    elif "psi" not in labels:
        # C2 or S3 at an odd ell, where s diagonalizes; for S3 mod 3 the
        # 3-cycle acts unipotently, so the simples factor through the
        # quotient of order 2
        s = rep.action["s"]
        out["1"] = _eigenspace_dim(s, 1, ell, dim)
        out["eps"] = _eigenspace_dim(s, ell - 1, ell, dim)
    elif "eps" not in labels:
        # S3 mod 2: factors are "1" and the (still simple) 2-dimensional
        # psi.  On psi the 3-cycle has no nonzero fixed vector while on
        # "1" it is the identity, so dim ker(t - 1) counts the trivial
        # factors and the rest pairs off into copies of psi.
        a = _eigenspace_dim(rep.action["t"], 1, 2, dim)
        if (dim - a) % 2:
            raise AssertionError("S3 mod-2 factor count came out fractional")
        out["1"] = a
        out["psi"] = (dim - a) // 2
    else:
        # S3 at ell >= 5, with a, b, c copies of 1, eps, psi: psi restricts
        # to one +1 and one -1 line of s, and t fixes no vector of psi as
        # ell != 3, so ker(s - 1), ker(s + 1) and ker(t - 1) have
        # dimensions a + c, b + c and a + b
        s, t = rep.action["s"], rep.action["t"]
        plus = _eigenspace_dim(s, 1, ell, dim)
        minus = _eigenspace_dim(s, ell - 1, ell, dim)
        fixed = _eigenspace_dim(t, 1, ell, dim)
        a, odd = divmod(plus - minus + fixed, 2)
        out["1"], out["eps"], out["psi"] = a, fixed - a, plus - a
        if odd or min(out.values()) < 0:
            raise AssertionError("S3 multiplicity accounting failed")

    if sum(CHARACTER_DIMS[lb] * v for lb, v in out.items()) != dim:
        raise AssertionError("composition factors do not fill the dimension")
    return out
