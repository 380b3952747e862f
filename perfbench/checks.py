"""Independent oracles for every benchmark op.

Each expected value comes from the braid word through classical formulas,
never from a second call into finitype:

* c2 of a knot by the Polyak-Viro Gauss-diagram formula;
* linking numbers as half the signed count of inter-component crossings;
* the lowest Conway coefficient of a 3-component link as the sum over
  spanning trees of products of linking numbers (Hoste);
* moments of the Jones polynomial sum c_e q^e: a knot has sum c_e = 1,
  sum c_e e = 0 and sum c_e e^2 = -6 c2, that is
  jones(e^h) = 1 + 0 h - 3 c2 h^2 + ...; a 3-component link has
  sum c_e = 4 and sum c_e e = 6 (lk12 + lk13 + lk23);
* the weight system of c2: a 2-fold crossing-switch difference equals
  eps_i eps_j times 1 if the two crossings interleave in Gauss order, else 0;
* vanishing of (n+1)-fold differences of type-n invariants, and of detour
  sums over families whose resolutions cancel in pairs;
* the published dimensions of the chord-diagram spaces.
"""

from __future__ import annotations

from gen import BraidClosure

# dim A_n for n = 0..6, unframed and framed (Bar-Natan; CDM 2012)
DIM_UNFRAMED = (1, 0, 1, 1, 3, 4, 9)
DIM_FRAMED = (1, 1, 2, 3, 6, 10, 19)


def _positions(b: BraidClosure) -> dict[int, list[tuple[int, bool]]]:
    """Crossing -> its two (time, is_over) passages along the single component."""
    if b.n_components != 1:
        raise ValueError("Gauss order needs a knot")
    pos: dict[int, list[tuple[int, bool]]] = {}
    for t, (k, over) in enumerate(b.passages[0]):
        pos.setdefault(k, []).append((t, over))
    return pos


def polyak_viro_c2(b: BraidClosure) -> int:
    """Sum of eps_i eps_j over pairs met as over_i, under_j, under_i, over_j."""
    pos = _positions(b)
    total = 0
    for i, ((i1, i_over), (i2, _)) in pos.items():
        if not i_over:
            continue
        for j, ((j1, j_over), (j2, _)) in pos.items():
            if not j_over and i1 < j1 < i2 < j2:
                total += b.signs[i] * b.signs[j]
    return total


def interleaved(b: BraidClosure, i: int, j: int) -> bool:
    """Whether the chords of crossings i and j cross in the Gauss diagram."""
    pos = _positions(b)
    (i1, _), (i2, _) = pos[i]
    return sum(i1 < t < i2 for t, _ in pos[j]) == 1


def linking_numbers(b: BraidClosure) -> dict[tuple[int, int], int]:
    """lk(p, q) for component pairs p < q."""
    twice: dict[tuple[int, int], int] = {}
    for k in range(b.n_crossings):
        pair = b.crossing_components(k)
        if pair[0] != pair[1]:
            twice[pair] = twice.get(pair, 0) + b.signs[k]
    n = b.n_components
    return {
        (p, q): twice.get((p, q), 0) // 2 for p in range(n) for q in range(p + 1, n)
    }


def _moments(poly) -> tuple:
    """(sum c_e, sum c_e e, sum c_e e^2) over the terms c_e q^e."""
    items = poly.terms.items()
    return (
        sum(c for _, c in items),
        sum(c * e for e, c in items),
        sum(c * e * e for e, c in items),
    )


def _parity_ok(poly, parity: int) -> bool:
    return all(e % 2 == parity for e in poly.terms)


def check_jones(b: BraidClosure, value) -> bool:
    m0, m1, m2 = _moments(value)
    if b.n_components == 1:
        return (m0, m1, m2) == (1, 0, -6 * polyak_viro_c2(b))
    if b.n_components == 3:
        return m0 == 4 and m1 == 6 * sum(linking_numbers(b).values())
    raise ValueError("jones ops take knots and 3-component links")


def check_conway(b: BraidClosure, value) -> bool:
    if b.n_components == 1:
        return (
            _parity_ok(value, 0)
            and value.coefficient(0) == 1
            and value.coefficient(2) == polyak_viro_c2(b)
        )
    if b.n_components == 3:
        lk = linking_numbers(b)
        a, c, d = lk[0, 1], lk[0, 2], lk[1, 2]
        return (
            _parity_ok(value, 0)
            and value.coefficient(0) == 0
            and value.coefficient(2) == a * c + a * d + c * d
        )
    raise ValueError("conway ops take knots and 3-component links")


def check_c2_pair(b: BraidClosure, i: int, j: int, value) -> bool:
    return value == b.signs[i] * b.signs[j] * interleaved(b, i, j)


def check_zero(value) -> bool:
    return value == 0


def check_conway_link_pair(value) -> bool:
    """2-fold conway difference on a 2-component link: odd powers, no z^1."""
    return _parity_ok(value, 1) and value.coefficient(1) == 0


def check_theorem1(b: BraidClosure, i: int, j: int, result, by_conway: bool) -> bool:
    """lhs == rhs, and the resolution sum matches the c2 weight system."""
    want = int(interleaved(b, i, j))
    if by_conway:
        lhs_ok = result.lhs.coefficient(0) == 0 and result.lhs.coefficient(2) == want
    else:
        lhs_ok = result.lhs == want
    return lhs_ok and result.lhs == result.rhs


def check_dim(n: int, framed: bool, report) -> bool:
    table = DIM_FRAMED if framed else DIM_UNFRAMED
    return report.n == n and report.framed == framed and report.dim == table[n]
