"""Independent oracles used across the test suite.

Every function here recomputes a quantity through a different route than
the package implementation: character orbits instead of closed forms,
orbit walks instead of divisor sums, form reduction, an a-outer scan and
trial division of each (b^2 - D)/4 instead of the sieve over b that
factors them all for the reduced-form enumeration, a dense
Warshall closure instead of up-sets grown by search, subset scans
instead of chain extension along the order relation, cyclotomic minimal
polynomials instead of the order table of the trace census, the
integral basis and exact signs of both embeddings instead of the integer
tests on (2a, 2b), and json's own encoder instead of the CLI's envelope
writer.  The implementations under test must agree with these.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from hilbertmod.quadfield import OmegaKind


# ---------------------------------------------------------------------------
# Character-orbit counting for cyclic groups
# ---------------------------------------------------------------------------

def real_irred_orbits(n: int) -> int:
    """Real irreducibles: orbits of the character indices under j -> -j."""
    seen = set()
    count = 0
    for j in range(n):
        if j in seen:
            continue
        count += 1
        seen.update({j, (-j) % n})
    return count


def complex_type_orbits(n: int) -> int:
    """Complex-type real irreducibles: conjugation orbits of size two."""
    seen = set()
    count = 0
    for j in range(n):
        if j in seen:
            continue
        orbit = {j, (-j) % n}
        seen.update(orbit)
        if len(orbit) == 2:
            count += 1
    return count


def rational_irred_orbits(n: int) -> int:
    """Rational irreducibles: orbits under the full unit group of Z/n."""
    units = [u for u in range(n) if gcd(u, n) == 1] or [0]
    seen = set()
    count = 0
    for j in range(n):
        if j in seen:
            continue
        count += 1
        seen.update(j * u % n for u in units)
    return count


# ---------------------------------------------------------------------------
# Divisor-sum formulas for the local counts
# ---------------------------------------------------------------------------

def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def mult_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    assert gcd(a, n) == 1
    order, cur = 1, a % n
    while cur != 1:
        cur = cur * a % n
        order += 1
    return order


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def rp_formula(n: int, p: int) -> int:
    """Cyclotomic cosets mod the p-regular part: sum of phi(d)/ord_d(p)."""
    n_prime = n
    while n_prime % p == 0:
        n_prime //= p
    total = 0
    for d in divisors(n_prime):
        phi, order = euler_phi(d), mult_order(p, d)
        assert phi % order == 0
        total += phi // order
    return total


def kp_formula(n: int, p: int) -> int:
    """Q_p-irreducibles: the multiplier group factors as (units mod p^a)
    times the Frobenius powers mod m, so orbits multiply: (a+1) levels of
    p-power gcd times the cosets of the p-regular part."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return (a + 1) * rp_formula(n, p)


def local_galois_subgroup(n: int, p: int) -> frozenset:
    """The multiplier subgroup of (Z/n)* acting on Q_p-character orbits.

    With n = p^a * m, p not dividing m, this is every unit t of Z/n whose
    reduction mod m lies in <p>; the reduction mod p^a is unrestricted.
    When p does not divide n the subgroup is <p mod n> itself, whose
    orbits are the p-cosets that count the F_p-irreducibles.
    """
    m = n
    while m % p == 0:
        m //= p
    frobenius_powers = set()  # becomes {0} when m == 1
    cur = p % m
    while cur not in frobenius_powers:
        frobenius_powers.add(cur)
        cur = cur * p % m
    return frozenset(
        t for t in range(n) if gcd(t, n) == 1 and t % m in frobenius_powers
    )


def orbit_partition(n: int, multipliers) -> list[set]:
    """Orbits of Z/n under a multiplier set, with a Burnside sanity check:
    the orbit sizes must partition n."""
    remaining = set(range(n))
    orbits = []
    while remaining:
        x = min(remaining)
        orbit = {x * h % n for h in multipliers}
        assert orbit <= remaining
        orbits.append(orbit)
        remaining -= orbit
    assert sum(len(o) for o in orbits) == n
    return orbits


# ---------------------------------------------------------------------------
# Order closure and chains by brute force
# ---------------------------------------------------------------------------

def closure_pairs(nodes, less) -> set[tuple]:
    """Strict order generated by ``less``, closed on a dense n x n matrix
    by Warshall's triple loop; a relation with a cycle raises ValueError."""
    nodes = tuple(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    closed = [[False] * n for _ in range(n)]
    for a, b in less:
        closed[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if closed[i][k]:
                for j in range(n):
                    if closed[k][j]:
                        closed[i][j] = True
    if any(closed[i][i] for i in range(n)):
        raise ValueError("relation has a cycle; not a strict partial order")
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if closed[i][j]}


def naive_pchains(poset, p: int) -> list[tuple]:
    """All p-chains, accepting a subset when sorting it by predecessor
    count yields consecutively increasing pairs (the relation is closed,
    so consecutive increase is equivalent to being a chain)."""
    out = []
    for sub in itertools.combinations(poset.nodes, p + 1):
        ordered = sorted(sub, key=lambda x: sum(poset.lt(y, x) for y in sub))
        if all(poset.lt(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)):
            out.append(tuple(ordered))
    return sorted(out)


def permutation_pchains(poset, p: int) -> list[tuple]:
    """All p-chains, by searching for an increasing permutation."""
    out = []
    for sub in itertools.combinations(poset.nodes, p + 1):
        for perm in itertools.permutations(sub):
            if all(poset.lt(perm[i], perm[i + 1]) for i in range(len(perm) - 1)):
                out.append(perm)
                break
    return sorted(out)


# ---------------------------------------------------------------------------
# Binary quadratic forms by reduction
# ---------------------------------------------------------------------------

def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Reduce a positive-definite form by translations and the swap."""
    assert a > 0 and c > 0
    D = b * b - 4 * a * c
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            b = r
            c = (b * b - D) // (4 * a)
            continue
        if a == c and b < 0:
            b = -b
            continue
        return (a, b, c)


def reduced_forms_scan(D: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms of discriminant D, sorted, by scanning every
    a <= sqrt(|D|/3) and every b in [-a, a]."""
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return sorted(forms)


def reduced_forms_trial_division(D: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms of discriminant D, sorted, grown from b as in
    the package, but trying every a in [max(b, 1), sqrt(n)] as a divisor of
    each n = (b^2 - D)/4."""
    forms = []
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(n) + 1):
            if n % a == 0 and gcd(a, b, n // a) == 1:
                c = n // a
                forms.append((a, b, c))
                if 0 < b < a < c:
                    forms.append((a, -b, c))
    return sorted(forms)


def class_number_by_reduction(D: int, coeff_bound: int | None = None) -> tuple[int, set]:
    """Enumerate forms with |a|,|b|,|c| bounded, reduce each, count classes."""
    bound = coeff_bound if coeff_bound is not None else -D
    reduced = set()
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < 1 or c > bound:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            reduced.add(reduce_form(a, b, c))
    return len(reduced), reduced


# ---------------------------------------------------------------------------
# Orders of elliptic traces via minimal polynomials of 2*cos(2*pi/m)
# ---------------------------------------------------------------------------
# Polynomials are tuples of coefficients in ascending degree.

def _poly_divexact(f, g):
    """Exact quotient of integer polynomials; remainder must vanish."""
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        coef = f[k + len(g) - 1]
        assert coef % g[-1] == 0, "division is not exact"
        q[k] = coef // g[-1]
        for j, gj in enumerate(g):
            f[k + j] -= q[k] * gj
    assert not any(f), "division left a remainder"
    return q


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple:
    """The m-th cyclotomic polynomial over Z, ascending coefficients."""
    if m < 1:
        raise ValueError("m must be >= 1")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for e in range(1, m):
        if m % e == 0:
            poly = _poly_divexact(poly, cyclotomic(e))
    return tuple(poly)


@lru_cache(maxsize=None)
def cos_angle_minpoly(m: int) -> tuple:
    """Minimal polynomial of 2*cos(2*pi/m) over Q, monic with integer
    coefficients in ascending degree.

    For m >= 3, Phi_m is palindromic of even degree 2k and
    Phi_m(z) / z^k = psi(z + 1/z) for a monic integer psi of degree k;
    psi is recovered with the recursion q_0 = 2, q_1 = x,
    q_j = x*q_{j-1} - q_{j-2} for z^j + z^{-j}.
    """
    if m == 1:
        return (-2, 1)  # x - 2
    if m == 2:
        return (2, 1)   # x + 2
    c = cyclotomic(m)
    k = (len(c) - 1) // 2
    acc = [c[k]]
    q_prev, q_cur = [2], [0, 1]
    for j in range(1, k + 1):
        term = [c[k + j] * t for t in q_cur]
        if len(acc) < len(term):
            acc += [0] * (len(term) - len(acc))
        for idx, t in enumerate(term):
            acc[idx] += t
        shifted = [0] + q_cur  # x * q_j
        nxt = [s - (q_prev[idx] if idx < len(q_prev) else 0) for idx, s in enumerate(shifted)]
        q_prev, q_cur = q_cur, nxt
    return tuple(acc)


def trace_minpoly(t) -> tuple:
    """Monic minimal polynomial of t over Q, ascending coefficients."""
    if t.b == 0:
        return (-t.a, Fraction(1))
    return (t.norm(), -t.trace(), Fraction(1))


def order_by_minpoly(t, max_order: int = 30) -> int:
    """PSL2 order n of an elliptic trace t, searched over n <= max_order.

    t = 2*cos(j*pi/n) with gcd(j, n) = 1 is a root of the minimal
    polynomial of 2*cos(2*pi/2n) for odd j, and of the one for
    2*cos(2*pi/n) for even j (possible only when n is odd).
    """
    p = trace_minpoly(t)
    for n in range(2, max_order + 1):
        if p == cos_angle_minpoly(2 * n):
            return n
        if n % 2 == 1 and p == cos_angle_minpoly(n):
            return n
    raise ValueError(f"{t} matches no 2*cos(j*pi/n) with n <= {max_order}")


# ---------------------------------------------------------------------------
# Integrality and ellipticity by the integral basis and exact signs
# ---------------------------------------------------------------------------

def in_integral_basis(t) -> bool:
    """t = a + b*sqrt(d) is u + v*omega with integers u, v."""
    if t.field.omega_kind is OmegaKind.HALF_ONE_PLUS_SQRT_D:
        # u + v*omega has a = u + v/2, b = v/2: need 2b and a - b integral.
        return (2 * t.b).denominator == 1 and (t.a - t.b).denominator == 1
    return t.a.denominator == 1 and t.b.denominator == 1


def elliptic_by_sign(t) -> bool:
    """-2 < sigma_i(t) < 2 for both embeddings, by the exact sign of
    sigma_i(t) - 2 and sigma_i(t) + 2 (QuadElem.sign: sign analysis and
    one squaring step)."""
    two = t.field.element(2)
    return all((s - two).sign() < 0 < (s + two).sign() for s in (t, t.conjugate()))


# ---------------------------------------------------------------------------
# The canonical JSON envelope by json's own encoder
# ---------------------------------------------------------------------------

def reference_json(payload) -> str:
    """The bytes ``hilbertmod.cli.canonical_json`` must write for ``payload``."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)
