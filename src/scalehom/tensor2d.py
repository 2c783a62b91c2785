"""Exact 2D tensor algebra for the scale-by-scale homogenization calculus.

Conventions
-----------
Tangent vectors carry upper component indices, cotangent vectors lower ones;
both are stored as plain ``(2,)`` float arrays (the Euclidean pairing makes
the component arrays identical, so raising or lowering an index is the
identity on them).  An
endomorphism of cotangent space (a Jacobian-like object ``F``) is stored as
``F[i, j] = F^i_j`` with row = field component, column = derivative
direction, i.e. ``(grad phi)[i, j] = d_j phi^i``.  Observables ``G`` dual to
such Jacobians are endomorphisms of tangent space with the same array layout;
the duality pairing is ``sum_ij G[i,j] F[j,i] = tr(G F)``.

Third-order observables live in (cotangent) x (tangent) x (tangent) and are
stored as ``T[a, b, c]`` = coefficient of ``e^a (x) e_b (x) e_c``; they pair
with a Hessian array ``H[a, b, c] = d_b d_c dphi^a`` by full contraction.

The module exposes the two universal quadratic-variation forms of the driver
fields: ``diamond`` (covariance form of the gradient driver per unit scale
time) and ``bullet`` (covariance form of the Hessian driver).  ``diamond`` is
evaluated through its closed form

    G <> G' = 1/4 G:G' - 1/8 ((tr G)(tr G') - (tr J^T G)(tr J^T G')),

``bullet`` through its diagonal Gram matrix diag(1/2,1/2,1/2,1/2,0,0) in the
rotation-adapted basis ``TRI_BASIS`` combined with an exact (dyadic-rational)
change of basis.  Everything here is a pure function of value types.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

J = np.array([[0.0, -1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)

# Rotation-adapted basis of the observable space dual to trace-split
# Jacobians: trace-free symmetric pair, the rotation generator, the identity.
ENDO_BASIS = np.array([
    [[1.0, 0.0], [0.0, -1.0]],   # E1: trace-free symmetric, diagonal
    [[0.0, 1.0], [1.0, 0.0]],    # E2: trace-free symmetric, off-diagonal
    [[0.0, -1.0], [1.0, 0.0]],   # E3: skew (equals J)
    [[1.0, 0.0], [0.0, 1.0]],    # E4: isotropic (null for diamond)
])

DIAMOND_DIAG = np.array([0.5, 0.5, 1.0, 0.0])   # diamond values on ENDO_BASIS


def _tri(*entries) -> np.ndarray:
    t = np.zeros((2, 2, 2))
    for (a, b, c, v) in entries:
        t[a, b, c] += v
    return t


# Rotation-adapted basis of the symmetric (in the last two slots) third-order
# observable space.  Elements 1-4 carry bullet weight 1/2 each, 5-6 are null.
TRI_BASIS = np.array([
    _tri((0, 0, 0, -1), (1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1)),
    _tri((1, 1, 1, -1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1)),
    _tri((0, 0, 0, 1), (0, 1, 1, 1)),
    _tri((1, 1, 1, 1), (1, 0, 0, 1)),
    _tri((0, 0, 0, 2), (1, 0, 1, 1), (1, 1, 0, 1)),
    _tri((1, 1, 1, 2), (0, 1, 0, 1), (0, 0, 1, 1)),
])

# Auxiliary combinations tied to the gradient of the rotation generator; they
# satisfy TRI_AUX7 = TRI_BASIS[4] - 2*TRI_BASIS[2] and the mirrored relation,
# and bullet(TRI_AUX7) + bullet(TRI_AUX8) = 4.
TRI_AUX7 = _tri((0, 1, 1, -2), (1, 0, 1, 1), (1, 1, 0, 1))
TRI_AUX8 = _tri((1, 0, 0, -2), (0, 1, 0, 1), (0, 0, 1, 1))

BULLET_DIAG = np.array([0.5, 0.5, 0.5, 0.5, 0.0, 0.0])

#: canonical coordinates of a symmetric third-order observable, and the order
#: in which the driver 12-vector holds the Hessian components: (c, a, b) with
#: a <= b, cotangent slot major
HESS_SLOTS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1))


def _exact_inverse(cols: list[list[int]]) -> np.ndarray:
    """Invert a small integer matrix exactly via Fraction elimination."""
    n = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    out = np.array([[float(m[i][n + j]) for j in range(n)] for i in range(n)])
    return out


def _canon_coords(t: np.ndarray) -> np.ndarray:
    """Canonical 6-vector of (batched) symmetric third-order observables."""
    return np.stack([t[..., a, b, c] for (a, b, c) in HESS_SLOTS], axis=-1)


# coefficients in TRI_BASIS from canonical coordinates (exact dyadic entries)
_EXPAND = _exact_inverse([[int(t[s]) for s in HESS_SLOTS] for t in TRI_BASIS])

# bullet as a quadratic form directly on canonical coordinates
_BULLET_GRAM6 = _EXPAND.T @ np.diag(BULLET_DIAG) @ _EXPAND

# Frobenius weights of the canonical coordinates (off-diagonal slots count twice)
_FROB_W = np.sqrt(np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0]))

#: sharp constant of bullet relative to the squared Frobenius norm
BULLET_OPNORM = float(np.linalg.eigvalsh(
    _BULLET_GRAM6 / _FROB_W[:, None] / _FROB_W[None, :]).max())


def det(f: np.ndarray) -> np.ndarray:
    """Determinant of (batched) 2x2 arrays."""
    f = np.asarray(f)
    return f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]


def adjugate(f: np.ndarray) -> np.ndarray:
    """Adjugate adj(F) with F adj(F) = det(F) id; linear in F in dimension 2."""
    f = np.asarray(f)
    out = np.empty_like(f, dtype=float)
    out[..., 0, 0] = f[..., 1, 1]
    out[..., 0, 1] = -f[..., 0, 1]
    out[..., 1, 0] = -f[..., 1, 0]
    out[..., 1, 1] = f[..., 0, 0]
    return out


def frobenius(f: np.ndarray) -> np.ndarray:
    """Frobenius norm of (batched) 2x2 arrays."""
    f = np.asarray(f)
    return np.sqrt(np.sum(f * f, axis=(-2, -1)))


def diamond(g: np.ndarray, g2: np.ndarray | None = None) -> np.ndarray:
    """Quadratic-variation form of the gradient driver (polarized).

    Closed form 1/4 G:G' - 1/8 ((tr G)(tr G') - (tr J^T G)(tr J^T G')); it is
    symmetric, positive semi-definite, vanishes on the isotropic direction,
    and is invariant under conjugation by rotations and under transposition.
    Accepts arrays of shape (..., 2, 2).
    """
    g = np.asarray(g, dtype=float)
    h = g if g2 is None else np.asarray(g2, dtype=float)
    dot = np.sum(g * h, axis=(-2, -1))
    trg = g[..., 0, 0] + g[..., 1, 1]
    trh = h[..., 0, 0] + h[..., 1, 1]
    # tr(J^T G) = G[1,0] - G[0,1]
    twg = g[..., 1, 0] - g[..., 0, 1]
    twh = h[..., 1, 0] - h[..., 0, 1]
    return 0.25 * dot - 0.125 * (trg * trh - twg * twh)


def sym_last_two(t: np.ndarray) -> np.ndarray:
    """Symmetrize a (batched) third-order observable in its last two slots."""
    return 0.5 * (t + np.swapaxes(t, -2, -1))


def bullet(t: np.ndarray, t2: np.ndarray | None = None) -> np.ndarray:
    """Quadratic-variation form of the Hessian driver (polarized).

    Diagonal diag(1/2,1/2,1/2,1/2,0,0) in ``TRI_BASIS``; only the part
    symmetric in the last two slots matters (inputs are symmetrized, matching
    the symmetry of second derivatives they pair with).  Accepts arrays of
    shape (..., 2, 2, 2).
    """
    s = _canon_coords(sym_last_two(np.asarray(t, dtype=float)))
    s2 = s if t2 is None else _canon_coords(sym_last_two(np.asarray(t2, dtype=float)))
    return np.einsum('...i,ij,...j->...', s, _BULLET_GRAM6, s2)


def contract_identities(rng: np.random.Generator, n_samples: int = 10_000) -> dict[str, float]:
    """Check the contraction identities of the two forms on random inputs.

    For random endomorphisms G, cotangent vectors xi and tangent vectors xdot
    the following hold exactly; the report maps each identity to the largest
    absolute deviation observed over ``n_samples`` random draws:

    * ``sum_ij  (G e^i (x) e_j) <> (G e^i (x) e_j) = |G|^2 / 2``
    * ``sum_i   (e^i (x) xdot) <> (e^i (x) xdot) = |xdot|^2 / 2``
    * ``(xdot* (x) xdot) <> (xdot* (x) xdot) = |xdot|^4 / 8``
    * ``sum_i   (xi (x) e_i) <> (xi (x) e_i) = |xi|^2 / 2``
    * ``sum_ij  (e^i (x) e_j (x) xdot) . (e^i (x) e_j (x) xdot) = |xdot|^2 / 2``
    * the determinant is harmonic for both forms (the alternating
      contractions vanish), which keeps determinants of stochastic
      exponentials drift-free.
    """
    g = rng.standard_normal((n_samples, 2, 2))
    xd = rng.standard_normal((n_samples, 2))
    xi = rng.standard_normal((n_samples, 2))

    report: dict[str, float] = {}
    basis_pairs = [(i, j) for i in range(2) for j in range(2)]

    # sum_ij diamond(G e^i x e_j): composition G(e^i x e_j) = e^i x (G e_j)
    acc = np.zeros(n_samples)
    for (i, jj) in basis_pairs:
        obs = np.einsum('n...b,a->n...ba', g[:, :, jj], IDENTITY[i])  # outer(G e_j, e^i)
        acc += diamond(obs)
    report["grad_frobenius_half"] = float(np.max(np.abs(acc - 0.5 * frobenius(g) ** 2)))

    acc = np.zeros(n_samples)
    for i in range(2):
        acc += diamond(np.einsum('nb,a->nba', xd, IDENTITY[i]))
    report["component_gradient_half"] = float(np.max(np.abs(acc - 0.5 * np.sum(xd * xd, axis=1))))

    obs = np.einsum('nb,na->nba', xd, xd)
    report["rank_one_eighth"] = float(np.max(np.abs(
        diamond(obs) - 0.125 * np.sum(xd * xd, axis=1) ** 2)))

    acc = np.zeros(n_samples)
    for i in range(2):
        acc += diamond(np.einsum('b,na->nba', IDENTITY[i], xi))
    report["direction_sum_half"] = float(np.max(np.abs(acc - 0.5 * np.sum(xi * xi, axis=1))))

    acc = np.zeros(n_samples)
    for (i, jj) in basis_pairs:
        tri = np.einsum('a,b,nc->nabc', IDENTITY[i], IDENTITY[jj], xd)
        acc += bullet(tri)
    report["hessian_isotropy_half"] = float(np.max(np.abs(acc - 0.5 * np.sum(xd * xd, axis=1))))

    # determinant harmonicity: alternating contraction of diamond with G-composed pairs
    def comp(col, row):
        return np.einsum('n...b,a->n...ba', g[:, :, col], IDENTITY[row])

    alt = (diamond(comp(0, 0), comp(1, 1)) - diamond(comp(1, 0), comp(0, 1)))
    report["det_harmonic_diamond"] = float(np.max(np.abs(alt)))

    def trid(row, col):
        return np.einsum('a,b,nc->nabc', IDENTITY[row], IDENTITY[col], xd)

    alt = bullet(trid(0, 0), trid(1, 1)) - bullet(trid(0, 1), trid(1, 0))
    report["det_harmonic_bullet"] = float(np.max(np.abs(alt)))

    report["aux_pair_total"] = abs(float(bullet(TRI_AUX7) + bullet(TRI_AUX8)) - 4.0)
    report["max_abs_deviation"] = max(report.values())
    return report
