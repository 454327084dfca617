"""Shared random-instance generators for the test suite."""

import numpy as np

import ncslemma as ns
from ncslemma.slemma import _map_coefficients


def random_sym(rng, d, scale=1.0):
    raw = rng.standard_normal((d, d)) * scale
    return (raw + raw.T) / 2.0


def random_poly(rng, m, q, scale=1.0):
    """Random symmetric quadratic polynomial: blocks with A_ij = A_ji^T."""
    raw = rng.standard_normal((m, m, q, q)) * scale
    blocks = (raw + raw.transpose(1, 0, 3, 2)) / 2.0
    return ns.new_quad_poly(blocks)


def random_psd_poly(rng, m, q, rank=None):
    """Polynomial whose coefficient matrix is a planted PSD Gram matrix."""
    d = m * q
    rank = rank or d
    V = rng.standard_normal((rank, d))
    calA = V.T @ V
    from ncslemma.poly import blocks_from_matrix

    return ns.new_quad_poly(blocks_from_matrix(calA, m, q))


def random_sym_tuple(rng, m, n, scale=1.0):
    raw = rng.standard_normal((m, n, n)) * scale
    return ns.new_tuple((raw + raw.transpose(0, 2, 1)) / 2.0, kind="symmetric")


def random_gen_tuple(rng, m, n, scale=1.0):
    return ns.new_tuple(rng.standard_normal((m, n, n)) * scale, kind="general")


def poly_from_matrix(mat, m, q):
    from ncslemma.poly import blocks_from_matrix

    return ns.new_quad_poly(blocks_from_matrix(np.asarray(mat, dtype=float), m, q))


def slater_poly(rng, m, q):
    """(g, x): a random g plus c (x x^T (x) I_q), with c making g(x) >= I at a unit x.

    The 1x1 tuple x is then a Slater point for decide and decide_hereditary.
    """
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    blocks = random_poly(rng, m, q).blocks
    at_x = np.einsum("ijab,i,j->ab", blocks, x, x)
    c = max(0.0, 1.0 - np.linalg.eigvalsh(at_x)[0])
    return ns.new_quad_poly(blocks + c * np.einsum("i,j,ab->ijab", x, x, np.eye(q))), x


def planted_certificate_instance(rng, m, q, noise_margin=0.1, g=None):
    """(f, g, J0): f's coefficient matrix is (1 (x) phi_J0) B plus PSD noise.

    The noise gets a definite margin so the planted map is strictly feasible.
    ``g`` is drawn at random unless given.
    """
    if g is None:
        g = random_poly(rng, m, q)
    J0 = ns.spectraplex_project(random_sym(rng, q * q))
    L = _map_coefficients(J0, g.blocks, q)
    d = m * q
    W = rng.standard_normal((d, 2 * d))
    noise = W @ W.T / (2 * d)
    noise += noise_margin * (1.0 + np.linalg.norm(L)) * np.eye(d)
    f = poly_from_matrix(L + noise, m, q)
    return f, g, J0


def refutable_instance(rng, m, q, margin=0.5, g=None, b_margin=0.05):
    """(f, g, M*): a planted strict separator M* certifies non-domination.

    M* is kept full rank, and g (drawn at random unless given) gets s I_q
    added to each diagonal block.  That adds s (I_q (x) P) to
    T = sum_ij B_ij (x) M*_ij, with P = sum_i M*_ii positive definite, so
    s = (b_margin - lambda_min(T)) / lambda_min(P) (or 0 when that is
    negative) gives lambda_min(T) >= b_margin, up to roundoff.  f is then
    tilted so <A, M*> is negative with a fixed margin.
    """
    d = m * q
    Mstar = 0.7 * ns.spectraplex_project(random_sym(rng, d)) + 0.3 * np.eye(d) / d
    blocks = (random_poly(rng, m, q) if g is None else g).blocks.copy()
    low = np.linalg.eigvalsh(_b_term(Mstar, ns.new_quad_poly(blocks), q))[0]
    P = np.einsum("iaib->ab", Mstar.reshape(m, q, m, q))
    shift = max(0.0, (b_margin - low) / np.linalg.eigvalsh(P)[0])
    blocks[np.arange(m), np.arange(m)] += shift * np.eye(q)
    g = ns.new_quad_poly(blocks)
    A0 = random_sym(rng, d)
    inner = float(np.sum(A0 * Mstar))
    delta = margin * (1.0 + np.linalg.norm(A0))
    calA = A0 - ((inner + delta) / float(np.sum(Mstar * Mstar))) * Mstar
    f = poly_from_matrix(calA, m, q)
    return f, g, Mstar


def scale_gap_instance(rng, m, q, t=None):
    """(f, g, x): f = t g with t != 1/q, a Slater point x of g.

    Dominated with phi = t * id, a map outside the trace-one slice the
    certify search explores.  t is drawn from [0.2, 0.6] / q unless given.
    """
    g, x = slater_poly(rng, m, q)
    t = rng.uniform(0.2, 0.6) / q if t is None else t
    return ns.new_quad_poly(t * g.blocks), g, x


def _b_term(M, g, q):
    m = g.m
    M4 = M.reshape(m, q, m, q).transpose(0, 2, 1, 3)
    return np.einsum("ijab,ijcd->acbd", g.blocks, M4).reshape(q * q, q * q)


def random_scalar_pair(rng, m=2):
    """Random scalar S-lemma instance with a valid Slater point."""
    A = random_sym(rng, m)
    B = random_sym(rng, m)
    # ensure B has a comfortably positive direction and record it
    w, V = np.linalg.eigh(B)
    if w[-1] < 0.5:
        B = B + (0.5 - w[-1]) * np.eye(m)
        w, V = np.linalg.eigh(B)
    slater = V[:, -1]
    f = ns.new_scalar_quad(A)
    g = ns.new_scalar_quad(B)
    return f, g, slater


def planted_certificate(f, g, J0):
    """The certificate of a planted map J0 for f and g of the same (m, q), as decide emits one."""
    residual = ns.coefficient_matrix(f) - _map_coefficients(J0, g.blocks, g.q)
    return ns.CPCertificate(J=ns.new_choi(J0, g.q, g.q), residual=residual,
                            residual_lambda_min=float(np.linalg.eigvalsh(residual)[0]))


def decided_both_ways(f, g, slater, budget, planted=()):
    """The kind decide and decide_hereditary agree on, checked against independent references.

    Every object either emits, and every ``planted`` object (a certificate, or a counterexample
    built from a planted separator), must pass verify_*, and no certificate may stand beside a
    counterexample: the two answers exclude each other.
    """
    decisions = [ns.decide(f, g, slater, budget=budget),
                 ns.decide_hereditary(f, g, slater, budget=budget)]
    objects = [d.certificate or d.counterexample for d in decisions] + list(planted)
    objects = [obj for obj in objects if obj is not None]
    certificates = [obj for obj in objects if isinstance(obj, ns.CPCertificate)]
    counterexamples = [obj for obj in objects if not isinstance(obj, ns.CPCertificate)]
    assert all(ns.verify_certificate(c, f, g) for c in certificates)
    assert all(ns.verify_counterexample(c, f, g) for c in counterexamples)
    assert not (certificates and counterexamples)
    assert decisions[0].kind == decisions[1].kind
    return decisions[0].kind
