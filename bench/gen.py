"""Seeded instance generators for the benchmark; every case carries its ground truth.

The generators are the benchmark's own and share no code with the test
suite.  Each planted property holds by construction with a definite margin:

* g always has a 1x1 Slater point x, planted by adding c * x x^T (x) I_q to
  its blocks, which raises g(x) by c ||x||^4 I_q;
* a dominated pair has an explicit CP map phi_J0 with A - (1 (x) phi_J0) B
  PSD (loose: with a margin; tight: exactly zero; scale gap: phi = t * id);
* a refutable pair has a planted trace-one M* with sum B_ij (x) M*_ij
  positive definite and <A, M*> < 0, which refutes both the projected and
  the hereditary condition.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DOMINATED = "dominated"
REFUTABLE = "refutable"


@dataclass
class Case:
    """One decision the benchmark asks for, with the answer it must accept.

    ``op`` names the public entry point or CLI command; ``truth`` is the planted answer
    (dominated / refutable for slemma and scalar pairs, feasible /
    infeasible for homogenization, psd / not-psd for positivity).
    """

    op: str
    label: str
    truth: str
    data: dict = field(repr=False)
    args: tuple = field(default=(), repr=False)  # library objects, built at set-up


def _sym(rng, d):
    raw = rng.standard_normal((d, d))
    return (raw + raw.T) / 2.0


def _raw_blocks(rng, m, q):
    raw = rng.standard_normal((m, m, q, q))
    return (raw + raw.transpose(1, 0, 3, 2)) / 2.0


def _blocks(mat, m, q):
    return mat.reshape(m, q, m, q).transpose(0, 2, 1, 3).copy()


def _matrix(blocks):
    m, q = blocks.shape[0], blocks.shape[2]
    return blocks.transpose(0, 2, 1, 3).reshape(m * q, m * q).copy()


def _apply_choi(J, blocks):
    """(1_m (x) phi_J) on coefficient blocks: out[i, j] = phi_J(B_ij)."""
    q = blocks.shape[2]
    return np.einsum("iajb,mnab->mnij", J.reshape(q, q, q, q), blocks)


def _b_term(M, blocks):
    """sum_ij B_ij (x) M_ij for an mq x mq matrix M."""
    m, q = blocks.shape[0], blocks.shape[2]
    M4 = M.reshape(m, q, m, q).transpose(0, 2, 1, 3)
    return np.einsum("ijab,ijcd->acbd", blocks, M4).reshape(q * q, q * q)


def _spectraplex_point(rng, d):
    """A generic (full-rank) trace-one PSD matrix."""
    W = rng.standard_normal((d, d))
    J = W @ W.T
    return J / np.trace(J)


def _slater_g(rng, m, q, extra=None):
    """Random g blocks with a planted 1x1 Slater point; returns (blocks, x).

    ``extra(blocks, x)`` may demand a larger multiple c of x x^T (x) I_q.
    """
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    B = _raw_blocks(rng, m, q)
    lift = np.einsum("i,j,ab->ijab", x, x, np.eye(q))
    g_at_x = np.einsum("ijab,i,j->ab", B, x, x)
    c = max(0.0, 1.0 - np.linalg.eigvalsh(g_at_x)[0])
    if extra is not None:
        c = max(c, extra(B, lift))
    return B + c * lift, x


def _slemma_case(op, label, truth, f_blocks, g_blocks, x, budget):
    m = len(x)
    return Case(op, label, truth, {
        "f": f_blocks, "g": g_blocks, "slater": x.reshape(m, 1, 1), "slater_kind": "symmetric",
        "budget": budget,
    })


def loose(rng, m, q, op, budget, margin=0.1):
    """Planted trace-one certificate with a PSD residual of definite margin.

    The residual at J0 is at least margin * (1 + ||L||_F + ||B||_F) I, with
    L = (1 (x) phi_J0) B the planted part.
    """
    B, x = _slater_g(rng, m, q)
    J0 = _spectraplex_point(rng, q * q)
    L = _matrix(_apply_choi(J0, B))
    d = m * q
    W = rng.standard_normal((d, 2 * d))
    scale = 1.0 + np.linalg.norm(L) + np.linalg.norm(B)
    noise = W @ W.T / (2 * d) + margin * scale * np.eye(d)
    return _slemma_case(op, f"loose-{m}x{q}", DOMINATED, _blocks(L + noise, m, q), B, x, budget)


def tight(rng, m, q, op, budget):
    """f = (1 (x) phi_J0) g exactly, J0 a generic spectraplex point."""
    B, x = _slater_g(rng, m, q)
    J0 = _spectraplex_point(rng, q * q)
    return _slemma_case(op, f"tight-{m}x{q}", DOMINATED, _apply_choi(J0, B), B, x, budget)


def scale_gap(rng, m, q, op, budget):
    """f = t g with t != 1/q: dominated with phi = t * id, outside the trace-one slice."""
    B, x = _slater_g(rng, m, q)
    t = rng.uniform(0.2, 0.6) / q
    return _slemma_case(op, f"scale-gap-{m}x{q}", DOMINATED, t * B, B, x, budget)


def refutable(rng, m, q, op, budget):
    """Planted strict separator M*: the b-term is PD and <A, M*> is negative."""
    d = m * q
    Mstar = _spectraplex_point(rng, d)

    def separator_margin(B, lift):
        # sum (B + c lift)_ij (x) M*_ij = T0 + c K with K positive definite
        T0, K = _b_term(Mstar, B), _b_term(Mstar, lift)
        kappa = np.linalg.eigvalsh(K)[0]
        return max(0.0, (0.5 - np.linalg.eigvalsh(T0)[0]) / kappa)

    B, x = _slater_g(rng, m, q, extra=separator_margin)
    A0 = _sym(rng, d)
    delta = 0.5 * (1.0 + np.linalg.norm(A0))
    calA = A0 - ((np.sum(A0 * Mstar) + delta) / np.sum(Mstar * Mstar)) * Mstar
    return _slemma_case(op, f"refutable-{m}x{q}", REFUTABLE, _blocks(calA, m, q), B, x, budget)


def fixture(root, name, op, truth, budget):
    """A slemma instance from the repository's fixture files."""
    doc = json.loads((Path(root) / "tests" / "fixtures" / f"{name}.json").read_text())
    f = np.asarray(doc["f"]["blocks"], dtype=float)
    g = np.asarray(doc["g"]["blocks"], dtype=float)
    slater = np.asarray(doc["slater"]["mats"], dtype=float)
    return Case(op, f"fixture-{name}", truth, {
        "f": f, "g": g, "slater": slater, "slater_kind": doc["slater"].get("kind", "symmetric"),
        "budget": budget,
    })


def scalar_pair(rng, m, truth, budget):
    """Scalar S-lemma pair: planted multiplier, or planted violating vector x*."""
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    B = _sym(rng, m)
    B += max(0.0, 1.0 - x @ B @ x) * np.outer(x, x)  # Slater: x^T B x >= 1
    if truth == DOMINATED:
        W = rng.standard_normal((m, m))
        A = rng.uniform(0.5, 2.0) * B + W @ W.T / m + 0.1 * np.eye(m)
    else:
        A = _sym(rng, m)
        A -= (x @ A @ x + 0.5 * (1.0 + np.linalg.norm(A))) * np.outer(x, x)
    return Case("scalar_slemma", f"scalar-{truth}-{m}", truth,
                {"A": A, "B": B, "slater": x, "budget": budget})


def homogenization(rng, m, q, feasible, budget):
    """Affine f with a planted PSD homogenization, or with an indefinite constant.

    The feasible case plants a coefficient matrix with a PSD margin of 0.1
    and non-symmetric mixed blocks H_i0; the skew search, which starts from
    H_i0 = A_i / 2, finds a PSD homogenization within a few evaluations
    (with a thinner margin it takes a draw-dependent 1-50, which moves the
    workload's p50).  An indefinite constant A_0 is the top-left block of
    every homogenization, so none is PSD and the search runs until its
    supergradient vanishes or the budget is spent.
    """
    d = (m + 1) * q
    W = rng.standard_normal((d, d))
    C = W @ W.T / d + 0.1 * np.eye(d)
    A0 = C[:q, :q].copy()
    H = np.stack([C[(i + 1) * q:(i + 2) * q, :q] for i in range(m)])
    linear = H + H.transpose(0, 2, 1)
    quad = _blocks(C[q:, q:], m, q)
    if not feasible:
        v = rng.standard_normal(q)
        v /= np.linalg.norm(v)
        A0 -= (v @ A0 @ v + 0.5) * np.outer(v, v)
    truth = "feasible" if feasible else "infeasible"
    return Case("homogenize", f"homogenize-{truth}-{m}x{q}", truth,
                {"quad": quad, "linear": linear, "constant": A0, "budget": budget})


def positivity(rng, m, q, psd):
    """Planted PSD coefficient matrix (low rank), or one with a negative direction."""
    d = m * q
    W = rng.standard_normal((d, max(1, d - 1)))
    C = W @ W.T / d
    if not psd:
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        C -= (v @ C @ v + 0.5) * np.outer(v, v)
    truth = "psd" if psd else "not-psd"
    return Case("positivity", f"positivity-{truth}-{m}x{q}", truth, {"f": _blocks(C, m, q)})


def cli_case(rng, m, q):
    """Easy instance run through the CLI: slemma, verify, hereditary, positivity.

    The residual margin is wide enough that any trace-one map, the search's
    first point included, certifies, so every draw costs the search alike.
    """
    case = loose(rng, m, q, "cli", None, margin=1.0)
    W = rng.standard_normal((m * q, m * q))
    case.data["psd"] = _blocks(W @ W.T / (m * q), m, q)
    case.label = f"cli-{m}x{q}"
    return case
