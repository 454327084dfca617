"""Pairs on both sides of the domination boundary: the bench generator's tight
pairs, f = (1 (x) phi_J0) g exactly, moved across it by A -> A - eps (1 +
||A||_F) I.  For seed s, bench/gen.py's ``tight`` draws them from
default_rng(1000 + s) at (2, 2), (3, 2), (3, 3) and (4, 4), in that order.
Near the boundary either answer can be the true one, and the search must
find one: at budget 500 both deciders decide every pair of seeds 0 and 1, in
the same kind, and every object they emit is accepted by the verifier."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import ncslemma as ns
from ncslemma import slemma

GEN_FILE = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
SIZES = [(2, 2), (3, 2), (3, 3), (4, 4)]
BUDGET = 500


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_FILE)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def boundary_pairs(seed, eps):
    """The four (label, f, g, slater tuple) of one seed, in draw order."""
    gen, rng, pairs = load_gen(), np.random.default_rng(1000 + seed), []
    for m, q in SIZES:
        case = gen.tight(rng, m, q, "decide", BUDGET)
        A = case.data["f"].copy()
        shift = eps * (1.0 + np.linalg.norm(A))
        for i in range(m):
            A[i, i] -= shift * np.eye(q)
        pairs.append((f"{m}x{q}", ns.new_quad_poly(A), ns.new_quad_poly(case.data["g"]),
                      ns.new_tuple(case.data["slater"])))
    return pairs


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_pairs_are_decided_and_every_object_verifies(seed, eps):
    for label, f, g, slater in boundary_pairs(seed, eps):
        kinds = set()
        for decider in (ns.decide, ns.decide_hereditary):
            decision = decider(f, g, slater, budget=BUDGET)
            kinds.add(decision.kind)
            if decision.kind == "certificate":
                assert ns.verify_certificate(decision.certificate, f, g), label
            else:
                assert decision.kind == "counterexample", (label, decision.diagnostics)
                assert ns.verify_counterexample(decision.counterexample, f, g), label
            d = decision.diagnostics
            assert d["certify_evals"] + d["separator_evals"] <= BUDGET
            # weak duality, as computed: certify's best value is below every separator bound
            e = slemma._scaled(f, g)[2]
            assert d["certify_best"] <= d["certify_bound"] + math.ldexp(1e-12, e), label
        assert len(kinds) == 1, label
