"""A search forms only the points it evaluates.

The ascent starts at its given point and projects a step only when the search
goes on past it; these tests pin that it visits the points, and returns the
results, of the loop that projected every step as it was taken, and that a
decision spends no eigensolve whose result it does not read.  The
domination search's Douglas-Rachford state is formed only once its first
candidates fail.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import ncslemma as ns
from ncslemma import linalg, serialize
from ncslemma.errors import InvalidInput
from ncslemma.linalg import STAGE_LEN, _spectraplex_project, fro

from helpers import planted_certificate_instance, random_sym, slater_poly
from test_counterexample_support import planted_refutation


def nested_ascent(x0, budget, project=None, target=None):
    """The ascent as it ran when every step was projected as it was taken.

    A generator driven by ``send`` alone: each ``send`` takes the output for
    the last point and gives the next one, projected at once.
    """
    if project is None:
        project = lambda x: x
    x = project(np.array(x0, dtype=float))
    best_x, best_v, evals = None, -np.inf, 0
    s, stop = None, max(1, budget // 4)
    while True:
        k = 0
        while evals < stop:
            v, G = yield x
            norm = fro(G)
            if not (math.isfinite(v) and math.isfinite(norm)):
                raise InvalidInput("not finite")
            evals += 1
            if v > best_v:
                best_v, best_x = v, x.copy()
                if target is not None and best_v >= target:
                    return best_x, best_v
            if norm < 1e-15:
                return best_x, best_v
            k += 1
            if s is None:
                d = math.sqrt(k) * norm
                step = 1.0 / d if d < math.inf else 1.0 / math.sqrt(k) / norm
            else:
                step = s
            x = project(x + step * G)
        if s is None:
            s, x = 1.0, best_x.copy()
        elif best_v < stage_base + 0.01 * s:
            s *= 0.5
            x = best_x.copy()
        if evals >= budget or s <= 1e-14:
            return best_x, best_v
        stage_base, stop = best_v, min(budget, evals + STAGE_LEN)


def run_nested(oracle, search):
    """Drive a nested_ascent: (best_x, best_value, points evaluated)."""
    points, out = [], None
    while True:
        try:
            x = search.send(out)
        except StopIteration as done:
            return (*done.value, points)
        points.append(x.copy())
        out = oracle(x)


def run_flat(oracle, search):
    """Drive an _ascent through supergradient_ascent: (best_x, best_value, points evaluated)."""
    points = []

    def recording(x):
        points.append(x.copy())
        return oracle(x)

    best_x, best_v, evals = linalg.supergradient_ascent(recording, search)
    assert evals == len(points)
    return best_x, best_v, points


def spectraplex_oracle(rng, d, pieces=5):
    """min_k <C_k, X>: concave, with supergradient C_k at a minimizing k."""
    C = [random_sym(rng, d) for _ in range(pieces)]

    def oracle(X):
        values = [float(np.sum(c * X)) for c in C]
        k = int(np.argmin(values))
        return values[k], C[k]

    return oracle


def unconstrained_oracle(rng, n, pieces=5):
    """min_k (a_k . x + b_k) - |x|^2 / 2, with supergradient a_k - x."""
    a, b = rng.standard_normal((pieces, n)), rng.standard_normal(pieces)

    def oracle(x):
        values = a @ x + b
        k = int(np.argmin(values))
        return float(values[k] - 0.5 * x @ x), a[k] - x

    return oracle


def target_for(values):
    """A target the search reaches midway: its best value after half its evaluations."""
    return max(values[: max(1, len(values) // 2)])


def assert_same_run(old, new):
    (x_old, v_old, pts_old), (x_new, v_new, pts_new) = old, new
    assert len(pts_old) == len(pts_new)
    for a, b in zip(pts_old, pts_new):
        assert np.array_equal(a, b)
    assert np.array_equal(x_old, x_new)
    assert v_old == v_new


def test_spectral_search_starts_at_the_projected_center():
    for d in range(1, 301):
        x = next(linalg.spectral_search(d, 10))
        want = _spectraplex_project(np.eye(d) / d)
        assert x.tobytes() == want.tobytes(), d  # bit for bit, signs of zeros included


@pytest.mark.parametrize("budget", [1, 4, 37, 500])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("with_target", [False, True])
def test_flat_ascent_visits_the_nested_ascents_points_on_the_spectraplex(budget, seed,
                                                                         with_target):
    d = (3, 4, 6)[seed]
    oracle = spectraplex_oracle(np.random.default_rng(seed), d)
    target = None
    if with_target:
        values = [oracle(x)[0] for x in run_nested(oracle, nested_ascent(
            np.eye(d) / d, budget, _spectraplex_project))[2]]
        target = target_for(values)
    old = run_nested(oracle, nested_ascent(np.eye(d) / d, budget, _spectraplex_project, target))
    new = run_flat(oracle, linalg.spectral_search(d, budget, target))
    assert_same_run(old, new)


@pytest.mark.parametrize("budget", [1, 4, 37, 500])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("with_target", [False, True])
def test_flat_ascent_visits_the_nested_ascents_points_unconstrained(budget, seed, with_target):
    rng = np.random.default_rng(10 + seed)
    n = 2 + seed
    oracle, x0 = unconstrained_oracle(rng, n), rng.standard_normal(n)
    target = None
    if with_target:
        values = [oracle(x)[0] for x in run_nested(oracle, nested_ascent(x0, budget))[2]]
        target = target_for(values)
    old = run_nested(oracle, nested_ascent(x0, budget, target=target))
    new = run_flat(oracle, linalg._ascent(x0, budget, target=target))
    assert_same_run(old, new)


def test_each_send_gives_the_next_point_or_ends_an_ascent():
    # next() gives the first point only; each send takes the output for the last point and
    # gives the next one, or ends the search
    oracle = spectraplex_oracle(np.random.default_rng(5), 3)
    search = linalg.spectral_search(3, 37)
    x = next(search)
    for _ in range(37):
        try:
            x = search.send(oracle(x))
        except StopIteration:
            break
        assert x.shape == (3, 3)
    else:
        pytest.fail("the search outlived its budget")


# The name the fixture gives a bottom-eigenpair solve of the search oracles: dsyevr from
# SELECTIVE_MIN_SIDE on where numpy's LAPACK exports it, the full eigh otherwise.
SELECTIVE = "dsyevr" if linalg._dsyevr is not None else "eigh_lo"


@pytest.fixture
def counts(monkeypatch):
    """Eigensolves (every LAPACK symmetric eigensolver numpy and the library call: numpy's
    gufuncs and the selective eigensolver dsyevr) and spectraplex projections, counted once
    reset to zero."""
    tally = {"eig": [], "projections": 0}
    for name in ("eigh_lo", "eigh_up", "eigvalsh_lo", "eigvalsh_up"):
        fn = getattr(_umath_linalg, name)
        monkeypatch.setattr(
            _umath_linalg, name,
            lambda a, *args, _fn=fn, _name=name, **kw: tally["eig"].append(
                (_name, np.shape(a)[-1])) or _fn(a, *args, **kw))
    selective = linalg._dsyevr
    if selective is not None:  # its fifth argument is the side
        monkeypatch.setattr(linalg, "_dsyevr", lambda *args: tally["eig"].append(
            ("dsyevr", args[4])) or selective(*args))
    core = linalg._spectraplex_project

    def projection(S):
        tally["projections"] += 1
        return core(S)

    monkeypatch.setattr(linalg, "_spectraplex_project", projection)
    return tally


def test_a_refutation_at_the_separators_first_point_takes_six_eigensolves(counts):
    f, g, _ = planted_refutation(np.random.default_rng(0), 6, 8)
    slater = np.zeros(6)
    slater[2] = 1.0  # g's block (2, 2) is positive definite
    counts["eig"].clear()
    decision = ns.decide(f, g, ns.new_tuple(slater.reshape(6, 1, 1)))
    assert decision.kind == "counterexample"
    assert decision.diagnostics["certify_evals"] == decision.diagnostics["separator_evals"] == 1
    # g at the Slater point, certify's and the separator's oracles (one bottom pair each),
    # then build_counterexample: sum B_ij (x) M_ij, M factored, the g side
    assert counts["eig"] == [("eigvalsh_lo", 8), (SELECTIVE, 48), (SELECTIVE, 64),
                             ("eigvalsh_lo", 64), ("eigh_lo", 48), ("eigvalsh_lo", 64)]
    assert counts["projections"] == 0


def test_a_certificate_at_certifys_first_point_projects_nothing(counts):
    rng = np.random.default_rng(3)
    g, x = slater_poly(rng, 2, 3)
    f, g, _ = planted_certificate_instance(rng, 2, 3, noise_margin=2.0, g=g)
    counts["eig"].clear()
    counts["projections"] = 0  # the planted map's
    decision = ns.decide(f, g, ns.new_tuple(x.reshape(2, 1, 1)))
    assert decision.kind == "certificate"
    assert decision.diagnostics["certify_evals"] == 1
    assert decision.diagnostics["separator_evals"] == 0
    assert counts["projections"] == 0


@pytest.fixture
def cone_work(monkeypatch):
    """PSD-cone projections and matrix inversions of the Douglas-Rachford search, counted."""
    tally = {"cone": 0, "inv": 0}
    cone, inv = linalg._psd_part, np.linalg.inv

    def counted_cone(S):
        tally["cone"] += 1
        return cone(S)

    def counted_inv(a):
        tally["inv"] += 1
        return inv(a)

    monkeypatch.setattr(linalg, "_psd_part", counted_cone)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    return tally


def fixture_instance(name):
    with open(Path(__file__).resolve().parent / "fixtures" / f"{name}.json") as fh:
        inst = serialize.instance_from_json(json.load(fh))
    return inst["f"], inst["g"], inst["slater"]


def test_a_certificate_at_certifys_second_point_forms_no_douglas_rachford_state(counts, cone_work):
    decision = ns.decide(*fixture_instance("example62"))
    assert decision.kind == "certificate"
    assert decision.diagnostics["certify_evals"] == 2
    assert counts["projections"] == 1  # certify's second point, on the spectraplex
    assert cone_work == {"cone": 0, "inv": 0}


def test_a_douglas_rachford_candidate_takes_two_cone_projections(counts, cone_work):
    # scale_gap_q2 (m = 1, q = 2) certifies at its first Douglas-Rachford candidate, certify's
    # third point; its one separator candidate, the center I / mq, is tested after the first.
    # One inverse, one cone projection for the start's R, then one per block for the
    # candidate: R's (side mq = 2) through its eigensolve, whose negative part the candidate
    # separator would take, and J's (side q^2 = 4) through _psd_part.
    decision = ns.decide(*fixture_instance("scale_gap_q2"))
    assert decision.kind == "certificate"
    assert (decision.diagnostics["certify_evals"], decision.diagnostics["separator_evals"]) == (3, 1)
    assert counts["projections"] == 1  # certify's second point, on the spectraplex
    assert cone_work == {"cone": 2, "inv": 1}
    # the Slater test; the first J's oracle; the center's T; the second J's projection and
    # oracle; the start's R; the candidate's R and J; its oracle; the certificate's residual
    assert counts["eig"] == [("eigvalsh_lo", 2), ("eigh_lo", 2), ("eigh_lo", 4), ("eigh_lo", 4),
                             ("eigh_lo", 2), ("eigh_lo", 2), ("eigh_lo", 2), ("eigh_lo", 4),
                             ("eigh_lo", 2), ("eigvalsh_lo", 2)]
