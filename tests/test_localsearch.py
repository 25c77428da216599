"""Local searches: families, fixpoints, oracle certificates, combinations."""

import hashlib
import math
import sys
import threading
from itertools import combinations, permutations, product

import numpy as np
import pytest

from mapls import (
    Assignment,
    Instance,
    apply_dimension_permutation,
    assignment_weight,
    build_family,
    combined,
    dv_search,
    generate,
    greedy,
    k_opt,
    parse_instance_name,
    perturb,
    solve_ap2,
    swap_weight_matrix,
    trivial,
    v_opt,
)
from mapls import ProductWeights, localsearch
from mapls import ap2
from mapls.core import row_weights
from mapls.meta import MetaConfig, chain, multichain
from mapls.localsearch import DV_VARIANTS, EPS, LS_NAMES, V_VARIANTS, _swap_masks, make_local_search
from mapls.rng import SplitMix64

from conftest import (
    brute_force_optimum,
    enumerate_neighborhood,
    explicit_instance,
    random_explicit,
    reference_swap_weight_matrix,
)


# -- subset families ----------------------------------------------------------


def test_family_sdv_3():
    assert build_family("sdv", 3) == ((0,), (1,), (2,))


def test_family_2dv_4():
    fam = build_family("2dv", 4)
    assert fam == ((0,), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    assert len(fam) == 2**3 - 1


def test_family_1dv_5():
    assert build_family("1dv", 5) == tuple((j,) for j in range(5))


def test_family_counts():
    for s in range(3, 9):
        assert len(build_family("1dv", s)) == s
        expect_2dv = 2 ** (s - 1) - 1 if s in (3, 4) else s * (s - 1) // 2 + s
        assert len(build_family("2dv", s)) == expect_2dv
        assert len(build_family("sdv", s)) == 2 ** (s - 1) - 1


def test_family_no_complements_no_trivial_sets():
    for variant in ("1dv", "2dv", "sdv"):
        for s in range(3, 9):
            sets = [frozenset(d) for d in build_family(variant, s)]
            full = frozenset(range(s))
            assert frozenset() not in sets and full not in sets
            as_set = set(sets)
            assert len(as_set) == len(sets)
            for d in sets:
                assert frozenset(full - d) not in as_set


def test_families_and_search_names_pinned():
    # every sweep order is part of the dimensionwise trajectories: sha256 of
    # repr(build_family(v, s)), first 16 hex digits
    digests = {
        "1dv": ("4b0ca899f0603aa4", "8022557f33175c8b", "69806d619adb103a",
                "5db05785c299464b", "a0851b09888560fd", "17c3cca0edd16ee8"),
        "2dv": ("4b0ca899f0603aa4", "77d63be118df494d", "22175825b076028e",
                "631f2c8b7d830935", "0be0b32667e8faa0", "fceb51ab0c4f0085"),
        "sdv": ("4b0ca899f0603aa4", "77d63be118df494d", "22175825b076028e",
                "24c3b87b08ab0740", "2c0146839d76fa2e", "da63f68bd6e68b19"),
    }
    for variant, want in digests.items():
        got = tuple(hashlib.sha256(repr(build_family(variant, s)).encode()).hexdigest()[:16]
                    for s in range(3, 9))
        assert got == want, variant
    assert localsearch.LS_NAMES == (
        "none", "1dv", "2dv", "sdv", "2opt", "3opt", "vopt", "1dv+2opt", "2dv+2opt",
        "1dv+3opt", "2dv+3opt", "sdv+3opt", "1dv+vopt", "2dv+vopt", "sdv+vopt",
    )


def test_dimensionwise_searches_read_the_family_from_the_instance():
    # make_local_search does not read its s: a search built for another s
    # sweeps the family of the instance it runs on
    for name, ls in (("4c10", "1dv"), ("5sr8", "sdv"), ("6c6", "sdv+vopt"), ("3c8", "sdv")):
        inst = generate(parse_instance_name(name, 1))
        a = trivial(inst)
        want = make_local_search(ls, inst.s)(inst, a)
        for s in (3, 5):
            got = make_local_search(ls, s)(inst, a)
            assert got.result == want.result, (name, ls, s)
            assert (got.final_weight, got.passes, got.ap2_calls) == \
                (want.final_weight, want.passes, want.ap2_calls), (name, ls, s)


# -- dv_search ---------------------------------------------------------------


def test_dv_fixpoint_unchanged():
    vals = np.zeros(27)
    inst = explicit_instance(3, 3, vals)
    a = Assignment.identity(3, 3)
    r = dv_search(inst, a, "sdv")
    assert r.result == a
    assert r.passes == 1
    assert r.final_weight == r.initial_weight == 0.0


def test_dv_single_profitable_relabeling():
    # only re-permuting dimension 2 helps; the result is the global optimum
    vals = np.full(27, 10.0)
    vals[0 * 9 + 1 * 3 + 0] = 1.0
    vals[1 * 9 + 0 * 3 + 1] = 1.0
    vals[2 * 9 + 2 * 3 + 2] = 1.0
    inst = explicit_instance(3, 3, vals)
    r = dv_search(inst, Assignment.identity(3, 3), "1dv")
    assert r.final_weight == 3.0
    assert r.result.perms[1].tolist() == [1, 0, 2]
    assert r.final_weight == brute_force_optimum(inst)
    improving = [
        b for b in enumerate_neighborhood(inst, r.result, "1dv")
        if assignment_weight(inst, b) < r.final_weight - 1e-9
    ]
    assert improving == []


def test_dv_fixpoint_certificate(rng):
    # at termination the 2-AP over every subset's matrix is solved by the
    # current assignment's weight
    inst = random_explicit(3, 5, rng)
    r = dv_search(inst, Assignment.identity(3, 5), "sdv")
    for dims in build_family("sdv", 3):
        _, cost = solve_ap2(swap_weight_matrix(inst, r.result, dims))
        assert cost >= r.final_weight - 1e-9


def test_dv_monotone_and_valid(rng):
    for _ in range(10):
        inst = random_explicit(4, 4, rng)
        for variant in ("1dv", "2dv", "sdv"):
            r = dv_search(inst, Assignment.identity(4, 4), variant)
            assert r.final_weight <= r.initial_weight + 1e-9
            r.result.validate()
            assert abs(assignment_weight(inst, r.result) - r.final_weight) < 1e-9


# Frozen copy of the dv_search that re-solved a whole clean pass after its
# last commit, on the frozen swap matrix and a 2-AP solve per subset; it also
# returns the 0-based solve positions of its commits.
def _reference_dv_search(inst, a, family):
    a = a.copy()
    w = assignment_weight(inst, a)
    passes = ap2_calls = 0
    commits = []
    improved = True
    while improved:
        improved = False
        passes += 1
        for dims in family:
            m = reference_swap_weight_matrix(inst, a, dims)
            sigma, cost = solve_ap2(m)
            ap2_calls += 1
            if cost < w - EPS:
                a = apply_dimension_permutation(a, dims, sigma)
                w = cost
                improved = True
                commits.append(ap2_calls - 1)
    return a, w, passes, ap2_calls, commits


def _assert_dv_matches_reference(inst, seed=0):
    rng = SplitMix64(seed)
    for variant in DV_VARIANTS:
        fam = build_family(variant, inst.s)
        a = trivial(inst)
        opt = _reference_dv_search(inst, a, fam)[0]
        for start in [a] + [perturb(opt, rng) for _ in range(3)]:
            ref, ref_w, _, ref_calls, commits = _reference_dv_search(inst, start, fam)
            r = dv_search(inst, start, variant)
            assert r.result == ref
            assert r.final_weight == ref_w
            assert r.ap2_calls == (commits[-1] if commits else 0) + len(fam) <= ref_calls
            assert r.passes == -(-r.ap2_calls // len(fam))


def test_dv_matches_reference_explicit(rng):
    for s, n in ((3, 6), (4, 5), (5, 4), (6, 3)):
        # non-integer weights
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        _assert_dv_matches_reference(inst, seed=s)
        # few distinct values: many ties in the 2-AP optima
        inst = random_explicit(s, n, rng, lo=0, hi=3)
        _assert_dv_matches_reference(inst, seed=s)


@pytest.mark.parametrize("name", ["3r12", "4gp6", "3c10", "4g6", "3sr10", "5p5",
                                  "3p12", "4p8", "6p4", "7p4", "8p3"])
def test_dv_matches_reference_generated(name):
    for index in (1, 2):
        _assert_dv_matches_reference(generate(parse_instance_name(name, index)), seed=index)


def _count_solver_calls(monkeypatch):
    """Count the compiled 2-AP solver's calls from here on."""
    calls = []
    solver = ap2.linear_sum_assignment

    def counted(m):
        calls.append(len(m))
        return solver(m)

    monkeypatch.setattr(ap2, "linear_sum_assignment", counted)
    return calls


def _dv_reports(inst, seed):
    """dv_search reports, without their elapsed times: 1dv from trivial,
    then every variant from trivial and from three perturbations of that
    optimum."""
    rng = SplitMix64(seed)
    first = dv_search(inst, trivial(inst), "1dv")
    starts = [trivial(inst)] + [perturb(first.result, rng) for _ in range(3)]
    return [(r.result, r.initial_weight, r.final_weight, r.passes, r.ap2_calls, r.candidate_evals)
            for r in [first] + [dv_search(inst, a, v) for v in DV_VARIANTS for a in starts]]


@pytest.mark.parametrize("name", ["3p12", "4p8", "5p5", "6p4", "7p4", "8p3", "3p75"])
def test_dv_sorted_decisions_keep_every_report_field(name, monkeypatch):
    # a product solve that sorting shows cannot improve runs no matrix and no
    # solver, and every report field but elapsed stays as when each is solved
    inst = generate(parse_instance_name(name, 1))
    assert inst.weights._exact_sums
    calls = _count_solver_calls(monkeypatch)
    sorted_reports = _dv_reports(inst, seed=1)
    sorted_calls = len(calls)
    monkeypatch.setattr(inst.weights, "_exact_sums", False)
    assert _dv_reports(inst, seed=1) == sorted_reports
    assert len(calls) - sorted_calls == sum(r[4] for r in sorted_reports)
    assert sorted_calls < 0.8 * (len(calls) - sorted_calls)


def test_dv_inexact_products_solve_every_subset(monkeypatch):
    # non-integral factors, or products whose sums can reach 2^53, leave the
    # sorted cost inexact: every subset is solved by the solver
    rng = np.random.default_rng(3)
    s, n = 4, 6
    cases = [[rng.uniform(0.5, 4.0, n) for _ in range(s)],
             [np.floor(rng.uniform(1.0, 10.0, n)) + 0.5 for _ in range(s)],
             # heaviest 2^51: n times it passes 2^53
             [np.where(np.arange(n) == 0, 2.0**13 - 1, rng.integers(1, 2**12, n)).astype(float) for _ in range(s - 1)]
             + [np.full(n, 2.0**12)]]
    for factors in cases:
        inst = Instance(ProductWeights(factors), 0)
        assert not inst.weights._exact_sums
        calls = _count_solver_calls(monkeypatch)
        for variant in DV_VARIANTS:
            a = perturb(trivial(inst), SplitMix64(1))
            r = dv_search(inst, a, variant)
            assert r.ap2_calls == len(calls) and r.candidate_evals == n * n * r.ap2_calls
            calls.clear()


def test_product_exact_sums_bound():
    # the sorted decision is used only while n times the heaviest product
    # stays below 2^53 and every factor is an integer
    # 4 * (2^51 - 1) = 2^53 - 4, and 2^51 - 1 = 1545103 * 11119 * 131071
    for maxima, exact in (((1545103, 11119, 131071), True), ((2**17, 2**17, 2**17), False)):
        factors = [np.array([1.0, 2.0, 3.0, m]) for m in maxima]
        assert ProductWeights(factors)._exact_sums == exact
        factors[1][0] = 1.5
        assert not ProductWeights(factors)._exact_sums


# desk's instance names, one or two per family, s = 4..8
_CHAINED_DV_NAMES = ["4gp15", "8gp2", "5r20", "6c9", "8g4", "5p15", "7sr6", "4sr25"]


def _chained_dv_instances(rng):
    """Instances for the chained dimensionwise tests: desk names of every
    generated family plus a uniform-[0, 1) explicit tensor."""
    insts = [(name, generate(parse_instance_name(name, 1))) for name in _CHAINED_DV_NAMES]
    insts.append(("explicit", explicit_instance(4, 6, rng.uniform(0.0, 1.0, size=6**4))))
    return insts


@pytest.mark.parametrize("variant", DV_VARIANTS)
def test_chained_dv_matches_plain_dv(rng, variant):
    # every call of a chain and a multichain through the remembering callable
    # equals plain dv_search on the same start, in result and final weight,
    # with no more solves; a call stops early when a commit, or its start,
    # reaches the previous call's result. 1dv's and sdv's families hold
    # dimension 0, whose commit re-permutes the other dimensions
    assert all(0 in build_family(variant, s)[0] for s in range(3, 9))
    fewer = 0
    for tag, inst in _chained_dv_instances(rng):
        for run, cfg in ((chain, MetaConfig("chain", iteration_cap=12, rng_seed=3)),
                         (multichain, MetaConfig("multichain", c=2, iteration_cap=8, rng_seed=4))):
            search = make_local_search(variant, inst.s)
            calls = []

            def checked(inst_, a):
                nonlocal fewer
                r = search(inst_, a)
                ref = dv_search(inst_, a, variant)
                assert r.result == ref.result and r.final_weight == ref.final_weight, tag
                assert r.initial_weight == ref.initial_weight, tag
                assert r.ap2_calls <= ref.ap2_calls, tag
                assert r.candidate_evals == inst_.n * inst_.n * r.ap2_calls, tag
                if not calls:
                    assert r.ap2_calls == ref.ap2_calls, tag
                fewer += r.ap2_calls < ref.ap2_calls
                calls.append(r)
                return r

            run(inst, trivial(inst), checked, cfg)
            assert len(calls) == cfg.iteration_cap
    assert fewer >= 20


def test_dv_hint_stops_at_its_origin():
    # a start equal to the hint, at a tracked weight no greater, solves
    # nothing; at a greater weight the hint says nothing about it
    inst = generate(parse_instance_name("5r20", 1))
    r = dv_search(inst, trivial(inst), "1dv")
    again = dv_search(inst, r.result, "1dv", local_optimum=(r.result, r.final_weight))
    assert again.result == r.result and again.final_weight == r.final_weight
    assert (again.ap2_calls, again.passes, again.candidate_evals) == (0, 0, 0)
    lighter = dv_search(inst, r.result, "1dv", local_optimum=(r.result, r.final_weight - 1.0))
    assert lighter.ap2_calls == len(build_family("1dv", inst.s))
    with pytest.raises(ValueError, match="shape"):
        dv_search(inst, trivial(inst), "1dv", local_optimum=(Assignment.identity(4, 20), 0.0))


def test_dv_hint_that_is_no_local_optimum_changes_results(rng):
    # negative control: handed the perturbed start itself, which is no
    # local optimum, the search stops where a plain one would go on
    moved = 0
    for tag, inst in _chained_dv_instances(rng):
        opt = dv_search(inst, trivial(inst), "1dv").result
        for seed in range(3):
            a = perturb(opt, SplitMix64(seed))
            plain = dv_search(inst, a, "1dv")
            hinted = dv_search(inst, a, "1dv", local_optimum=(a, assignment_weight(inst, a)))
            assert hinted.result == a and hinted.ap2_calls == 0
            moved += plain.result != a
    assert moved >= 10


@pytest.mark.parametrize("variant", DV_VARIANTS)
def test_chained_dv_keeps_its_own_copy(variant):
    inst = generate(parse_instance_name("5r6", 1))
    search = make_local_search(variant, inst.s)
    r = search(inst, trivial(inst))
    assert r.result != trivial(inst)
    # an assignment no heavier than that result and no local optimum: a
    # perturbed chain result
    best = chain(inst, r.result, lambda i, a: dv_search(i, a, "sdv"),
                 MetaConfig("chain", iteration_cap=30, rng_seed=1)).best
    x = next(b for b in (perturb(best, SplitMix64(seed)) for seed in range(100))
             if assignment_weight(inst, b) <= r.final_weight and dv_search(inst, b, variant).result != b)
    # a caller rewrites the result in place: the callable must not see it
    r.result.perms[:] = x.perms
    ref = dv_search(inst, x, variant)
    again = search(inst, x)
    assert again.result == ref.result and again.final_weight == ref.final_weight
    assert again.ap2_calls == ref.ap2_calls


@pytest.mark.parametrize("variant", DV_VARIANTS)
def test_chained_dv_remembers_per_instance(rng, variant):
    # two instances of one shape through one callable: a result for one is
    # not a local optimum of the other
    insts = [generate(parse_instance_name("4c7", i)) for i in (1, 2)]
    search = make_local_search(variant, 4)
    a = trivial(insts[0])
    for step in range(6):
        inst = insts[step % 2]
        r = search(inst, a)
        ref = dv_search(inst, a, variant)
        assert (r.result, r.final_weight, r.ap2_calls) == (ref.result, ref.final_weight, ref.ap2_calls)
        a = r.result
    # an unrelated start on the same instance
    b = Assignment(np.vstack([np.arange(7)] + [rng.permutation(7) for _ in range(3)]))
    r, ref = search(inst, b), dv_search(inst, b, variant)
    assert (r.result, r.final_weight) == (ref.result, ref.final_weight)
    # a result for one instance, at the same weight on another whose every
    # other vector weighs 0, where it is no local optimum
    one = random_explicit(4, 5, rng, lo=1)
    r = search(one, trivial(one))
    other = np.zeros(5**4)
    kept = np.ravel_multi_index(tuple(r.result.perms), (5,) * 4)
    other[kept] = one.weight_batch(r.result.perms.T)
    other = explicit_instance(4, 5, other)
    ref = dv_search(other, r.result, variant)
    assert ref.final_weight < r.final_weight
    got = search(other, r.result)
    assert (got.result, got.final_weight) == (ref.result, ref.final_weight)


def test_dv_search_runs_no_checks(monkeypatch):
    # the search solves and commits unchecked; the public solve and commit
    # still refuse bad input
    from mapls import core

    starts = [(inst, perturb(trivial(inst), SplitMix64(2)))
              for inst in (generate(parse_instance_name(name, 1)) for name in ("5r20", "6c9", "5p15", "7sr6"))]
    calls = []
    validate, isfinite = core._validate_perm, np.isfinite

    def spy(fn, name):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(core, "_validate_perm", spy(validate, "_validate_perm"))
    monkeypatch.setattr(np, "isfinite", spy(isfinite, "isfinite"))
    for inst, a in starts:
        for variant in DV_VARIANTS:
            r = dv_search(inst, a, variant)
            assert r.final_weight < r.initial_weight
    assert calls == []
    with pytest.raises(ValueError):
        solve_ap2(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        apply_dimension_permutation(Assignment.identity(3, 3), (1,), [0.5, 1.2, 2.9])
    assert set(calls) == {"_validate_perm", "isfinite"}


def _perturbed(construct, seed):
    return lambda inst: perturb(construct(inst), SplitMix64(seed))


# (name, index, dv, vectorwise, construct) starts of `combined`
_COMBINED_CASES = [("4r6", 1, "sdv", "vopt", _perturbed(trivial, 1))]  # dv, v-opt and dv again all improve
# these reach a second k-opt phase
_COMBINED_CASES += [(name, index, dv, "3opt", trivial)
                    for name, index in (("3gp12", 1), ("3c20", 2)) for dv in DV_VARIANTS]
_COMBINED_CASES += [("4r7", 2, "1dv", "2opt", greedy), ("4sr6", 2, "1dv", "2opt", trivial)]
# and in these a k-opt phase after the first improves
_COMBINED_CASES += [("4c6", 5, "1dv", "2opt", trivial), ("3gp12", 3, "1dv", "3opt", _perturbed(greedy, 1)),
                    ("4gp7", 3, "2dv", "3opt", _perturbed(greedy, 2)),
                    ("3sr15", 1, "1dv", "3opt", _perturbed(greedy, 1))]


def test_combined_sdv_vopt_matches_reference():
    # combined's loop over the frozen dv_search and, for 2opt/3opt, the frozen
    # plain k-opt: every phase, a later k-opt phase included, starts from the
    # previous phase's result and nothing else
    later_gains = 0
    for name, index, dv, vectorwise, construct in _COMBINED_CASES:
        inst = generate(parse_instance_name(name, index))
        fam = build_family(dv, inst.s)
        start = construct(inst)
        a, w = _reference_dv_search(inst, start, fam)[:2]
        kopt_phases = 0
        while True:
            x = w
            if vectorwise == "vopt":
                rv = v_opt(inst, a)
                a, w = rv.result, rv.final_weight
            else:
                a, w = _reference_k_opt(inst, a, 2 if vectorwise == "2opt" else 3)[:2]
                kopt_phases += 1
                later_gains += kopt_phases > 1 and w < x - EPS
            if w >= x - EPS:
                break
            x = w
            a, w = _reference_dv_search(inst, a, fam)[:2]
            if w >= x - EPS:
                break
        r = combined(inst, start, dv, vectorwise)
        assert r.result == a and r.final_weight == w, (name, index, dv, vectorwise)
        assert vectorwise == "vopt" or kopt_phases >= 2, (name, index, dv, vectorwise)
    assert later_gains >= 4


# -- k-opt -------------------------------------------------------------------


def test_kopt_validates_k():
    inst = explicit_instance(3, 2, np.zeros(8))
    with pytest.raises(ValueError):
        k_opt(inst, Assignment.identity(3, 2), 3)  # k > n
    with pytest.raises(ValueError):
        k_opt(inst, Assignment.identity(3, 2), 4)


def test_kopt_fixpoint_unchanged():
    inst = explicit_instance(3, 3, np.zeros(27))
    a = Assignment.identity(3, 3)
    r = k_opt(inst, a, 2)
    assert r.result == a and r.passes == 1


def test_2opt_local_optimum_certificate(rng):
    for _ in range(10):
        inst = random_explicit(3, 3, rng)
        r = k_opt(inst, Assignment.identity(3, 3), 2)
        w = r.final_weight
        assert all(
            assignment_weight(inst, b) >= w - 1e-9
            for b in enumerate_neighborhood(inst, r.result, "2opt")
        )


def test_3opt_local_optimum_certificate(rng):
    for _ in range(10):
        inst = random_explicit(3, 3, rng)
        r = k_opt(inst, Assignment.identity(3, 3), 3)
        w = r.final_weight
        assert all(
            assignment_weight(inst, b) >= w - 1e-9
            for b in enumerate_neighborhood(inst, r.result, "3opt")
        )


def test_3opt_optimum_is_2opt_optimal(rng):
    # N_2opt is a subset of N_3opt, so a 3-opt local optimum admits no
    # improving pair recombination either (trajectories may still differ)
    for _ in range(8):
        inst = random_explicit(3, 4, rng)
        r = k_opt(inst, Assignment.identity(3, 4), 3)
        assert all(
            assignment_weight(inst, b) >= r.final_weight - 1e-9
            for b in enumerate_neighborhood(inst, r.result, "2opt")
        )


def test_kopt_monotone_and_valid(rng):
    for s, n in ((3, 6), (4, 5), (5, 4)):
        inst = random_explicit(s, n, rng)
        for k in (2, 3):
            r = k_opt(inst, Assignment.identity(s, n), k)
            assert r.final_weight <= r.initial_weight + 1e-9
            r.result.validate()
            assert abs(assignment_weight(inst, r.result) - r.final_weight) < 1e-9


def test_kopt_on_its_own_optimum_is_a_noop(rng):
    # handed itself as the local optimum, a start has no fresh row: one pass
    # that screens nothing
    inst = random_explicit(3, 5, rng)
    r1 = k_opt(inst, Assignment.identity(3, 5), 2)
    r2 = k_opt(inst, r1.result, 2, local_optimum=r1.result)
    assert r2.result == r1.result
    assert r2.passes == 1
    assert r2.candidate_evals == 0


@pytest.mark.parametrize("k", [2, 3])
def test_kopt_hint_must_be_the_optimum_the_start_came_from(k):
    # the hint is trusted, not checked: a perturbed optimum handed as its own
    # optimum has no fresh row and comes back as it went in, though plain
    # k-opt improves it; handed the optimum it came from, it runs as plain
    inst = generate(parse_instance_name("3c12", 1))
    opt = k_opt(inst, trivial(inst), k).result
    b = perturb(opt, SplitMix64(2))
    plain = k_opt(inst, b, k)
    assert plain.final_weight < plain.initial_weight
    _assert_same_report(k_opt(inst, b, k, local_optimum=opt), plain)
    wrong = k_opt(inst, b, k, local_optimum=b)
    assert wrong.result == b and wrong.candidate_evals == 0


def test_kopt_reverify_decides_as_the_screen():
    # rows weigh 2.0 and 0.0; swapping dimensions 2 and 3 leaves 2.0 - EPS.
    # (2.0 - EPS) - 2.0 < -EPS holds, 2.0 - EPS < 2.0 - EPS does not: the
    # re-verify must decide as the screen did, or an unchanged subset could
    # screen as improving yet never commit
    x = 2.0 - EPS
    assert x - 2.0 < -EPS and not x < 2.0 - EPS
    values = np.full((2, 2, 2), 5.0)
    values[0, 0, 0], values[1, 1, 1] = 2.0, 0.0
    values[0, 1, 1], values[1, 0, 0] = x, 0.0
    inst = explicit_instance(3, 2, values.ravel())
    r = k_opt(inst, Assignment.identity(3, 2), 2)
    assert r.result == Assignment(np.array([[0, 1], [1, 0], [1, 0]]))
    assert r.final_weight == x


def _reference_k_opt(inst, a, k, dirty=None, chunk=None):
    """k_opt as two separate sweeps, frozen: 2-opt screens every pair at once
    from swap-weight matrices, 3-opt screens triples in blocks of `chunk`
    (default: as many as 1.2M weights hold). Returns (result, weight,
    passes, touched_rows)."""
    n, s = inst.n, inst.s
    a = a.copy()
    w_rows = row_weights(inst, a)
    floor = inst.min_weight_floor()
    examine = np.arange(n) if dirty is None else np.fromiter(sorted(dirty), dtype=np.int64)
    passes = 0
    touched = set()
    while True:
        passes += 1
        if k == 2:
            changed = _reference_sweep_2opt(inst, a, w_rows, examine, floor)
        else:
            changed = _reference_sweep_3opt(inst, a, w_rows, examine, floor, chunk)
        if not changed:
            break
        touched |= changed
        examine = np.fromiter(sorted(changed), dtype=np.int64)
    return a, float(w_rows.sum()), passes, frozenset(touched)


def _reference_sweep_2opt(inst, a, w_rows, examine, floor):
    n, s = inst.n, inst.s
    subsets = [tuple(d for d in range(1, s) if code & (1 << (s - 1 - d)))
               for code in range(1, 2 ** (s - 1))]
    changed = set()
    if len(examine) == 0:
        return changed
    deltas = np.empty((len(subsets), n, n))
    for d_idx, dims in enumerate(subsets):
        m = reference_swap_weight_matrix(inst, a, dims)
        deltas[d_idx] = m + m.T - w_rows[:, None] - w_rows[None, :]
    cand = deltas.min(axis=0) < -EPS
    cand &= np.triu(np.ones((n, n), dtype=bool), 1)
    in_examine = np.zeros(n, dtype=bool)
    in_examine[examine] = True
    cand &= in_examine[:, None] | in_examine[None, :]
    settled = w_rows <= floor + EPS
    cand &= ~(settled[:, None] & settled[None, :])
    for i, j in np.argwhere(cand):
        i, j = int(i), int(j)
        u, v = a.perms[:, i], a.perms[:, j]
        coords = np.empty((len(subsets), 2, s), dtype=np.int64)
        coords[:, 0] = u
        coords[:, 1] = v
        for d_idx, dims in enumerate(subsets):
            for d in dims:
                coords[d_idx, 0, d] = v[d]
                coords[d_idx, 1, d] = u[d]
        w = inst.weight_batch(coords.reshape(-1, s)).reshape(-1, 2)
        totals = w.sum(axis=1)
        r = int(np.argmin(totals))
        if totals[r] - (w_rows[i] + w_rows[j]) < -EPS:
            a.perms[:, i] = coords[r, 0]
            a.perms[:, j] = coords[r, 1]
            w_rows[i], w_rows[j] = w[r, 0], w[r, 1]
            changed.update((i, j))
    return changed


def _reference_triple_totals(inst, a, triples, table):
    s = inst.s
    coords = np.empty((len(triples), len(table), 3, s), dtype=np.int64)
    coords[..., 0] = triples[:, None, :]
    for j in range(1, s):
        coords[..., j] = a.perms[j][triples][:, table[:, j - 1, :]]
    return inst.weight_batch(coords.reshape(-1, s)).reshape(len(triples), len(table), 3).sum(axis=2)


def _reference_sweep_3opt(inst, a, w_rows, examine, floor, chunk=None):
    n, s = inst.n, inst.s
    table = np.array(list(product(permutations(range(3)), repeat=s - 1)), dtype=np.int64)
    changed = set()
    if len(examine) == 0:
        return changed
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    mask = (i < j) & (j < k)
    triples = np.stack([i[mask], j[mask], k[mask]], axis=1).astype(np.int64)
    in_examine = np.zeros(n, dtype=bool)
    in_examine[examine] = True
    keep = in_examine[triples].any(axis=1)
    keep &= ~(w_rows <= floor + EPS)[triples].all(axis=1)
    triples = triples[keep]
    if chunk is None:
        chunk = max(1, 1_200_000 // (len(table) * 3))
    for start in range(0, len(triples), chunk):
        block = triples[start : start + chunk]
        totals = _reference_triple_totals(inst, a, block, table)
        gain = totals.min(axis=1) - w_rows[block].sum(axis=1)
        for t in np.flatnonzero(gain < -EPS):
            rows = block[t]
            totals_t = _reference_triple_totals(inst, a, rows[None, :], table)[0]
            r = int(np.argmin(totals_t))
            if totals_t[r] < w_rows[rows].sum() - EPS:
                old = a.perms[1:, rows].copy()
                for j in range(1, s):
                    a.perms[j, rows] = old[j - 1][table[r, j - 1]]
                w_rows[rows] = inst.weight_batch(a.perms[:, rows].T)
                changed.update(int(x) for x in rows)
    return changed


def _kopt_starts(inst, k, seed):
    """(start, local optimum) pairs: the trivial assignment, then three
    perturbed k-opt local optima, each without and with the optimum it was
    perturbed from as the hint."""
    a = trivial(inst)
    yield a, None
    rng = SplitMix64(seed)
    opt = _reference_k_opt(inst, a, k)[0]
    for _ in range(3):
        b = perturb(opt, rng)
        yield b, None
        yield b, opt


def _assert_kopt_matches_reference(inst, seed=0, ks=(2, 3)):
    for k in ks:
        for a, opt in _kopt_starts(inst, k, seed):
            ref, ref_w, ref_passes, _ = _reference_k_opt(inst, a, k)
            r = k_opt(inst, a, k, local_optimum=opt)
            assert r.result == ref
            assert r.final_weight == ref_w
            assert r.passes == ref_passes


def test_kopt_matches_reference_explicit(rng):
    for s, n in ((3, 6), (4, 5), (5, 4), (6, 3)):
        # non-integer weights
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        _assert_kopt_matches_reference(inst, seed=s)
        # few distinct values: many ties in the argmin and the gain tests
        inst = random_explicit(s, n, rng, lo=0, hi=3)
        _assert_kopt_matches_reference(inst, seed=s)


@pytest.mark.parametrize("name", ["3r12", "3gp12", "4c6", "3g10", "3sr10", "3p10", "5sr5"])
def test_kopt_matches_reference_generated(name):
    for index in (1, 2):
        _assert_kopt_matches_reference(generate(parse_instance_name(name, index)), seed=index)


def _assert_screen_chunks_match(monkeypatch, inst, a, k, block, ref, **hint):
    # every chunk is screened on the assignment at its block's start, so
    # the chunk size changes no result and no count: forced to a few
    # subsets, or to one more than the block holds, a call returns what the
    # reference and the default chunk do
    rows = math.factorial(k) ** (inst.s - 1) * k  # of one subset, the identity's included
    plain = k_opt(inst, a, k, **hint)
    for screen in (1, 2, 5, block + 1):
        with monkeypatch.context() as m:
            m.setattr(localsearch, "_CHUNK_ROWS", screen * rows)
            r = k_opt(inst, a, k, **hint)
        assert (r.result, r.final_weight, r.passes) == ref, screen
        assert r.candidate_evals == plain.candidate_evals, screen


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_3opt_small_blocks_match_reference(monkeypatch, rng, chunk):
    # blocks of `chunk` triples: later screens see earlier blocks' commits
    insts = [explicit_instance(3, 7, rng.uniform(0.0, 1.0, size=7**3)),
             random_explicit(4, 6, rng, lo=0, hi=3),
             generate(parse_instance_name("3c10", 1)),
             generate(parse_instance_name("4gp6", 2))]
    for inst in insts:
        monkeypatch.setattr(localsearch, "_BATCH_ROWS", chunk * 6 ** (inst.s - 1) * 3)
        for a, opt in _kopt_starts(inst, 3, seed=chunk):
            ref, ref_w, ref_passes, _ = _reference_k_opt(inst, a, 3, chunk=chunk)
            _assert_screen_chunks_match(monkeypatch, inst, a, 3, chunk, (ref, ref_w, ref_passes),
                                        local_optimum=opt)


@pytest.mark.parametrize("chunk", [None, 1, 2, 5, 40])
def test_kopt_many_commits_per_block_match_reference(monkeypatch, rng, chunk):
    # from the trivial assignment most screened subsets share a row with an
    # earlier commit of their block: long runs of stale candidates, re-weighed
    # in segments that grow and shrink
    cases = [(generate(parse_instance_name("3c20", 1)), 3),
             (explicit_instance(3, 9, rng.uniform(0.0, 1.0, size=9**3)), 3)]
    if chunk is None:
        cases += [(generate(parse_instance_name("3r30", 1)), 2),
                  (explicit_instance(3, 16, rng.uniform(0.0, 1.0, size=16**3)), 2)]
    for inst, k in cases:
        if chunk is not None:
            monkeypatch.setattr(localsearch, "_BATCH_ROWS", chunk * 6 ** (inst.s - 1) * 3)
        a = trivial(inst)
        ref, ref_w, ref_passes, _ = _reference_k_opt(inst, a, k, chunk=chunk)
        block = chunk or localsearch._BATCH_ROWS // (math.factorial(k) ** (inst.s - 1) * k)
        _assert_screen_chunks_match(monkeypatch, inst, a, k, block, (ref, ref_w, ref_passes))


def test_kopt_workspace_interleaved_across_shapes():
    # the screen keeps its buffers across chunks, blocks, calls and shapes:
    # calls on other (s, n, k) in between change no result. From the trivial
    # assignment most candidates of a block go stale, so re-weighs run
    # through the buffers the block's chunks were screened in.
    reused = None
    for name, k in (("8c4", 2), ("3c50", 3), ("4c15", 2), ("3c50", 3), ("8c4", 2)):
        inst = generate(parse_instance_name(name, 1))
        for a in (trivial(inst), greedy(inst)):
            ref, ref_w, ref_passes, _ = _reference_k_opt(inst, a, k)
            r = k_opt(inst, a, k)
            assert r.result == ref, name
            assert r.final_weight == ref_w, name
            assert r.passes == ref_passes, name
        if name == "3c50":
            if reused is None:
                reused = localsearch._WORKSPACE.totals
            assert localsearch._WORKSPACE.totals is reused


def test_kopt_concurrent_calls_match_sequential():
    # each thread screens in its own workspace: calls on different shapes
    # running at once return what they return one at a time
    jobs = [(inst, construct(inst))
            for inst in (generate(parse_instance_name(name, 1)) for name in ("3c20", "3sr15", "4c8", "3r20"))
            for construct in (trivial, greedy)]
    want = [k_opt(inst, a, 3) for inst, a in jobs]
    got = [None] * len(jobs)

    def run(i):
        got[i] = k_opt(*jobs[i], 3)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, (r, ref) in enumerate(zip(got, want)):
        assert r is not None, f"job {i} raised"
        assert r.result == ref.result, i
        assert (r.final_weight, r.passes, r.candidate_evals) == \
            (ref.final_weight, ref.passes, ref.candidate_evals), i


def _screen_buffer_bytes(runs):
    """Bytes of the k-opt screen buffers a fresh thread holds after the
    3-opt calls on the (instance, start) pairs `runs`."""
    held = []

    def run():
        for inst, a in runs:
            k_opt(inst, a, 3)
        held.append(sum(buf.nbytes for buf in vars(localsearch._WORKSPACE).values()))

    t = threading.Thread(target=run)  # a thread of its own starts with no buffers
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and held
    return held[0]


def test_kopt_screen_buffers_stay_within_a_chunk(monkeypatch):
    # the screen weighs a block a chunk at a time and keeps only its
    # candidates' weights, so a thread's buffers are bounded by the chunk,
    # whatever the block size. At k = 3 and s >= 3 a chunk row needs under
    # one byte of the subsets' coordinates and under 2/3 of a float of
    # totals and take terms: under 16 bytes in all
    runs = [(inst, construct(inst))
            for inst in (generate(parse_instance_name(name, 1)) for name in ("3c50", "5c12"))
            for construct in (trivial, greedy)]
    assert _screen_buffer_bytes(runs) <= 16 * localsearch._CHUNK_ROWS
    # re-weighs stay within a chunk too: from the trivial assignment the
    # stale candidates of a segment would run to hundreds of subsets
    monkeypatch.setattr(localsearch, "_CHUNK_ROWS", 5 * 6**2 * 3)
    inst = generate(parse_instance_name("3c20", 1))
    assert _screen_buffer_bytes([(inst, trivial(inst))]) <= 16 * localsearch._CHUNK_ROWS


def test_chained_3opt_makes_far_fewer_weight_calls_than_candidates(monkeypatch):
    # the frozen reference re-verifies each screened candidate in a weight call
    # of its own; the sweep decides a candidate untouched since its screen from
    # the screen's column and re-weighs stale ones a segment at a time. The
    # screen and its re-weighs weigh grids: each search makes one batch call,
    # for its row weights, and every other call is a grid's
    inst = generate(parse_instance_name("3c30", 1))
    calls = {"weight_batch": 0, "weight_grid": 0}
    candidates = 0
    reference_totals = _reference_triple_totals

    def counting(name):
        method = getattr(Instance, name)

        def run(self, arg):
            calls[name] += 1
            return method(self, arg)

        return run

    def counting_totals(inst_, a, triples, table):
        nonlocal candidates
        candidates += len(triples) == 1  # a re-verify; blocks here hold many triples
        return reference_totals(inst_, a, triples, table)

    for name in calls:
        monkeypatch.setattr(Instance, name, counting(name))
    monkeypatch.setitem(globals(), "_reference_triple_totals", counting_totals)
    search = make_local_search("3opt", inst.s)
    made = screened = 0

    def checked(inst_, a):
        nonlocal made, screened
        before = dict(calls)
        r = search(inst_, a)
        assert calls["weight_batch"] - before["weight_batch"] == 1
        made += sum(calls.values()) - sum(before.values())
        _assert_same_report(r, k_opt(inst_, a, 3))
        before = candidates
        assert _reference_k_opt(inst_, a, 3)[0] == r.result
        screened += candidates - before
        return r

    chain(inst, greedy(inst), checked, MetaConfig("chain", iteration_cap=4, rng_seed=3))
    assert screened > 1000
    assert made * 5 < screened


def _reference_recombination_weights(inst, a, subsets, table):
    """_recombination_weights as it weighed all R*k rows of each subset's
    recombinations through a (c, R, k, s) coordinate array, frozen."""
    s, (c, k), big_r = inst.s, subsets.shape, len(table)
    coords = np.empty((c, big_r, k, s), dtype=np.int64)
    coords[..., 0] = subsets[:, None, :]
    for j in range(1, s):
        coords[..., j] = a.perms[j][subsets][:, table[:, j - 1]]
    return inst.weight_batch(coords.reshape(-1, s)).reshape(c, big_r, k)


@pytest.mark.parametrize("tag", ["r", "gp", "c", "g", "sr", "p", "explicit"])
def test_recombination_weights_match_reference(rng, tag):
    # 3-opt stops at s = 7: at s = 8 one subset has 6^7 - 1 recombinations
    for k, s_max in ((2, 8), (3, 7)):
        for s in range(3, s_max + 1):
            n = 4
            if tag == "explicit":
                inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
            else:
                inst = generate(parse_instance_name(f"{s}{tag}{n}", 1))
            a = Assignment(np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)]))
            subsets = np.array(list(combinations(range(n), k)), dtype=np.int64)
            if k == 3 and s > 5:
                subsets = subsets[:1]
            w = localsearch._recombination_weights(inst, a, subsets)[0]
            # (R, k, c): row m of recombination r read from its cube entry
            got = np.take(w, localsearch._cube_tables(s, k)[1].T, axis=0)
            want = _reference_recombination_weights(inst, a, subsets, localsearch._recombinations(s, k))
            want = np.ascontiguousarray(want.transpose(1, 2, 0))  # (R, k, c)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_screen_sums_keep_the_reference_order(rng, k):
    # `_sweep` totals each recombination from its subset's cube weights, one
    # take per row added in row order; the frozen reference summed the
    # C-contiguous (c, R, k) array over its last axis. Both must add
    # w0 + w1 (+ w2) in that order, and a one-subset re-verify must total
    # exactly as that subset's column of its screen chunk.
    for s in range(3, 7):
        n = 6 if k == 3 else 8
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        a = Assignment(np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)]))
        subsets = np.array(list(combinations(range(n), k)), dtype=np.int64)
        if s > 4:
            subsets = subsets[:: 3 * (s - 3)]
        screen = localsearch._recombination_weights(inst, a, subsets)[1].copy()  # (R, c)
        ref = _reference_recombination_weights(inst, a, subsets, localsearch._recombinations(s, k))
        want = ref.sum(axis=2)  # (c, R)
        assert np.ascontiguousarray(screen.T).tobytes() == want.tobytes()
        for i in range(0, len(subsets), 7):
            one = localsearch._recombination_weights(inst, a, subsets[i : i + 1])[1][:, 0]
            assert one.tobytes() == want[i].tobytes()


def _chained_instances(rng, k):
    """Instances for the chained k-opt tests: every generated family plus
    uniform-[0, 1) explicit weights, sized so a perturbation leaves most
    subsets clean."""
    names = (["3r16", "3gp14", "4c8", "3g14", "3sr14", "3p14"] if k == 2
             else ["3r11", "3gp10", "4c7", "3g10", "3sr10", "3p10"])
    insts = [(name, generate(parse_instance_name(name, 1))) for name in names]
    n = 12 if k == 2 else 9
    insts.append(("explicit", explicit_instance(3, n, rng.uniform(0.0, 1.0, size=n**3))))
    return insts


def _assert_same_report(r, ref):
    assert r.result == ref.result
    assert r.final_weight == ref.final_weight
    assert r.passes == ref.passes


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_chained_kopt_matches_plain_kopt(monkeypatch, rng, k, chunk):
    # every call of a chain and a multichain through the remembering callable
    # equals plain k_opt on the same start. Blocks of `chunk` subsets make
    # later blocks see earlier commits; with the default block size these
    # first sweeps are one block, so a call screens strictly fewer subsets
    # exactly when its start leaves a subset above the floor clean.
    fewer = 0
    for tag, inst in _chained_instances(rng, k):
        if chunk is not None:
            big_r = (6 if k == 3 else 2) ** (inst.s - 1)  # recombinations plus the identity
            monkeypatch.setattr(localsearch, "_BATCH_ROWS", chunk * big_r * k)
        floor = inst.min_weight_floor()
        for run, cfg in ((chain, MetaConfig("chain", iteration_cap=5, rng_seed=3)),
                         (multichain, MetaConfig("multichain", c=2, iteration_cap=6, rng_seed=4))):
            search = make_local_search(f"{k}opt", inst.s)
            calls = []

            def checked(inst_, a):
                nonlocal fewer
                r = search(inst_, a)
                ref = k_opt(inst_, a, k)
                _assert_same_report(r, ref)
                if not calls:
                    assert r.candidate_evals == ref.candidate_evals, tag
                else:
                    clean = (a.perms == calls[-1].result.perms).all(axis=0)
                    above = row_weights(inst_, a) > floor + EPS
                    if chunk is None and clean.sum() >= k and (clean & above).any():
                        assert r.candidate_evals < ref.candidate_evals, tag
                    else:
                        assert r.candidate_evals <= ref.candidate_evals, tag
                fewer += r.candidate_evals < ref.candidate_evals
                calls.append(r)
                return r

            run(inst, trivial(inst), checked, cfg)
            assert len(calls) == cfg.iteration_cap
    assert fewer >= 20


@pytest.mark.parametrize("k", [2, 3])
def test_chained_kopt_keeps_its_own_copy(k):
    inst = generate(parse_instance_name("3c9", 1))
    search = make_local_search(f"{k}opt", inst.s)
    r = search(inst, trivial(inst))
    assert r.result != trivial(inst)
    # a caller rewrites the result in place: the callable must not see it
    r.result.perms[:] = trivial(inst).perms
    _assert_same_report(search(inst, r.result), k_opt(inst, r.result, k))


@pytest.mark.parametrize("k", [2, 3])
def test_chained_kopt_remembers_per_instance(rng, k):
    # two instances of one shape through one callable: a result for one is
    # not a local optimum of the other
    insts = [generate(parse_instance_name("3c9", i)) for i in (1, 2)]
    search = make_local_search(f"{k}opt", 3)
    a = trivial(insts[0])
    for step in range(6):
        inst = insts[step % 2]
        r = search(inst, a)
        _assert_same_report(r, k_opt(inst, a, k))
        a = r.result
    # an unrelated start on the same instance
    b = Assignment(np.vstack([np.arange(9)] + [rng.permutation(9) for _ in range(2)]))
    _assert_same_report(search(inst, b), k_opt(inst, b, k))


def test_kopt_rejects_local_optimum_of_another_shape(rng):
    inst = random_explicit(3, 5, rng)
    a = Assignment.identity(3, 5)
    with pytest.raises(ValueError, match="shape"):
        k_opt(inst, a, 2, local_optimum=Assignment.identity(3, 4))


# -- v-opt -------------------------------------------------------------------


def test_vopt_swap_set_sizes():
    # improved at s=3: floor(3/2)=1, so candidates are {}, {1}, {2}, {3}
    assert _swap_masks(3, 1).shape == (4, 3)
    assert _swap_masks(3, 3 // 2).shape == (4, 3)
    # improved at s=5: sizes 0..2
    assert _swap_masks(5, 2).shape == (1 + 5 + 10, 5)


def test_cached_tables_are_read_only():
    # every caller shares the lru_cached arrays, so a write must fail loudly
    with pytest.raises(ValueError, match="read-only"):
        _swap_masks(4, 2)[0, 0] = True
    with pytest.raises(ValueError, match="read-only"):
        localsearch._recombinations(3, 2)[0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        localsearch._row_subsets(5, 3)[0, 0] = 1


def test_vopt_natural_equals_improved_for_s3(rng):
    for _ in range(5):
        inst = random_explicit(3, 4, rng)
        a = Assignment.identity(3, 4)
        assert (
            v_opt(inst, a, "natural").final_weight
            == v_opt(inst, a, "improved").final_weight
        )


def test_vopt_fixpoint_unchanged():
    inst = explicit_instance(3, 3, np.zeros(27))
    a = Assignment.identity(3, 3)
    r = v_opt(inst, a, "improved")
    assert r.result == a


def test_vopt_monotone_and_valid(rng):
    for s, n in ((3, 5), (4, 4), (5, 3), (6, 3)):
        inst = random_explicit(s, n, rng)
        for variant in ("natural", "improved"):
            r = v_opt(inst, Assignment.identity(s, n), variant)
            assert r.final_weight <= r.initial_weight + 1e-9
            r.result.validate()
            assert abs(assignment_weight(inst, r.result) - r.final_weight) < 1e-9


def _reference_v_opt(inst, a, variant="improved"):
    """v_opt without its skip rules, frozen: every start grows its chain
    until the accumulated gain runs out. Returns (result, weight, passes)."""
    s, n = inst.s, inst.n
    masks = _swap_masks(s, 1 if variant == "natural" else s // 2)
    a = a.copy()
    w_rows = row_weights(inst, a)
    total = float(w_rows.sum())
    passes = 0
    run_improved = True
    while run_improved:
        passes += 1
        run_start = total
        for c0 in range(n):
            best_perms = a.perms.copy()
            best_rows = w_rows.copy()
            best_total = total
            avail = np.ones(n, dtype=bool)
            avail[c0] = False
            c_row = c0
            gain = 0.0
            while avail.any():
                c_vec = a.perms[:, c_row]
                rows = np.flatnonzero(avail)
                m_coords = a.perms[:, rows].T
                cand = np.where(masks[None, :, :], m_coords[:, None, :], c_vec[None, None, :])
                w = inst.weight_batch(cand.reshape(-1, s)).reshape(len(rows), -1)
                per_row = w.min(axis=1)
                mi = int(np.argmin(per_row))
                di = int(np.argmin(w[mi]))
                m_row = int(rows[mi])
                v = cand[mi, di]
                w_v = float(w[mi, di])
                gain += float(w_rows[c_row]) - w_v
                if gain <= EPS:
                    break
                m_vec = a.perms[:, m_row]
                v_bar = np.where(v == c_vec, m_vec, c_vec)
                avail[m_row] = False
                w_vbar = float(inst.weight_batch(v_bar[None, :])[0])
                total += w_v + w_vbar - float(w_rows[c_row]) - float(w_rows[m_row])
                a.perms[:, v[0]] = v
                a.perms[:, v_bar[0]] = v_bar
                w_rows[v[0]] = w_v
                w_rows[v_bar[0]] = w_vbar
                c_row = int(v_bar[0])
                if total < best_total - EPS:
                    best_perms = a.perms.copy()
                    best_rows = w_rows.copy()
                    best_total = total
            a.perms[:] = best_perms
            w_rows[:] = best_rows
            total = best_total
        run_improved = total < run_start - EPS
    return a, total, passes


def _vopt_starts(inst, variant, seed):
    """The trivial assignment, then perturbed v-opt local optima: the starts
    where most chains die at once and the skip rules fire."""
    a = trivial(inst)
    yield a
    rng = SplitMix64(seed)
    opt = _reference_v_opt(inst, a, variant)[0]
    for _ in range(3):
        yield perturb(opt, rng)


def _assert_vopt_matches_reference(inst, seed=0):
    for variant in ("natural", "improved"):
        for a in _vopt_starts(inst, variant, seed):
            ref, _, ref_passes = _reference_v_opt(inst, a, variant)
            r = v_opt(inst, a, variant)
            assert r.result == ref
            assert r.final_weight == assignment_weight(inst, ref)
            assert r.passes == ref_passes


def test_vopt_matches_reference_explicit(rng):
    for s, n in ((3, 6), (4, 5), (5, 4), (6, 3)):
        # non-integer weights
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        _assert_vopt_matches_reference(inst, seed=s)
        # few distinct values: many ties in the argmin and the gain tests
        inst = random_explicit(s, n, rng, lo=0, hi=3)
        _assert_vopt_matches_reference(inst, seed=s)


# 6c4, 7sr3 and 8c3 run 42, 64 and 163 improved masks, so their starts can
# fail the first step above the floor
@pytest.mark.parametrize("name", ["3r12", "4r7", "3gp12", "4gp6", "3c10", "4c6",
                                  "3g10", "4g6", "3sr10", "5sr5", "5r8", "3r30",
                                  "6c4", "7sr3", "8c3"])
def test_vopt_matches_reference_generated(name):
    for index in (1, 2):
        _assert_vopt_matches_reference(generate(parse_instance_name(name, index)), seed=index)


def _hidden_assignment_instances(rng):
    """(instance, hidden) pairs at 3x8 and 4x6: a cheap hidden assignment
    among expensive non-integer vectors."""
    for s, n in ((3, 8), (4, 6)):
        vals = rng.uniform(50.0, 60.0, size=n**s)
        hidden = Assignment(np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)]))
        vals[hidden.perms.T @ (n ** np.arange(s - 1, -1, -1))] = 1.0 + 0.5 * np.arange(n)
        yield explicit_instance(s, n, vals), hidden


def test_vopt_rerun_on_own_result_runs_no_chain(rng):
    # v-opt finds the hidden assignment, and from there every start above
    # the floor fails its first step's gain test, so a second run weighs one
    # step grid per such start and nothing else
    for inst, hidden in _hidden_assignment_instances(rng):
        s, n = inst.s, inst.n
        r1 = v_opt(inst, trivial(inst))
        assert r1.result == hidden
        r2 = v_opt(inst, r1.result)
        assert r2.result == hidden and r2.passes == 1
        live = int((row_weights(inst, hidden) - inst.min_weight_floor() > EPS).sum())
        assert 0 < live < n
        assert r2.candidate_evals == live * (n - 1) * len(_swap_masks(s, s // 2))


def test_vopt_weighs_nothing_at_the_floor(monkeypatch):
    # every row of a planted optimum sits at the floor: the floor skip
    # passes over each start, so only the row weights are weighed
    inst = generate(parse_instance_name("4gp6", 1))
    planted = inst.weights.planted
    sizes = []
    weight_batch = Instance.weight_batch

    def counting(self, coords):
        sizes.append(len(coords))
        return weight_batch(self, coords)

    monkeypatch.setattr(Instance, "weight_batch", counting)
    for variant in ("natural", "improved"):
        sizes.clear()
        r = v_opt(inst, planted, variant)
        assert r.result == planted and r.passes == 1
        assert r.candidate_evals == 0
        assert sizes == [inst.n]


def test_vopt_final_weight_is_exact(rng):
    # the chain's running total drifts on non-integer weights; the reported
    # weight must be the weight of the returned assignment
    for inst, _ in _hidden_assignment_instances(rng):
        r = v_opt(inst, trivial(inst))
        assert r.final_weight == assignment_weight(inst, r.result)


def test_vopt_batches_once_per_chain_step(monkeypatch):
    # w(v-bar) is read from the next step's empty-swap column, so a one-weight
    # swap kernel call is made only after a chain's grid over its last
    # available row (the |masks| candidates of that row), once per chain; and
    # nothing but the row weights goes through weight_batch
    inst = generate(parse_instance_name("5r8", 1))
    n_masks = len(_swap_masks(inst.s, inst.s // 2))
    sizes, batches = [], []
    model_class = type(inst.weights)
    swap_weigh, weight_batch = model_class.swap_weigh, Instance.weight_batch

    def counting(self, inst, rows, cols):
        w = swap_weigh(self, inst, rows, cols)
        sizes.append(w.size)
        return w

    def counting_batch(self, coords):
        batches.append(len(coords))
        return weight_batch(self, coords)

    monkeypatch.setattr(model_class, "swap_weigh", counting)
    monkeypatch.setattr(Instance, "weight_batch", counting_batch)
    r = v_opt(inst, trivial(inst))
    assert batches == [inst.n]
    assert sum(sizes) == r.candidate_evals
    one_row = [i for i, m in enumerate(sizes) if m == 1]
    assert r.final_weight < r.initial_weight
    assert one_row, "no chain ran out of rows: pick an instance with longer chains"
    assert all(sizes[i - 1] == n_masks for i in one_row)
    assert len(one_row) <= r.passes * inst.n


# v_opt reports recorded before its steps were weighed through the swap
# kernels: (name, index, start, variant, sha256 of the result's perms,
# final_weight, passes, candidate_evals). candidate_evals was re-recorded
# when the pair-minimum table went: a start above the floor now weighs its
# first step grid where it used to weigh its table row
_VOPT_REPORTS = [
    ("3r12", 1, "trivial", "improved", "516e2d44dff26db2", 33.0, 4, 5756),
    ("3r12", 2, "perturbed", "natural", "9d8ca367e470e501", 44.0, 4, 4413),
    ("3r30", 1, "greedy", "improved", "b88f2062e972ce24", 46.0, 4, 34226),
    ("5r8", 1, "trivial", "improved", "e41a57e6514791ab", 14.0, 3, 3141),
    ("5r8", 2, "greedy", "natural", "b4254e352356ed28", 21.0, 4, 1788),
    ("3gp12", 1, "trivial", "improved", "eed8807fcbf0fbe9", 23.0, 3, 2660),
    ("4gp6", 2, "perturbed", "improved", "536f1d2db4869184", 16.0, 3, 1422),
    ("3c10", 1, "trivial", "natural", "39a1ad8c7f70fda9", 545.0, 3, 2671),
    ("4c6", 1, "greedy", "improved", "bd7c287495a7364f", 1027.0, 3, 2988),
    ("3sr10", 2, "trivial", "improved", "d09f8ad9641185a9", 311.0, 3, 3682),
    ("5sr5", 1, "perturbed", "improved", "0abaebdbee4d3398", 608.0, 3, 2060),
    ("4g6", 1, "trivial", "improved", "5f4754122efe89ad", 1192.0, 3, 2102),
    ("6g4", 1, "trivial", "improved", "8f4dd37b664f1a7c", 2575.0, 3, 2656),
    ("3p12", 1, "trivial", "improved", "d229d926069dd8b9", 2503.0, 2, 4505),
    ("5p5", 2, "perturbed", "natural", "1e14bb6f0e666e28", 27793.0, 2, 488),
    ("8c3", 1, "trivial", "improved", "faf90e6c6fa36eed", 3224.0, 3, 3430),
]


@pytest.mark.parametrize("case", _VOPT_REPORTS, ids=lambda c: f"{c[0]}#{c[1]}-{c[2]}-{c[3]}")
def test_vopt_reports_match_the_recorded_ones(case):
    name, index, start, variant, digest, weight, passes, evals = case
    inst = generate(parse_instance_name(name, index))
    a = {"trivial": trivial, "greedy": greedy}.get(start, lambda i: perturb(greedy(i), SplitMix64(index)))(inst)
    r = v_opt(inst, a, variant)
    assert hashlib.sha256(r.result.perms.tobytes()).hexdigest()[:16] == digest
    assert (r.final_weight, r.passes, r.candidate_evals, r.ap2_calls) == (weight, passes, evals, 0)


def test_vopt_requires_n_at_least_two():
    inst = explicit_instance(3, 1, [1.0])
    with pytest.raises(ValueError):
        v_opt(inst, Assignment.identity(3, 1))


# -- combined ----------------------------------------------------------------


def test_combined_rejects_sdv_2opt():
    inst = explicit_instance(3, 3, np.zeros(27))
    with pytest.raises(ValueError):
        combined(inst, Assignment.identity(3, 3), "sdv", "2opt")


def test_combined_fixpoint_one_round():
    inst = explicit_instance(3, 3, np.zeros(27))
    a = Assignment.identity(3, 3)
    r = combined(inst, a, "sdv", "3opt")
    assert r.result == a and r.final_weight == 0.0


def test_combined_beats_components(rng):
    for _ in range(10):
        inst = random_explicit(3, 3, rng)
        a = Assignment.identity(3, 3)
        wc = combined(inst, a, "sdv", "3opt").final_weight
        assert wc <= dv_search(inst, a, "sdv").final_weight + 1e-9
        assert wc <= k_opt(inst, a, 3).final_weight + 1e-9


def test_combined_result_is_bilateral_local_optimum(rng):
    for _ in range(5):
        inst = random_explicit(3, 4, rng)
        r = combined(inst, Assignment.identity(3, 4), "sdv", "3opt")
        w = r.final_weight
        for kind in ("sdv", "3opt"):
            assert all(
                assignment_weight(inst, b) >= w - 1e-9
                for b in enumerate_neighborhood(inst, r.result, kind)
            )


def test_combined_with_vopt_monotone(rng):
    inst = random_explicit(4, 4, rng)
    r = combined(inst, Assignment.identity(4, 4), "sdv", "vopt")
    assert r.final_weight <= r.initial_weight
    r.result.validate()


def test_combined_reports_sum_its_phases():
    # combined's passes, 2-AP calls and candidate evals are the sums over
    # plain dv_search / k_opt / v_opt calls on its phases
    for name, index, dv, vectorwise, construct in _COMBINED_CASES:
        inst = generate(parse_instance_name(name, index))
        a = start = construct(inst)
        phases = []
        while len(phases) < 2 or phases[-1].final_weight < phases[-2].final_weight - EPS:
            if len(phases) % 2 == 0:
                r = dv_search(inst, a, dv)
            elif vectorwise == "vopt":
                r = v_opt(inst, a)
            else:
                r = k_opt(inst, a, 2 if vectorwise == "2opt" else 3)
            phases.append(r)
            a = r.result
        got = combined(inst, start, dv, vectorwise)
        assert got.result == a and got.final_weight == phases[-1].final_weight, name
        assert (got.passes, got.ap2_calls, got.candidate_evals) == (
            sum(r.passes for r in phases), sum(r.ap2_calls for r in phases),
            sum(r.candidate_evals for r in phases)), (name, index, dv, vectorwise)


@pytest.mark.parametrize("variant, vectorwise, v_variant", [
    ("sdv", "vopt", "bogus"), ("1dv", "3opt", "bogus"), ("bogus", "vopt", "improved"),
    ("3dv", "2opt", "natural"), ("sdv", "4opt", "improved"),
])
def test_combined_checks_its_arguments_before_any_phase(variant, vectorwise, v_variant, monkeypatch):
    def phase(*args, **kwargs):
        raise AssertionError("a phase ran")

    for search in ("dv_search", "k_opt", "v_opt"):
        monkeypatch.setattr(localsearch, search, phase)
    inst = generate(parse_instance_name("4c12", 1))
    with pytest.raises(ValueError):
        combined(inst, greedy(inst), variant, vectorwise, v_variant)


# -- enumeration oracle -------------------------------------------------------


def test_enumeration_sizes_small():
    rng = np.random.default_rng(3)
    inst = random_explicit(3, 3, rng)
    a = Assignment.identity(3, 3)
    assert len(enumerate_neighborhood(inst, a, "1dv")) == 16
    assert len(enumerate_neighborhood(inst, a, "2opt")) == 10
    assert len(enumerate_neighborhood(inst, a, "3opt")) == 36


def test_enumeration_guard():
    rng = np.random.default_rng(3)
    inst = random_explicit(3, 6, rng)
    with pytest.raises(ValueError):
        enumerate_neighborhood(inst, Assignment.identity(3, 6), "1dv")


def test_enumeration_containment(rng):
    inst = random_explicit(4, 3, rng)
    a = Assignment.identity(4, 3)
    e1 = enumerate_neighborhood(inst, a, "1dv")
    e2 = enumerate_neighborhood(inst, a, "2dv")
    es = enumerate_neighborhood(inst, a, "sdv")
    assert e1 <= e2 <= es
    assert a in e1


def test_make_local_search_names():
    ls = make_local_search("none", 3)
    inst = explicit_instance(3, 2, np.arange(8.0))
    a = Assignment.identity(3, 2)
    r = ls(inst, a)
    assert r.result == a and r.passes == 0
    with pytest.raises(ValueError):
        make_local_search("sdv+2opt", 3)
    with pytest.raises(ValueError):
        make_local_search("bogus", 3)


@pytest.mark.parametrize("name", LS_NAMES)
def test_make_local_search_refuses_an_unknown_v_variant(name):
    # refused when the search is built, whether or not the search reads it:
    # v-opt would raise only on its first call, after the construction ran
    with pytest.raises(ValueError, match="unknown v-opt variant 'bogus'"):
        make_local_search(name, 3, "bogus")
