import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from hypothesis import given, settings
from hypothesis import strategies as st

from chargepair import bethe, cli, reference_tables
from chargepair.bethe import (
    BetheConfig,
    BetheRoots,
    SolverError,
    bethe_residual,
    charge_gap,
    energy,
    l2_closed_forms,
    quantum_numbers,
    solve,
    state_roots,
)
from chargepair.fock import Sector
from chargepair.models import ModelParams, build_model


def dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def sector_levels(L, U, sector):
    h = build_model("charge_pair_transformed", ModelParams(L=L, U=U), sector=sector)
    return np.linalg.eigvalsh(dense(h))


#: (start, step, count) of q1 and q2 for each tabulated state at size L
_BRANCH_STARTS = {
    "ground": lambda L: (
        ((Fraction(L, 2), -1, L), (-Fraction(L - 2, 4), 1, L // 2)) if L % 2 == 0 else
        ((Fraction(L, 2), -1, L), (-Fraction(L - 1, 4), 1, (L - 1) // 2))),
    "charge_excitation": lambda L: (
        ((Fraction(L - 1, 2), -1, L - 1), (-Fraction(L - 2, 4), 1, L // 2 - 1)) if L % 2 == 0
        else ((Fraction(L - 2, 2), -1, L - 1), (-Fraction(L - 3, 4), 1, (L - 1) // 2))),
    "spin_excitation": lambda L: (
        (Fraction(L - 1, 2), -1, L), (-Fraction(L - 4, 4), 1, L // 2 - 1)),
    "first_excitation": lambda L: (
        (-Fraction(L, 2), 1, L), (Fraction(L - 1, 4), -1, (L - 1) // 2)),
}


class TestQuantumNumbers:
    def test_even_ground_sequences(self):
        cfg = quantum_numbers("ground", 6, 2.0)
        assert cfg.sector == Sector(3, 3)
        assert [float(q) for q in cfg.q1] == [3, 2, 1, 0, -1, -2]
        assert [float(q) for q in cfg.q2] == [-1, 0, 1]

    def test_even_charge_excitation_half_integers(self):
        cfg = quantum_numbers("charge_excitation", 6, 2.0)
        assert cfg.sector == Sector(3, 2)
        assert len(cfg.q1) == 5
        assert [float(q) for q in cfg.q1] == [2.5, 1.5, 0.5, -0.5, -1.5]

    def test_odd_ground_sequences(self):
        cfg = quantum_numbers("ground", 5, 2.0)
        assert cfg.sector == Sector(3, 2)
        assert [float(q) for q in cfg.q1] == [2.5, 1.5, 0.5, -0.5, -1.5]
        assert [float(q) for q in cfg.q2] == [-1, 0]

    def test_multiple_of_four_rejected(self):
        with pytest.raises(ValueError, match="2 \\(mod 4\\)"):
            quantum_numbers("ground", 8, 2.0)

    @pytest.mark.parametrize("L,expected", [(1, "odd"), (2, "even"), (65, "odd"),
                                            (1025, "odd"), (1038, "even")])
    def test_parity_class_follows_from_the_size(self, L, expected):
        assert bethe.parity(L) == expected

    @pytest.mark.parametrize("L", [0, 4, 64, 1024])
    def test_multiple_of_four_has_no_parity_class(self, L):
        with pytest.raises(ValueError, match=f"2 \\(mod 4\\), got L={L}$"):
            bethe.parity(L)

    @pytest.mark.parametrize("L", [-1, -2, -3, -6])
    def test_sizes_below_one_have_no_parity_class(self, L):
        with pytest.raises(ValueError, match=f"at least 1, got L={L}$"):
            bethe.parity(L)
        with pytest.raises(ValueError, match=f"got L={L}$"):
            quantum_numbers("ground", L, 2.0)

    def test_state_parity_pairing(self):
        with pytest.raises(ValueError):
            quantum_numbers("spin_excitation", 5, 2.0)
        with pytest.raises(ValueError):
            quantum_numbers("first_excitation", 6, 2.0)

    @pytest.mark.parametrize("U", [np.nan, np.inf, 0.0, -2.0])
    def test_coupling_must_be_finite_and_positive(self, U):
        with pytest.raises(ValueError, match=f"finite and positive, got U={U}"):
            BetheConfig(2, U, (Fraction(1), Fraction(0)), (Fraction(0),))

    def test_branch_numbers_strictly_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            BetheConfig(2, 1.0, (Fraction(1), Fraction(1)), (Fraction(0),))
        with pytest.raises(ValueError, match="monotone"):
            BetheConfig(3, 1.0, (Fraction(1), Fraction(3), Fraction(2)), (Fraction(0),))


    @settings(deadline=None)
    @given(st.one_of(st.integers(0, 550).map(lambda j: (2 * j + 1, bethe.STATES_ODD)),
                     st.integers(0, 275).map(lambda j: (4 * j + 2, bethe.STATES_EVEN))))
    def test_branch_numbers_equal_fraction_sums(self, case):
        # Fraction(x) is the exact value of the float x: each branch number,
        # and so each target, carries no rounding
        L, states = case
        for state in states:
            cfg = quantum_numbers(state, L, 2.0)
            levels = zip((cfg.q1, cfg.q2), _BRANCH_STARTS[state](L), cfg.targets, cfg.shifts)
            for q, (start, step, count), a, shift in levels:
                exact = [start + step * j for j in range(count)]
                assert all(type(x) is float for x in q)
                assert [Fraction(x) for x in q] == exact
                assert a.tolist() == [2.0 * np.pi * (float(x) + shift) for x in exact]

    @given(st.integers(-4 * bethe._MAX_L, 4 * bethe._MAX_L).map(lambda n: Fraction(n, 4)),
           st.sampled_from([-1, 1]), st.integers(0, 40))
    def test_branch_number_builder_equals_fraction_sums(self, start, step, count):
        q = bethe._branch_numbers(float(start), step, count)
        assert type(q) is tuple and all(type(x) is float for x in q)
        assert [Fraction(x) for x in q] == [start + step * j for j in range(count)]

    @pytest.mark.parametrize("state,L", [("ground", 13), ("charge_excitation", 14),
                                         ("first_excitation", 385), ("spin_excitation", 62)])
    def test_targets_are_read_only_and_exact(self, state, L):
        cfg = quantum_numbers(state, L, 2.0)
        for a, q, shift in zip(cfg.targets, (cfg.q1, cfg.q2), cfg.shifts):
            assert not a.flags.writeable
            assert a.tolist() == [2.0 * np.pi * (float(x) + shift) for x in q]
            with pytest.raises(ValueError):
                a[:1] = 0.0
        assert cfg.targets is cfg.targets


def _parent_theta1(x, U):
    return 2.0 * np.arctan(4.0 * x / U)


def _parent_theta2(x, U):
    return 2.0 * np.arctan(2.0 * x / U)


def _parent_dtheta1(x, U):
    return 8.0 * U / (U * U + 16.0 * x * x)


def _parent_dtheta2(x, U):
    return 4.0 * U / (U * U + 4.0 * x * x)


def _parent_residual(k, mu, config):
    """The residual as written with two theta1 matrices, theta1(sin k - mu)
    and theta1(mu - sin k): the reference for the one-matrix form."""
    U = config.U
    a1, a2 = config.targets
    sk = np.sin(k)
    f1 = config.L * k - a1
    if len(mu):
        f1 = f1 + _parent_theta1(sk[:, None] - mu[None, :], U).sum(axis=1)
        f2 = _parent_theta1(mu[:, None] - sk[None, :], U).sum(axis=1) - a2
        t2 = _parent_theta2(mu[:, None] - mu[None, :], U)
        np.fill_diagonal(t2, 0.0)
        return np.concatenate([f1, f2 - t2.sum(axis=1)])
    return f1


def _parent_jacobian_blocks(k, mu, config):
    """The Jacobian blocks with out-of-place kernels: the reference for the
    in-place ones."""
    U = config.U
    ck = np.cos(k)
    d1 = _parent_dtheta1(np.sin(k)[:, None] - mu[None, :], U)
    dk = config.L + ck * d1.sum(axis=1)
    e = _parent_dtheta2(mu[:, None] - mu[None, :], U)
    np.fill_diagonal(e, 0.0)
    diag = d1.sum(axis=0) - e.sum(axis=1)
    np.fill_diagonal(e, diag)
    return dk, ck, d1, e


def _parent_newton_step(k, mu, config, f):
    """The Schur step with out-of-place assembly: the reference for the
    in-place one."""
    dk, ck, d1, e = _parent_jacobian_blocks(k, mu, config)
    n = len(k)
    f1, f2 = f[:n], f[n:]
    w = d1.T * (ck / dk)
    step_mu = np.linalg.solve(e - w @ d1, f2 + w @ f1)
    step_k = (f1 + d1 @ step_mu) / dk
    return np.concatenate([step_k, step_mu])


class TestResidual:
    def test_converged_roots_self_consistent(self):
        cfg = quantum_numbers("ground", 6, 2.0)
        roots = solve(cfg)
        assert np.max(np.abs(bethe_residual(roots))) <= 1e-12

    def test_perturbation_scales_with_size(self):
        # leading linear term is L * delta; at strong coupling the arctan
        # correction to the diagonal is negligible
        cfg = quantum_numbers("ground", 6, 500.0)
        roots = solve(cfg)
        k = roots.k.copy()
        k[2] += 1e-6
        res = bethe_residual(BetheRoots(cfg, k, roots.mu, 0.0, 0))
        assert abs(res[2]) == pytest.approx(6 * 1e-6, rel=0.05)
        # at moderate coupling the row residual stays of that order
        cfg = quantum_numbers("ground", 6, 2.0)
        roots = solve(cfg)
        k = roots.k.copy()
        k[2] += 1e-6
        res = bethe_residual(BetheRoots(cfg, k, roots.mu, 0.0, 0))
        assert 6e-6 <= abs(res[2]) <= 3 * 6e-6

    def test_twisted_chain_roots_approach_the_full_equations(self):
        # free momenta and rapidities (U/2) lam from the twisted isotropic
        # chain: the residual of the full equations decays like 1/U
        def twisted_residual(U):
            cfg = quantum_numbers("ground", 6, U)
            a1 = cfg.targets[0]
            mu = (U / 2.0) * bethe._twisted_heisenberg_solve(cfg)
            return np.max(np.abs(bethe_residual(BetheRoots(cfg, a1 / cfg.L, mu, 0.0, 0))))

        weak = twisted_residual(50.0)
        strong = twisted_residual(500.0)
        assert strong < weak
        assert strong < 20.0 / 500.0


    @pytest.mark.parametrize("state,L", [("ground", 13), ("first_excitation", 13),
                                         ("charge_excitation", 385), ("ground", 1025)])
    def test_one_theta1_residual_is_bit_identical(self, state, L):
        cfg = quantum_numbers(state, L, 2.0)
        rng = np.random.default_rng(L)
        roots = state_roots(state, L, 2.0)
        points = [(roots.k, roots.mu),
                  (rng.uniform(-np.pi, np.pi, len(cfg.q1)), rng.normal(size=len(cfg.q2)))]
        for k, mu in points:
            assert np.array_equal(bethe._residual(k, mu, cfg), _parent_residual(k, mu, cfg))

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=80),
           st.floats(1e-3, 1e3))
    def test_theta1_is_odd_bit_for_bit(self, xs, U):
        # the one-matrix residual rests on this: theta1(mu - s) = -theta1(s - mu)
        x = np.array(xs)
        assert np.array_equal(bethe._theta(-x, 4.0, U).view(np.int64),
                              (-bethe._theta(x.copy(), 4.0, U)).view(np.int64))

    # couplings that are not powers of two, where a reordered scaling by U rounds differently
    @pytest.mark.parametrize("state,L,U", [("ground", 13, 3.0), ("first_excitation", 13, 0.7),
                                           ("charge_excitation", 385, 3.0),
                                           ("ground", 1025, 3.0)])
    def test_in_place_kernels_are_bit_identical(self, state, L, U):
        cfg = quantum_numbers(state, L, U)
        rng = np.random.default_rng(L + 7)
        roots = state_roots(state, L, U)
        n, m = len(cfg.q1), len(cfg.q2)
        points = [(roots.k, roots.mu),
                  (rng.uniform(-np.pi, np.pi, n), rng.normal(size=m)),
                  (rng.uniform(-np.pi, np.pi, n), rng.normal(scale=1e-3, size=m))]
        for k, mu in points:
            f = rng.normal(size=n + m)
            for new, old in zip(bethe._jacobian_blocks(k, mu, cfg),
                                _parent_jacobian_blocks(k, mu, cfg)):
                assert np.array_equal(new, old)
            assert np.array_equal(bethe._newton_step(k, mu, cfg, f),
                                  _parent_newton_step(k, mu, cfg, f))
            assert np.array_equal(bethe._residual(k, mu, cfg), _parent_residual(k, mu, cfg))

    def test_kernels_follow_the_scratch_as_it_grows_and_shrinks(self, monkeypatch):
        # from an empty scratch the buffers are allocated at L = 13, grow at
        # L = 1025, and serve L = 13, 385 and 13 as shorter views
        monkeypatch.setattr(bethe, "_SCRATCH", {})
        rng = np.random.default_rng(23)
        for L in (13, 1025, 13, 385, 13):
            cfg = quantum_numbers("ground", L, 3.0)
            n, m = len(cfg.q1), len(cfg.q2)
            k, mu = rng.uniform(-np.pi, np.pi, n), rng.normal(size=m)
            f = rng.normal(size=n + m)
            assert np.array_equal(bethe._residual(k, mu, cfg), _parent_residual(k, mu, cfg))
            for new, old in zip(bethe._jacobian_blocks(k, mu, cfg),
                                _parent_jacobian_blocks(k, mu, cfg)):
                assert np.array_equal(new, old)
            assert np.array_equal(bethe._newton_step(k, mu, cfg, f),
                                  _parent_newton_step(k, mu, cfg, f))
        assert {name: buf.size for name, buf in bethe._SCRATCH.items()} == {
            "nm_x": 1025 * 512, "nm_a": 1025 * 512, "nm_b": 1025 * 512,
            "mm_x": 512 * 512, "mm_a": 512 * 512}

    @pytest.mark.parametrize("U", [0.7, 3.0])
    @pytest.mark.parametrize("L", [13, 385, 1025])
    @pytest.mark.parametrize("state", ["ground", "charge_excitation", "first_excitation"])
    def test_newton_on_reused_differences_is_bit_identical(self, monkeypatch, state, L, U):
        # a whole solve, every step on the differences its residual left,
        # against the same solve on the out-of-place references
        config = quantum_numbers(state, L, U)
        new = solve(config)
        monkeypatch.setattr(bethe, "_residual", _parent_residual)
        monkeypatch.setattr(bethe, "_newton_step",
                            lambda k, mu, config, f, reuse=False: _parent_newton_step(k, mu, config, f))
        old = solve(config)
        assert np.array_equal(new.k, old.k) and np.array_equal(new.mu, old.mu)
        assert (new.residual_norm, new.iterations) == (old.residual_norm, old.iterations)


def _finite_difference_jacobian(fun, x, h=1e-6):
    cols = [(fun(x + h * e) - fun(x - h * e)) / (2.0 * h) for e in np.eye(len(x))]
    return np.column_stack(cols)


class TestJacobian:
    POINTS = [("ground", 13, 2.0), ("charge_excitation", 14, 0.7),
              ("first_excitation", 11, 5.0), ("spin_excitation", 10, 30.0)]

    @pytest.mark.parametrize("state,L,U", POINTS)
    def test_bethe_jacobian_matches_finite_differences(self, state, L, U):
        cfg = quantum_numbers(state, L, U)
        n = len(cfg.q1)
        rng = np.random.default_rng(L)
        x = np.concatenate([rng.uniform(-3.0, 3.0, n), rng.normal(size=len(cfg.q2))])
        fd = _finite_difference_jacobian(lambda y: bethe._residual(y[:n], y[n:], cfg), x)
        jac = bethe._jacobian(x[:n], x[n:], cfg)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))

    @pytest.mark.parametrize("state,L,U", POINTS)
    def test_schur_step_equals_dense_solve(self, state, L, U):
        cfg = quantum_numbers(state, L, U)
        n = len(cfg.q1)
        rng = np.random.default_rng(L + 1)
        k = rng.uniform(-3.0, 3.0, n)
        mu = rng.normal(size=len(cfg.q2))
        f = rng.normal(size=n + len(cfg.q2))
        dense_step = np.linalg.solve(bethe._jacobian(k, mu, cfg), f)
        schur_step = bethe._newton_step(k, mu, cfg, f)
        assert np.max(np.abs(schur_step - dense_step)) <= 1e-12 * np.max(np.abs(dense_step))

    @pytest.mark.parametrize("n,m", [(5, 2), (13, 6), (65, 32)])
    def test_twisted_chain_jacobian_matches_finite_differences(self, n, m):
        # the twisted chain is the rapidity block at U = 2 with every k at zero
        chain = replace(quantum_numbers("ground", n, 20.0), U=2.0)
        k = np.zeros(n)
        lam = np.random.default_rng(n).normal(size=m)
        fd = _finite_difference_jacobian(lambda y: bethe._residual(k, y, chain)[n:], lam)
        jac = bethe._jacobian(k, lam, chain)[n:, n:]
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))

    def test_vanishing_k_pivot_is_a_singular_jacobian(self):
        # k = pi and mu = 0 at L = 2, U = 4 make L + cos k * theta1'(sin k - mu) = 0
        cfg = BetheConfig(2, 4.0, (Fraction(1), Fraction(0)), (Fraction(0),))
        with pytest.raises(SolverError, match="singular") as err:
            bethe._newton(np.array([np.pi, np.pi]), np.zeros(1), cfg)
        assert err.value.residual > 0.0


class TestDampedNewton:
    def test_rootless_problem_raises_with_residual(self):
        # x^2 + 1 has no real root: no step may be accepted that raises the residual
        with pytest.raises(SolverError) as err:
            bethe._damped_newton(np.array([0.5]), lambda x: x * x + 1.0,
                                 lambda x, f: f / (2.0 * x))
        assert err.value.residual >= 1.0

    def test_twisted_chain_converges_in_few_steps(self, monkeypatch):
        # the twisted-chain seed of the L = 65 odd ground state: quadratic
        # convergence needs the exact Jacobian
        monkeypatch.setattr(bethe, "_MAX_ITER", 12)
        config = quantum_numbers("ground", 65, 20.0)
        lam = bethe._twisted_heisenberg_solve(config)
        chain = replace(config, U=2.0)
        assert np.max(np.abs(bethe._residual(np.zeros(65), lam, chain)[65:])) <= 1e-12
        assert np.all(np.diff(lam) > 0)

    def test_every_solve_stops_at_the_one_gate(self, monkeypatch):
        # a looser gate stops each run at the first iterate of the strict run
        # at or below it, with that residual, whatever the iterate sequence
        config = quantum_numbers("ground", 65, 2.0)
        histories = _spy_residual_histories(monkeypatch)
        strict = solve(config)
        bethe._twisted_heisenberg_solve(config)
        strict_histories = histories[:]
        assert len(strict_histories) == 2
        assert strict.iterations == len(strict_histories[0]) - 1
        assert strict.residual_norm == strict_histories[0][-1] <= 1e-12
        assert strict_histories[1][-1] <= 1e-12
        histories.clear()
        monkeypatch.setattr(bethe, "_TOL", 1e-6)
        loose = solve(config)
        bethe._twisted_heisenberg_solve(config)
        for strict_history, loose_history in zip(strict_histories, histories, strict=True):
            first = next(j for j, r in enumerate(strict_history) if r <= 1e-6)
            assert loose_history == strict_history[:first + 1]
        assert loose.iterations == len(histories[0]) - 1
        assert loose.residual_norm == histories[0][-1]

    def test_each_step_follows_the_residual_at_its_point(self):
        # the contract the reused differences rest on: newton_step(x, f) comes
        # right after f = residual(x), also after a rejected trial point
        config = quantum_numbers("first_excitation", 13, 0.25)
        n = len(config.q1)
        last, calls = {}, {"residual": 0, "step": 0}

        def residual(x):
            calls["residual"] += 1
            f = bethe._residual(x[:n], x[n:], config)
            if calls["residual"] == 2:
                f = np.full_like(f, np.inf)  # reject the first trial: the step is halved
            last["x"], last["f"] = x, f
            return f

        def newton_step(x, f):
            calls["step"] += 1
            assert x is last["x"] and f is last["f"]
            step = bethe._newton_step(x[:n], x[n:], config, f, reuse=True).copy()
            assert np.array_equal(step, bethe._newton_step(x[:n], x[n:], config, f))
            return step

        _, res, its = bethe._damped_newton(
            np.concatenate(bethe._counting_seed(config)), residual, newton_step)
        assert res <= 1e-12 and calls["step"] == its
        assert calls["residual"] > its + 1


def _spy_residual_histories(monkeypatch):
    """The max-norm residual at every iterate of each ``_damped_newton`` run,
    the accepted one last, one list per run in call order."""
    original, histories = bethe._damped_newton, []

    def spy(x, residual, newton_step):
        history = []
        histories.append(history)

        def step(x, f):
            history.append(float(np.max(np.abs(f))))
            return newton_step(x, f)

        x, best, its = original(x, residual, step)
        history.append(best)
        return x, best, its

    monkeypatch.setattr(bethe, "_damped_newton", spy)
    return histories


class TestValidatedRoots:
    def test_misordered_roots_raise(self):
        cfg = quantum_numbers("ground", 6, 2.0)
        roots = solve(cfg)
        bethe._validated_roots(roots.k, roots.mu, cfg, 0.0, 0)
        k = roots.k.copy()
        k[[1, 2]] = k[[2, 1]]
        with pytest.raises(SolverError, match="order"):
            bethe._validated_roots(k, roots.mu, cfg, 0.0, 0)
        with pytest.raises(SolverError, match="order"):
            bethe._validated_roots(roots.k, roots.mu[::-1].copy(), cfg, 0.0, 0)

    def test_collapsed_roots_raise(self):
        cfg = quantum_numbers("ground", 6, 2.0)
        roots = solve(cfg)
        mu = roots.mu.copy()
        mu[1] = mu[0]
        with pytest.raises(SolverError, match="collapsed"):
            bethe._validated_roots(roots.k, mu, cfg, 0.0, 0)


class TestSolve:
    def test_two_site_ground_state(self):
        cfg = quantum_numbers("ground", 2, 3.0)
        roots = solve(cfg)
        assert np.max(np.abs(np.sort(roots.k) - np.array([0.0, np.pi]))) < 1e-12
        assert abs(roots.mu[0]) < 1e-12
        assert abs(energy(roots) + 1.5) < 1e-12

    @pytest.mark.parametrize(
        "L,state",
        [(6, "ground"), (6, "charge_excitation"), (6, "spin_excitation"),
         (5, "ground"), (5, "first_excitation"), (5, "charge_excitation"),
         (7, "ground"), (7, "charge_excitation")],
    )
    def test_energy_matches_exact_diagonalization(self, L, state):
        U = 2.0
        cfg = quantum_numbers(state, L, U)
        e = energy(solve(cfg))
        levels = sector_levels(L, U, cfg.sector)
        assert np.min(np.abs(levels - e)) < 1e-10

    @pytest.mark.parametrize("L,state", [(6, "ground"), (5, "ground"),
                                         (6, "charge_excitation"), (5, "charge_excitation")])
    def test_tabulated_states_are_sector_minima(self, L, state):
        U = 2.0
        cfg = quantum_numbers(state, L, U)
        e = energy(solve(cfg))
        assert abs(sector_levels(L, U, cfg.sector)[0] - e) < 1e-10

    def test_small_coupling_uses_continuation(self):
        cfg = quantum_numbers("ground", 6, 0.25)
        roots = solve(cfg)
        assert np.max(np.abs(bethe_residual(roots))) <= 1e-12

    def test_twist_follows_from_ring_size(self):
        # the odd-L ground class built by hand, with no twist given: its
        # energy must be the lowest level of the (3, 2) block at L = 5
        q1 = tuple(Fraction(5, 2) - j for j in range(5))
        cfg = BetheConfig(5, 2.0, q1, (Fraction(-1), Fraction(0)))
        assert cfg.shifts == (-0.25, 0.5)
        e = energy(solve(cfg))
        assert abs(sector_levels(5, 2.0, Sector(3, 2))[0] - e) < 1e-10

    def test_paths_that_fail_raise_the_last_error(self, monkeypatch):
        # at U >= 20 the continuation would start at the target itself, so
        # the direct attempt is the only path and runs once
        seed = state_roots("ground", 6, 30.0)
        calls = []

        def stall(k, mu, config):
            calls.append(config.U)
            raise SolverError(f"stalled at U={config.U:g}", residual=1.0)

        monkeypatch.setattr(bethe, "_newton", stall)
        with pytest.raises(SolverError, match="U=30"):
            solve(quantum_numbers("ground", 6, 30.0))
        assert calls == [30.0]
        calls.clear()
        with pytest.raises(SolverError, match="U=20"):
            solve(quantum_numbers("ground", 6, 2.0))
        assert calls == [2.0, 20.0]
        # a seeded solve makes its one start from the seed
        calls.clear()
        with pytest.raises(SolverError, match="U=30"):
            solve(quantum_numbers("ground", 14, 30.0), seed=seed)
        assert calls == [30.0]


    def test_seeded_solve_at_its_coupling_builds_no_config(self, monkeypatch):
        seed = state_roots("ground", 65, 2.0)
        config = quantum_numbers("ground", 129, 2.0)
        post_init = BetheConfig.__post_init__
        built = []

        def counting(self):
            built.append(self.U)
            post_init(self)

        monkeypatch.setattr(BetheConfig, "__post_init__", counting)
        roots = solve(config, seed=seed)
        assert built == []
        assert np.max(np.abs(bethe_residual(roots))) <= 1e-12


#: a stored size about half of L, whose roots seed L
_HALF_SIZE = {225: 111, 385: 191}


class TestLadder:
    @pytest.mark.parametrize("U", [2.0, 3.0, 4.0, 20.0, 1000.0])
    @pytest.mark.parametrize("state,L", [(s, 142) for s in bethe.STATES_EVEN]
                             + [(s, 145) for s in bethe.STATES_ODD])
    def test_seeded_energy_equals_unseeded(self, monkeypatch, state, L, U):
        config = quantum_numbers(state, L, U)
        unseeded = energy(solve(config))
        newton = bethe._newton
        at_target = []

        def spy(k, mu, cfg):
            if cfg.L == L:
                at_target.append(cfg.U)
            return newton(k, mu, cfg)

        monkeypatch.setattr(bethe, "_newton", spy)
        roots = state_roots(state, L, U)
        assert roots.config == config
        # the size seed converged: the target size ran one Newton solve
        assert at_target == [U]
        assert abs(energy(roots) - unseeded) <= 1e-12

    def test_stalled_size_seed_falls_back_to_continuation(self, monkeypatch):
        config = quantum_numbers("ground", 65, 2.0)
        seed = state_roots("ground", 31, 2.0)
        unseeded = solve(config)
        newton = bethe._newton
        starts = []

        def stall_from_seed(k, mu, cfg):
            starts.append((k, mu, cfg.U))
            if len(starts) == 1:
                raise SolverError("damped Newton stalled", residual=1.0)
            return newton(k, mu, cfg)

        monkeypatch.setattr(bethe, "_newton", stall_from_seed)
        roots = solve(config, seed=seed)
        seeded_k, seeded_mu = bethe._start(config, seed)
        assert np.array_equal(starts[0][0], seeded_k) and np.array_equal(starts[0][1], seeded_mu)
        assert starts[0][2] == 2.0
        # the next run is the continuation's first coupling, not the target,
        # from the counting seed there
        guess_k, guess_mu = bethe._counting_seed(replace(config, U=20.0))
        assert np.array_equal(starts[1][0], guess_k) and np.array_equal(starts[1][1], guess_mu)
        assert starts[1][2] == 20.0
        assert np.max(np.abs(bethe_residual(roots))) <= 1e-12
        assert abs(energy(roots) - energy(unseeded)) <= 1e-12

    def test_weak_coupling_size_seeds_need_no_continuation(self, monkeypatch):
        # at U = 0.5 the bare interpolated seed stalled at L = 302 and fell
        # back to continuation in U; up a table column the edge-relaxed size
        # seeds converge in one Newton run at the target, after one cold
        # start at the smallest size
        newton = bethe._newton
        runs = []

        def spy(k, mu, cfg):
            runs.append((cfg.L, cfg.U))
            return newton(k, mu, cfg)

        monkeypatch.setattr(bethe, "_newton", spy)
        calls = _spy_solve(monkeypatch)
        for L in (62, 142, 302):
            roots = state_roots("ground", L, 0.5)
        assert calls == [(62, None), (142, 62), (302, 142)]
        assert runs == [(62, 0.5), (142, 0.5), (302, 0.5)]
        assert abs(energy(roots) - -385.79099058585325) <= 1e-12

    @pytest.mark.parametrize("L,U", [(385, 4.0), (225, 2.0)])
    def test_top_rung_takes_three_iterations(self, monkeypatch, L, U):
        # seeded from a stored size about half of L; a cold counting start
        # takes 4
        state_roots("ground", _HALF_SIZE[L], U)
        calls = _spy_solve(monkeypatch)
        assert state_roots("ground", L, U).iterations <= 3
        assert calls == [(L, _HALF_SIZE[L])]

    @pytest.mark.parametrize("state,L,U,seed_state,seed_L", [
        pytest.param("ground", 225, 2.0, "ground", 111, id="ground-225-2.0"),
        pytest.param("charge_excitation", 385, 4.0, "charge_excitation", 191,
                     id="charge_excitation-385-4.0"),
        # the outermost q2 + shift2 of the odd charge excitation lies beyond
        # the range of the ground's, where the seed's deviation is held
        pytest.param("charge_excitation", 385, 4.0, "ground", 385,
                     id="charge_excitation-385-4.0-from-ground")])
    def test_relaxed_seed_keeps_order_and_lowers_the_residual(
            self, monkeypatch, state, L, U, seed_state, seed_L):
        seed = state_roots(seed_state, seed_L, U)
        config = quantum_numbers(state, L, U)
        k, mu = bethe._start(config, seed)
        monkeypatch.setattr(bethe, "_relax_edges", lambda k, mu, config: (k, mu))
        bare_k, bare_mu = bethe._start(config, seed)
        for roots, q in ((k, config.q1), (mu, config.q2)):
            assert np.all(np.sign(np.diff(roots)) == np.sign(np.diff(np.array(q, dtype=float))))
        # only the outermost roots move
        r = bethe._EDGE_ROOTS
        assert np.array_equal(k[r:-r], bare_k[r:-r]) and np.array_equal(mu[r:-r], bare_mu[r:-r])
        relaxed = np.max(np.abs(bethe._residual(k, mu, config)))
        bare = np.max(np.abs(bethe._residual(bare_k, bare_mu, config)))
        assert relaxed < bare

    def test_failed_size_raises_and_stops_the_ladder(self, monkeypatch):
        # a size that fails is not stored, so it seeds no larger size, and
        # no smaller size is solved in its place
        state_roots("ground", 57, 4.0)
        original = bethe.solve
        calls = []

        def fail_at_115(config, *, seed=None):
            calls.append((config.L, seed.config.L if seed else None))
            if config.L == 115:
                raise SolverError("stalled at 115", residual=1.0)
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", fail_at_115)
        with pytest.raises(SolverError, match="stalled at 115") as err:
            state_roots("ground", 115, 4.0)
        assert err.value.residual == 1.0
        assert calls == [(115, 57)]
        state_roots("ground", 231, 4.0)
        assert calls == [(115, 57), (231, None)]

    def test_failure_at_the_target_raises(self, monkeypatch):
        original = bethe.solve

        def fail_at_target(config, *, seed=None):
            if config.L == 145:
                raise SolverError("stalled at the target", residual=2.0)
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", fail_at_target)
        with pytest.raises(SolverError, match="target") as err:
            state_roots("ground", 145, 2.0)
        assert err.value.residual == 2.0

    @pytest.mark.parametrize("state,U", [("ground", float("nan")), ("spin_excitation", 2.0)])
    def test_bad_input_above_the_floor_raises_before_any_rung(self, monkeypatch, state, U):
        calls = _spy_solve(monkeypatch)
        with pytest.raises(ValueError):
            state_roots(state, 1025, U)
        assert calls == []

    def test_small_sizes_solve_once_unseeded(self, monkeypatch):
        calls = []
        original = bethe.solve

        def spy(config, *, seed=None):
            calls.append((config.L, seed))
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", spy)
        roots = state_roots("charge_excitation", 33, 2.0)
        assert calls == [(33, None)]
        direct = original(roots.config)
        assert np.array_equal(roots.k, direct.k) and np.array_equal(roots.mu, direct.mu)


def _spy_newton(monkeypatch):
    """(config.L, config.U, iterations or None on failure) of every Newton run."""
    newton, runs = bethe._newton, []

    def spy(k, mu, cfg):
        try:
            out = newton(k, mu, cfg)
        except SolverError:
            runs.append((cfg.L, cfg.U, None))
            raise
        runs.append((cfg.L, cfg.U, out[3]))
        return out

    monkeypatch.setattr(bethe, "_newton", spy)
    return runs


#: every size of a parity class up to 39, and two table sizes of each class
_SWEEP_SIZES = [L for L in range(1, 40) if L % 4] + [62, 65, 142, 145]


class TestCountingSeed:
    @pytest.mark.parametrize("U", [0.25, 0.5, 2.0, 100.0])
    def test_every_tabulated_state_starts_cold_in_one_newton_run(self, monkeypatch, U):
        # the sweep the size ladder needed a floor for: each state from an
        # empty store, straight from the counting seed at its target U.  The
        # worst runs take 10 iterations (first_excitation) and 7 (ground).
        runs = _spy_newton(monkeypatch)
        for L in _SWEEP_SIZES:
            for state in (bethe.STATES_ODD if L % 2 else bethe.STATES_EVEN):
                bethe.state_energy.cache_clear()
                runs.clear()
                roots = state_roots(state, L, U)
                assert [(size, u) for size, u, _ in runs] == [(L, U)], (state, L)
                assert roots.residual_norm <= 1e-12

    def test_unseeded_weak_coupling_solve_is_one_newton_run(self, monkeypatch):
        # its continuation in U failed after 8.4 s from the decoupled guess
        runs = _spy_newton(monkeypatch)
        roots = solve(quantum_numbers("ground", 1038, 0.5))
        assert [(L, U) for L, U, _ in runs] == [(1038, 0.5)]
        assert roots.residual_norm <= 1e-12

    def test_cold_size_is_one_solve(self, monkeypatch):
        calls = _spy_solve(monkeypatch)
        state_roots("ground", 1038, 0.5)
        assert calls == [(1038, None)]

    @pytest.mark.parametrize("L", [22, 30])
    def test_continuation_converges_where_the_counting_seed_stalls(self, monkeypatch, L):
        # at U = 0.1 the even ground's counting seed stalls: z_c is flat to
        # rounding beyond |k| = pi/2, so its outermost momenta are undetermined
        runs = _spy_newton(monkeypatch)
        roots = solve(quantum_numbers("ground", L, 0.1))
        assert runs[0] == (L, 0.1, None)
        assert [u for _, u, _ in runs[1:]] == bethe._continuation_path(0.1)
        assert roots.residual_norm <= 1e-12

    def test_weak_coupling_seeds_from_the_floor_table(self, monkeypatch):
        built = []
        tables = bethe.liebwu.counting_tables
        monkeypatch.setattr(bethe.liebwu, "counting_tables",
                            lambda U: built.append(U) or tables(U))
        bethe._counting_seed(quantum_numbers("ground", 13, 1e-3))
        assert built == [bethe._SEED_U_FLOOR]

    def test_strong_coupling_starts_from_the_bounded_quadrature(self, monkeypatch):
        runs = _spy_newton(monkeypatch)
        roots = solve(quantum_numbers("ground", 145, 1e6))
        assert [(L, U) for L, U, _ in runs] == [(145, 1e6)]
        assert roots.residual_norm <= 1e-12


class TestEnergy:
    def test_empty_sector(self):
        cfg = BetheConfig(2, 3.0, (), ())
        roots = BetheRoots(cfg, np.zeros(0), np.zeros(0), 0.0, 0)
        assert energy(roots) == pytest.approx(1.5)

    def test_single_particle(self):
        cfg = BetheConfig(2, 3.0, (Fraction(1, 2),), ())
        roots = BetheRoots(cfg, np.array([np.pi / 2]), np.zeros(0), 0.0, 0)
        assert energy(roots) == pytest.approx(0.0, abs=1e-15)


class TestChargeGap:
    def test_even_gap_matches_exact_diagonalization(self):
        U = 2.0
        gap = charge_gap(6, U)
        e_half = sector_levels(6, U, Sector(3, 3))[0]
        e_hole = sector_levels(6, U, Sector(3, 2))[0]
        assert abs(gap - (e_hole - e_half)) < 1e-10

    def test_odd_gap_matches_exact_diagonalization(self):
        U = 2.0
        gap = charge_gap(5, U)
        e_ground = sector_levels(5, U, Sector(3, 2))[0]
        e_charge = sector_levels(5, U, Sector(2, 2))[0]
        assert abs(gap - (e_charge - e_ground)) < 1e-10

    @pytest.mark.parametrize("L,parity", [(142, "even"), (385, "odd")])
    def test_one_ground_ladder_and_one_seeded_excitation(self, monkeypatch, L, parity):
        # on an empty store the ground is one cold solve, a ladder of one rung
        assert bethe.parity(L) == parity
        original = bethe.solve
        calls = []

        def spy(config, *, seed=None):
            calls.append((config, seed))
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", spy)
        charge_gap(L, 2.0)
        assert len(calls) == 2
        assert calls[0] == (quantum_numbers("ground", L, 2.0), None)
        excitation, seed = calls[-1]
        assert excitation == quantum_numbers("charge_excitation", L, 2.0)
        assert seed.config == quantum_numbers("ground", L, 2.0)

    def test_excitation_takes_four_iterations(self, monkeypatch):
        newton = bethe._newton
        runs = []

        def spy(k, mu, cfg):
            out = newton(k, mu, cfg)
            runs.append((cfg, out[3]))
            return out

        monkeypatch.setattr(bethe, "_newton", spy)
        charge_gap(385, 4.0)
        assert runs[-1][0] == quantum_numbers("charge_excitation", 385, 4.0)
        assert runs[-1][1] <= 4

    def test_repeat_gap_faults_in_no_temporaries(self):
        # the Newton kernels reuse their scratch: a second gap touches no fresh
        # pages, where new temporaries per call cost about 4 800 minor faults
        # (the store is emptied first, or the second gap would solve nothing)
        resource = pytest.importorskip("resource")
        charge_gap(385, 4.0)
        bethe.state_energy.cache_clear()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        charge_gap(385, 4.0)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_gap_with_single_rapidity_levels_matches_exact_diagonalization(self):
        # at L = 3 both states have one rapidity: its edge relaxation has no
        # neighbour to keep order with
        U = 2.0
        e_ground = sector_levels(3, U, Sector(2, 1))[0]
        e_charge = sector_levels(3, U, Sector(1, 1))[0]
        assert abs(charge_gap(3, U) - (e_charge - e_ground)) < 1e-10

    @pytest.mark.parametrize("U", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("L,parity", [(6, "even"), (142, "even"), (5, "odd"), (145, "odd")])
    def test_gap_equals_difference_of_state_energies(self, L, parity, U):
        assert bethe.parity(L) == parity
        difference = (bethe.state_energy("charge_excitation", L, U)
                      - bethe.state_energy("ground", L, U))
        assert abs(charge_gap(L, U) - difference) <= 1e-12

    def test_ground_failure_at_the_size_raises(self, monkeypatch, capsys):
        original = bethe.solve
        ground = quantum_numbers("ground", 62, 2.0)

        def fail_at_ground(config, *, seed=None):
            if config == ground:
                raise SolverError("ground stalled", residual=3.0)
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", fail_at_ground)
        with pytest.raises(SolverError, match="ground stalled") as err:
            charge_gap(62, 2.0)
        assert err.value.residual == 3.0
        assert cli.main(["gap", "--L", "62", "--U", "2"]) == 1
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("U", [0.5, 2.0, 7.0])
    def test_one_site_gap_is_half_the_coupling(self, U):
        # the L = 1 excitation is the empty state, seeded from a ground state
        # with no rapidities: neither level has anything to interpolate
        assert abs(charge_gap(1, U) - U / 2.0) <= 1e-15

    def test_parity_preconditions(self):
        with pytest.raises(ValueError, match="2 \\(mod 4\\)"):
            charge_gap(8, 2.0)
        with pytest.raises(ValueError, match="2 \\(mod 4\\)"):
            charge_gap(64, 2.0)


def _spy_solve(monkeypatch):
    """(config.L, seed size or None) of every ``bethe.solve`` call, in order."""
    original, calls = bethe.solve, []

    def spy(config, *, seed=None):
        calls.append((config.L, seed.config.L if seed else None))
        return original(config, seed=seed)

    monkeypatch.setattr(bethe, "solve", spy)
    return calls


class TestStateEnergyStore:
    @pytest.mark.parametrize("state", ["ground", "first_excitation"])
    def test_table_columns_climb_to_the_fresh_energies(self, monkeypatch, state):
        # the columns of tables 8/9 at U = 2: each size is seeded from the
        # one below it, at the target coupling only, and reaches the energy
        # of a ladder solved from the floor
        sizes = [L for L in reference_tables.ODD_SIZES if L <= 385]
        newton, couplings = bethe._newton, []

        def spy(k, mu, cfg):
            couplings.append(cfg.U)
            return newton(k, mu, cfg)

        monkeypatch.setattr(bethe, "_newton", spy)
        stored = [bethe.state_energy(state, L, 2.0) for L in sizes]
        assert set(couplings) == {2.0}
        monkeypatch.setattr(bethe, "_newton", newton)
        for L, e in zip(sizes, stored):
            bethe.state_energy.cache_clear()
            assert abs(e - energy(state_roots(state, L, 2.0))) <= 1e-12

    def test_each_size_climbs_from_the_largest_stored_one_below(self, monkeypatch):
        calls = _spy_solve(monkeypatch)
        bethe.state_energy("ground", 65, 2.0)
        assert calls == [(65, None)]
        del calls[:]
        # a stored size seeds up to _SEED_RATIO = 2.5 times above it directly
        bethe.state_energy("ground", 145, 2.0)
        assert calls == [(145, 65)]
        del calls[:]
        bethe.state_energy("ground", 225, 2.0)
        assert calls == [(225, 145)]
        del calls[:]
        # no odd size seeds an even one, and a repeat solves nothing
        bethe.state_energy("ground", 142, 2.0)
        assert calls == [(142, None)]
        del calls[:]
        bethe.state_energy("ground", 145, 2.0)
        assert calls == []
        # a size more than 2.5 times above every stored one starts cold
        bethe.state_energy("ground", 625, 2.0)
        assert calls == [(625, None)]
        del calls[:]
        # another state at a stored ground's size is one solve seeded from
        # that ground, the only roots stored at L = 225
        bethe.state_energy("first_excitation", 225, 2.0)
        assert calls == [(225, 225)]

    def test_seed_more_than_the_ratio_below_is_not_used(self, monkeypatch):
        # at U = 0.5 a 17x seed (62 -> 1038) stalls, and the continuation in U
        # that follows fails after seconds: the size starts cold
        bethe.state_energy("ground", 62, 0.5)
        calls = _spy_solve(monkeypatch)
        bethe.state_energy("ground", 1038, 0.5)
        assert calls == [(1038, None)]

    def test_rungs_of_a_climb_are_stored(self, monkeypatch):
        # L = 62 is a rung of a ground column climbed to L = 302: the gap
        # solves only its excitation, seeded from the ground stored at 62
        for L in (62, 142, 302):
            bethe.state_energy("ground", L, 2.0)
        calls = []
        original = bethe.solve

        def spy(config, *, seed=None):
            calls.append((config, seed))
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", spy)
        charge_gap(62, 2.0)
        assert len(calls) == 1
        excitation, seed = calls[0]
        assert excitation == quantum_numbers("charge_excitation", 62, 2.0)
        assert seed.config == quantum_numbers("ground", 62, 2.0)

    def test_cache_clear_drops_the_roots(self, monkeypatch):
        bethe.state_energy("ground", 65, 2.0)
        bethe.state_energy.cache_clear()
        calls = _spy_solve(monkeypatch)
        bethe.state_energy("ground", 145, 2.0)
        assert calls == [(145, None)]

    def test_cache_info_counts_as_lru_cache(self):
        reference = lru_cache(maxsize=4096)(lambda state, L, U: 0.0)
        lookups = [("ground", 13, 2.0), ("ground", 13, 2.0), ("ground", 27, 2.0),
                   ("first_excitation", 13, 2.0), ("ground", 13, 3.0), ("ground", 13, 2),
                   ("ground", 27, 2.0), ("ground", 14, 2.0)]
        for i, args in enumerate(lookups):
            bethe.state_energy(*args)
            reference(*args)
            assert bethe.state_energy.cache_info() == reference.cache_info(), i
        bethe.state_energy.cache_clear()
        reference.cache_clear()
        assert bethe.state_energy.cache_info() == reference.cache_info()
        assert bethe.state_energy.cache_info().hits == 0

    def test_store_drops_its_oldest_roots_when_full(self, monkeypatch):
        monkeypatch.setattr(bethe, "_STORE_SIZE", 2)
        for L in (5, 7, 9):
            bethe.state_energy("ground", L, 2.0)
        assert bethe.state_energy.cache_info().currsize == 2
        calls = _spy_solve(monkeypatch)
        bethe.state_energy("ground", 9, 2.0)
        bethe.state_energy("ground", 5, 2.0)
        assert calls == [(5, None)]


class TestClosedForms:
    def test_strong_coupling_row(self):
        rows = l2_closed_forms(6.0)
        upper = rows[3]
        z1, z2 = upper["exp_ik"]
        assert abs(z1 - (-6 - np.sqrt(20)) / 4) < 1e-14
        assert abs(z1.imag) == 0.0
        assert upper["energy"] == pytest.approx(3.0)

    def test_free_case(self):
        rows = l2_closed_forms(0.0)
        assert rows[2]["energy"] == pytest.approx(0.0)

    @pytest.mark.parametrize("U", [0.5, 2.0, 3.9, 4.0, 7.3])
    def test_momentum_product_from_quadratic(self, U):
        z1, z2 = l2_closed_forms(U)[3]["exp_ik"]
        assert abs(z1 * z2 - 1.0) < 1e-12
        assert abs(z1 + z2 + U / 2) < 1e-12

    def test_unit_modulus_below_threshold(self):
        z1, z2 = l2_closed_forms(2.0)[3]["exp_ik"]
        assert abs(abs(z1) - 1.0) < 1e-12 and abs(abs(z2) - 1.0) < 1e-12

    @pytest.mark.parametrize("U", [np.nan, np.inf, -np.inf])
    def test_coupling_must_be_finite(self, U):
        with pytest.raises(ValueError, match=f"finite, got U={U}$"):
            l2_closed_forms(U)

    def test_rows_are_transformed_sector_levels(self):
        for U in (1.0, 2.5, 6.0):
            for row in l2_closed_forms(U):
                levels = sector_levels(2, U, row["sector"])
                assert np.min(np.abs(levels - row["energy"])) < 1e-12


class TestStrongCoupling:
    def test_deviation_small_and_decaying(self):
        d200 = bethe.strong_coupling_check(5, Fraction(1, 2), 200.0)
        d400 = bethe.strong_coupling_check(5, Fraction(1, 2), 400.0)
        assert d200 < 5e-2
        # the symmetric momentum set cancels the linear term, so the decay
        # is at least 1/U (observed close to 1/U^2)
        assert d400 < 0.6 * d200

    def test_spin_imbalance_keeps_the_first_ground_rapidities(self, monkeypatch):
        # n = 3/2 at L = 7: the (5, 2) sector, whose q2 are the first two of
        # the three ground branch numbers
        original = bethe.solve
        solved = []

        def spy(config, *, seed=None):
            solved.append(config)
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", spy)
        d100 = bethe.strong_coupling_check(7, Fraction(3, 2), 100.0)
        d200 = bethe.strong_coupling_check(7, Fraction(3, 2), 200.0)
        ground = quantum_numbers("ground", 7, 200.0)
        assert solved[-1].sector == Sector(5, 2)
        assert solved[-1].q1 == ground.q1 and solved[-1].q2 == ground.q2[:2]
        assert d200 < 5e-2
        assert d200 < 0.6 * d100

    def test_rescaling_preserves_symmetric_configuration(self):
        U = 200.0
        cfg = quantum_numbers("ground", 5, U)
        roots = solve(cfg)
        mu = np.sort(roots.mu)
        lam = np.sort(2.0 * roots.mu / U)
        # both sets symmetric about zero, with the tolerance scaling linearly
        assert np.max(np.abs(lam + lam[::-1])) < 1e-8
        assert np.max(np.abs(mu + mu[::-1])) < 1e-8 * (U / 2.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bethe.strong_coupling_check(6, Fraction(1, 2), 200.0)
        with pytest.raises(ValueError):
            bethe.strong_coupling_check(5, Fraction(1, 2), 10.0)
        with pytest.raises(ValueError):
            bethe.strong_coupling_check(5, Fraction(1), 200.0)


def test_half_filled_ground_momenta_symmetric():
    cfg = quantum_numbers("ground", 6, 2.0)
    roots = solve(cfg)
    sk = np.sort(np.sin(roots.k))
    assert np.max(np.abs(sk + sk[::-1])) < 1e-12
    total = np.sum(roots.k)
    assert abs(np.sin(total)) < 1e-12   # total momentum 0 mod pi
