"""Potential-flow solver unit tests: closure, residual, Jacobian systems,
damped Newton stages and epsilon-continuation."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import selfsim as ss
from selfsim import field as fld, potential
from selfsim.errors import (CapExceeded, ConfigError, IndefiniteSystem,
                            LinearStagnation, NonConvergence)

from conftest import quiescent_field


@pytest.fixture
def law():
    return ss.GasLaw(a=1.0, gamma=2.0)


@pytest.fixture
def grid():
    return ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 17, 17)


def test_c2_closure_quiescent(law, grid):
    phi = quiescent_field(grid)
    c2, clamped = potential.c2_of_phi(law, phi)
    # -(gamma-1)(phi + |grad phi|^2/2) = -(|xi|^2/2 - 1 + |xi|^2/2) ... = 1
    assert np.max(np.abs(c2.values - 1.0)) < 1e-12
    assert clamped == 0


def test_c2_closure_isothermal(grid):
    law1 = ss.GasLaw(a=2.0, gamma=1.0)
    phi = quiescent_field(grid)
    c2, clamped = potential.c2_of_phi(law1, phi)
    assert np.all(c2.values == 4.0) and clamped == 0


def test_c2_clamping(law, grid):
    phi = ss.ScalarField.from_function(grid, lambda x, y: 5.0 + 0 * x)
    c2, clamped = potential.c2_of_phi(law, phi, c2_floor=1e-8)
    assert clamped == grid.nx * grid.ny
    assert np.all(c2.values == 1e-8)


def test_residual_zero_at_quiescent(law, grid):
    phi = quiescent_field(grid)
    r = potential.residual_Q(law, phi)
    assert np.max(np.abs(r.values)) < 1e-12


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_residual_zero_at_quiescent_every_gamma(gamma, grid):
    # phi* = -|xi|^2/2 - 1 solves Q for every closure with c^2 > 0 on the
    # grid; for the isothermal law Q carries the constant 2 c^2 = 2 a^2
    law = ss.GasLaw(a=2.0 if gamma == 1.0 else 1.0, gamma=gamma)
    for g in (grid, ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)):
        phi = quiescent_field(g)
        for c2_floor in (1e-8, -np.inf):
            r = potential.residual_Q(law, phi, c2_floor=c2_floor)
            assert np.max(np.abs(r.values)) < 1e-12
    # frame ring of the residual field is zeroed by convention
    r2 = potential.residual_Q(law, ss.ScalarField.from_function(
        grid, lambda x, y: np.sin(x + y)))
    assert np.all(r2.values[0, :] == 0.0) and np.all(r2.values[:, 0] == 0.0)


def test_epsilon_schedule():
    s = potential.EpsilonSchedule(eps0=0.1, ratio=0.5, eps_min=1e-2)
    assert s.stages() == pytest.approx([0.1, 0.05, 0.025, 0.0125, 1e-2])
    with pytest.raises(ConfigError):
        potential.EpsilonSchedule(eps0=1e-7, eps_min=1e-6)
    with pytest.raises(ConfigError):
        potential.EpsilonSchedule(ratio=1.5)
    with pytest.raises(ConfigError):  # stages() would never reach eps_min
        potential.EpsilonSchedule(eps0=np.inf)


@pytest.mark.parametrize("eps_min", [1e-9, 1e-12])
def test_epsilon_schedule_keeps_its_ratio_down_to_a_small_eps_min(eps_min):
    # eps_min is reached by steps no larger than ratio: a tolerance absolute
    # in eps, of the size of eps_min, must not jump the last stages
    s = potential.EpsilonSchedule(eps0=0.1, ratio=0.5, eps_min=eps_min)
    stages = np.array(s.stages())
    assert stages[-1] == eps_min and stages[-2] > eps_min
    assert np.all(stages[1:] / stages[:-1] >= 0.5)


def test_params_validation():
    with pytest.raises(ConfigError):
        potential.PicardParams(tol_fixed_point=-1.0)
    with pytest.raises(ConfigError):
        potential.PotentialProblem(
            law=ss.GasLaw(), grid=ss.Grid2D(0, 1, 0, 1, 5, 5),
            phi_b=ss.ScalarField.zeros(ss.Grid2D(0, 1, 0, 1, 5, 5)),
            c2_floor=-1.0)


def test_frozen_apply_matches_matrix(law, grid):
    rng = np.random.default_rng(5)
    w = ss.ScalarField(grid, quiescent_field(grid).values
                       + 0.01 * rng.normal(size=grid.shape))
    sys_ = potential.assemble_frozen(law, w, eps=1e-3)
    # the matrix holds the interior unknowns only: it equals the stencil on
    # a field that is zero on the frame
    f = np.zeros(grid.shape)
    f[1:-1, 1:-1] = rng.normal(size=(grid.ny - 2, grid.nx - 2))
    a = sys_.apply(f)[1:-1, 1:-1]
    b = (sys_.matrix() @ f[1:-1, 1:-1].ravel()).reshape(a.shape)
    assert np.max(np.abs(a - b)) < 1e-11
    assert sys_.lambda_min > 0


def test_assemble_frozen_caps(law, grid):
    big = ss.ScalarField.from_function(grid, lambda x, y: 2e6 + 0 * x)
    with pytest.raises(CapExceeded):
        potential.assemble_frozen(law, big, eps=0.0)
    nan = ss.ScalarField.zeros(grid)
    nan.values[1, 1] = np.nan
    with pytest.raises(CapExceeded):
        potential.assemble_frozen(law, nan, eps=0.0)


def test_linear_solve_recovers_manufactured(law, grid):
    X, Y = grid.meshgrid()
    target = ss.ScalarField(
        grid, quiescent_field(grid).values
        + 0.05 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    sys_ = potential.assemble_frozen(law, target, eps=1e-3)
    rhs = ss.ScalarField(grid, sys_.apply(target.values))
    got = potential.solve_linear_dirichlet(sys_, rhs, target)
    assert np.max(np.abs(got.values - target.values)) < 1e-10


@pytest.mark.parametrize("norms, corrections, last", [
    # the 129^2 decompose: within lin_tol, the first correction does not
    # halve |r|, and it stops there
    ([6.9e-13, 4.7e-13], 1, 4.7e-13),
    # three corrections, each measured, the last one included
    ([1.0, 0.5, 0.25, 0.125], 3, 0.125),
    ([1e-14], 0, 1e-14),             # on target before any correction
    ([1.0, 1e-14], 1, 1e-14),
    ([1.0, np.nan], 1, np.nan),
    # a correction that raises |r| far is undone, not returned
    ([1.0, 0.5, 7.0], 2, 7.0),
    # above lin_tol a correction that does not halve |r| is followed by more
    ([1.0, 0.9, 0.8, 0.7], 3, 0.7),
    # within lin_tol: halving goes on, the first correction short of it
    # is kept and ends the refinement
    ([5e-12, 4e-12], 1, 4e-12),
    ([5e-12, 2e-12, 1.5e-12], 2, 1.5e-12)])
def test_refine_measures_every_correction(norms, corrections, last):
    # residual() returns the scripted norms one at a time; the target is
    # 0.01 lin_tol = 1e-13 with lin_tol = 1e-11; x counts the corrections
    # applied to it
    script = iter(norms)
    corrected = []
    x = np.zeros(1)

    def correct(r):
        corrected.append(r[0])
        x[0] += 1

    got = potential.refine(x, lambda: np.array([next(script)]), correct,
                           lambda: 1.0, lin_tol=1e-11)
    assert len(corrected) == corrections
    assert next(script, None) is None  # every residual was measured
    # each correction gets the residual measured just before it
    assert corrected == norms[:corrections]
    # x is left at the smallest |r| measured, and that |r| is returned: the
    # last one only when its correction is kept
    best = int(np.nanargmin(norms))
    assert x[0] == best and got == norms[best]
    assert (got == last) == (best == len(norms) - 1)


def test_linear_solve_rejects_indefinite(law, grid):
    # |grad w| >> c^2 makes the frozen principal part indefinite
    w = ss.ScalarField.from_function(grid, lambda x, y: 3.0 * x)
    sys_ = potential.assemble_frozen(law, w, eps=0.0)
    assert sys_.lambda_min <= 0
    with pytest.raises(IndefiniteSystem):
        potential.solve_linear_dirichlet(sys_, None, w)


def test_picard_fixed_point_quiescent(law, grid):
    prob = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    phi, rep = potential.picard_solve(prob, eps=1e-4)
    assert rep.converged
    exact = quiescent_field(grid)
    assert np.max(np.abs(phi.values - exact.values)) < 1e-3  # O(eps) bias
    assert rep.final_residual < 1e-8
    assert np.min(rep.c2.values) > 0 and rep.clamped == 0


def test_picard_nonconvergence_carries_best(law, grid):
    prob = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    params = potential.PicardParams(max_iters=1, tol_fixed_point=1e-16)
    with pytest.raises(NonConvergence) as exc:
        potential.picard_solve(prob, eps=1e-2, params=params)
    assert exc.value.best is not None
    assert exc.value.report.iterations == 1


def test_epsilon_continuation_small(law, grid):
    prob = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    phi, rep = potential.epsilon_continuation(
        prob, schedule=potential.EpsilonSchedule(eps0=0.1, ratio=0.25,
                                                 eps_min=1e-4))
    assert rep.status == "Converged"
    assert rep.final_eps == 0.0  # the eps = 0 polish pass succeeded
    exact = quiescent_field(grid)
    assert np.max(np.abs(phi.values - exact.values)) < 1e-9
    assert rep.audit == "Pass"
    d = rep.to_dict()
    assert d["status"] == "Converged" and isinstance(d["stages"], list)


def test_epsilon_continuation_isothermal_quiescent(grid):
    law = ss.GasLaw(a=2.0, gamma=1.0)
    prob = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    phi, rep = potential.epsilon_continuation(
        prob, schedule=potential.EpsilonSchedule(eps0=0.1, ratio=0.25,
                                                 eps_min=1e-4))
    assert rep.status == "Converged"
    assert rep.final_eps == 0.0
    exact = quiescent_field(grid)
    assert np.max(np.abs(phi.values - exact.values)) < 1e-9


GAMMAS = (-1.0, -0.5, 0.5, 1.0, 1.4, 2.0, 3.0)


def _gamma_problem(gamma, grid, amplitude, phase=0.3):
    """Quiescent data with c^2 = 1 (K = -1/(gamma - 1); a = 1, K = -1 for
    the isothermal law) plus amplitude * sin(pi (xi1 + 2 xi2) + phase)."""
    law = ss.GasLaw(a=1.0, gamma=gamma, rho_floor=0.1 if gamma < 1 else 0.0)
    K = -1.0 if gamma == 1.0 else -1.0 / (gamma - 1.0)
    exact = quiescent_field(grid, K)
    X, Y = grid.meshgrid()
    phi_b = ss.ScalarField(grid, exact.values + amplitude * np.sin(
        np.pi * (X + 2.0 * Y) + phase))
    return potential.PotentialProblem(law=law, grid=grid, phi_b=phi_b), exact


@pytest.mark.parametrize("gamma", GAMMAS)
def test_epsilon_continuation_quiescent_every_gamma(gamma, grid):
    prob, exact = _gamma_problem(gamma, grid, 0.0)
    phi, rep = potential.epsilon_continuation(prob)
    assert rep.status == "Converged"
    assert np.max(np.abs(phi.values - exact.values)) <= 1e-9


@pytest.mark.parametrize("gamma", GAMMAS)
def test_epsilon_continuation_perturbed_every_gamma(gamma, grid):
    prob, _ = _gamma_problem(gamma, grid, 0.02)
    _, rep = potential.epsilon_continuation(prob)
    assert rep.status == "Converged"
    assert rep.final_eps == 0.0
    assert rep.audit == "Pass"


def _splu_spy(monkeypatch):
    factors = []
    splu = spla.splu

    def spy(*args, **kwargs):
        factors.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return factors


def test_continuation_factorization_count(monkeypatch):
    # the solve-potential benchmark input shape: 33^2, gamma = 2,
    # phi_b = -|xi|^2/2 - 1 + 0.02 sin(pi (xi1 + 2 xi2)); LUs counted
    # without host timing noise
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)
    X, Y = grid.meshgrid()
    phi_b = ss.ScalarField(grid, quiescent_field(grid).values
                           + 0.02 * np.sin(np.pi * (X + 2.0 * Y)))
    prob = potential.PotentialProblem(law=ss.GasLaw(a=1.0, gamma=2.0),
                                      grid=grid, phi_b=phi_b)
    factors = _splu_spy(monkeypatch)
    _, rep = potential.epsilon_continuation(prob)
    assert rep.status == "Converged"
    assert len(factors) == sum(s["iterations"] for s in rep.stages)
    assert len(factors) <= 25


def test_solve_takes_the_direct_path(monkeypatch):
    # the same input: Newton at eps = 0 from phi_b needs no continuation
    # and lands on the continuation's phi
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)
    prob, _ = _gamma_problem(2.0, grid, 0.02, phase=0.0)
    phi_c, _ = potential.epsilon_continuation(prob)
    factors = _splu_spy(monkeypatch)
    phi, rep = potential.solve(prob)
    assert (rep.status, rep.path, rep.final_eps) == ("Converged", "direct",
                                                     0.0)
    assert len(rep.stages) == 1 and rep.errors == []
    assert len(factors) == rep.stages[0]["iterations"] <= 3
    assert np.max(np.abs(phi.values - phi_c.values)) <= 1e-10


def test_solve_falls_back_where_phi_b_is_not_elliptic():
    # phi_b itself fails the margin check at eps = 0; the first eps stage
    # regularizes it, and the continuation converges
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)
    prob, _ = _gamma_problem(2.0, grid, 0.065, phase=np.pi / 2)
    with pytest.raises(IndefiniteSystem,
                       match="ellipticity margin -3.477e-02 <= 0") as exc:
        potential.picard_solve(prob, 0.0)
    assert exc.value.report.iterations == 0
    phi, rep = potential.solve(prob)
    assert (rep.status, rep.path, rep.final_eps) == ("Converged",
                                                     "continuation", 0.0)
    assert rep.errors == []
    phi_c, _ = potential.epsilon_continuation(prob)
    assert np.array_equal(phi.values, phi_c.values)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_solve_quiescent_every_gamma(gamma, grid):
    prob, exact = _gamma_problem(gamma, grid, 0.0)
    phi, rep = potential.solve(prob)
    assert (rep.status, rep.path) == ("Converged", "direct")
    assert np.max(np.abs(phi.values - exact.values)) <= 1e-9


@pytest.mark.parametrize("call", [1, 2])
def test_margin_failure_carries_the_report(grid, monkeypatch, call):
    # the margin check fails at the first iterate (a fresh Jacobian,
    # assembled but never factored) or at the second (a reused LU); the
    # report counts only the factorizations that were made
    prob, _ = _gamma_problem(2.0, grid, 0.02)
    factors = _splu_spy(monkeypatch)
    check = potential._checked_principal_part
    calls = []

    def indefinite_at_call(*args, **kwargs):
        gp, principal, margin = check(*args, **kwargs)
        calls.append(1)
        return gp, principal, (-1.0 if len(calls) == call else margin)

    monkeypatch.setattr(potential, "_checked_principal_part",
                        indefinite_at_call)
    with pytest.raises(IndefiniteSystem) as exc:
        potential.picard_solve(prob, eps=0.1)
    rep = exc.value.report
    assert isinstance(rep, potential.PicardReport) and not rep.converged
    assert rep.iterations == len(factors) == len(rep.deltas) == call - 1


def test_linear_failure_carries_the_report(grid, monkeypatch):
    prob, _ = _gamma_problem(2.0, grid, 0.02)
    factors = _splu_spy(monkeypatch)
    solve = potential.solve_linear_dirichlet
    calls = []

    def stagnates_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise LinearStagnation("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(potential, "solve_linear_dirichlet",
                        stagnates_second)
    with pytest.raises(LinearStagnation) as exc:
        potential.picard_solve(prob, eps=0.1)
    assert exc.value.report.iterations == len(factors) == 1


def _carried_lu_case(grid):
    """A converged eps = 0 solve, and the same problem with a small
    forcing, as a psi solve of quasipotential sees it between sweeps."""
    prob, _ = _gamma_problem(2.0, grid, 0.02)
    phi0, rep0 = potential.picard_solve(prob, 0.0)
    X, Y = grid.meshgrid()
    rhs = ss.ScalarField(grid, 1e-3 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    ref, _ = potential.picard_solve(prob, 0.0, w0=phi0, rhs=rhs)
    return prob, phi0, rep0.system, rhs, ref


def test_carried_lu_starts_the_next_solve(grid, monkeypatch):
    prob, phi0, system, rhs, ref = _carried_lu_case(grid)
    factors = _splu_spy(monkeypatch)
    phi, rep = potential.picard_solve(prob, 0.0, w0=phi0, rhs=rhs,
                                      system=system)
    assert rep.converged and rep.iterations == len(factors) == 0
    assert rep.system is system
    assert np.max(np.abs(phi.values - ref.values)) <= 1e-12


def test_carried_lu_that_stops_contracting_is_refactored(grid, monkeypatch):
    # with no contraction allowed, the carried LU gives its first full step
    # only; the next step counts as not contracting, and the stage
    # refactors at the iterate after it
    prob, phi0, system, rhs, ref = _carried_lu_case(grid)
    monkeypatch.setattr(potential, "_CONTRACTION", 0.0)
    factors = _splu_spy(monkeypatch)
    calls = []
    for name in ("assemble_frozen", "solve_linear_dirichlet"):
        def logged(*args, _name=name, _fn=getattr(potential, name),
                   **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(potential, name, logged)
    phi, rep = potential.picard_solve(prob, 0.0, w0=phi0, rhs=rhs,
                                      system=system)
    assert rep.converged and rep.iterations == len(factors) >= 1
    assert calls.index("assemble_frozen") == 2  # two steps on the carried LU
    assert rep.system is not system
    assert np.max(np.abs(phi.values - ref.values)) <= 1e-12


def test_stage_reuses_lu_while_steps_contract(grid, monkeypatch):
    prob, _ = _gamma_problem(2.0, grid, 0.02)
    factors = _splu_spy(monkeypatch)
    _, rep = potential.picard_solve(prob, eps=0.1)
    assert rep.converged
    assert len(factors) == rep.iterations
    assert rep.iterations < len(rep.deltas)


def test_discarded_reused_lu_step_is_redone_fresh(grid, monkeypatch):
    # on this input a reused-LU step fails to reduce |Q_eps|_inf: its linear
    # solve is the one beyond the accepted steps, and the fresh step that
    # replaces it is assembled and factored at the same iterate.  Every
    # iterate is checked (one check more for the discarded step), but the
    # full Jacobian is assembled only to be factored
    prob, _ = _gamma_problem(1.4, grid, 0.06)
    factors = _splu_spy(monkeypatch)
    counts = {"assemble_frozen": 0, "solve_linear_dirichlet": 0,
              "_checked_principal_part": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(potential, name),
                    **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(potential, name, counted)
    _, rep = potential.picard_solve(prob, eps=0.1)
    assert rep.converged
    assert counts["solve_linear_dirichlet"] == len(rep.deltas) + 1
    assert counts["_checked_principal_part"] == len(rep.deltas) + 1
    assert counts["assemble_frozen"] == len(factors)
    assert len(factors) == rep.iterations < len(rep.deltas)


def test_reused_lu_step_still_checks_ellipticity(grid, monkeypatch):
    # the first step of a stage is a fresh, full Newton step, so the second
    # iterate is solved with the first LU; its margin must still be checked,
    # without assembling the Jacobian it does not factor
    prob, _ = _gamma_problem(2.0, grid, 0.02)
    factors = _splu_spy(monkeypatch)
    check, assemble = (potential._checked_principal_part,
                       potential.assemble_frozen)
    calls, assembled = [], []

    def indefinite_after_first(*args, **kwargs):
        gp, principal, margin = check(*args, **kwargs)
        calls.append(1)
        return gp, principal, (-1.0 if len(calls) > 1 else margin)

    def counted(*args, **kwargs):
        assembled.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(potential, "_checked_principal_part",
                        indefinite_after_first)
    monkeypatch.setattr(potential, "assemble_frozen", counted)
    with pytest.raises(IndefiniteSystem):
        potential.picard_solve(prob, eps=0.1)
    assert len(calls) == 2 and len(assembled) == len(factors) == 1


def test_damped_step_halves_lambda(grid, monkeypatch):
    # at eps = 0 the full first Newton step from this phi_b raises |Q|_inf;
    # half of it lowers |Q|_inf, and the later steps are full
    prob, _ = _gamma_problem(2.0, grid, 0.055)
    norms = []  # |v|_inf of every Newton step v solved for
    solve = potential.solve_linear_dirichlet

    def spy(*args, **kwargs):
        v = solve(*args, **kwargs)
        norms.append(float(np.max(np.abs(v.values))))
        return v

    monkeypatch.setattr(potential, "solve_linear_dirichlet", spy)
    _, rep = potential.picard_solve(prob, 0.0)
    assert rep.converged
    assert (rep.iterations, len(rep.deltas)) == (3, 9)
    assert rep.deltas == [0.5 * norms[0], *norms[1:]]

def test_damped_step_fails_after_max_halvings(monkeypatch):
    # the same phi_b on 33^2: a step that no halving makes lower |Q|_inf
    # fails the stage.  That step comes from a fresh LU, and best is the
    # last accepted iterate, whose |Q|_inf the message quotes
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)
    prob, _ = _gamma_problem(2.0, grid, 0.055)
    calls = []
    for name in ("assemble_frozen", "solve_linear_dirichlet"):
        def logged(*args, _name=name, _fn=getattr(potential, name),
                   **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(potential, name, logged)
    with pytest.raises(NonConvergence,
                       match=f"after {potential._MAX_HALVINGS} halvings"
                       ) as exc:
        potential.picard_solve(prob, 0.0)
    rep = exc.value.report
    assert (rep.iterations, len(rep.deltas)) == (7, 8)
    assert calls.count("assemble_frozen") == rep.iterations
    assert calls[-2:] == ["assemble_frozen", "solve_linear_dirichlet"]
    r = potential.residual_Q(prob.law, exc.value.best, c2_floor=-np.inf)
    assert f"|Q_eps|_inf = {np.max(np.abs(r.values)):.3e} " in str(exc.value)
