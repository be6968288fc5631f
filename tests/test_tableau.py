"""Tableau construction, adjoint pairs, and internal-stage order conditions."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from explicit3_family import DegenerateFamily, explicit3_family
from fixtures import KUTTA_B2, RALSTON3, SPECS, kutta4, random_explicit_tableau, write_spec
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rklqr
from rklqr.errors import AdjointUndefined, NotFound
from rklqr.problem import load_problem
from rklqr.tableau import (
    ORDER_COND_TOL,
    ButcherTableau,
    _trees,
    adjoint,
    builtin,
    load_tableau,
    ocp_order,
    stage_orders,
)

# Adjoint coefficient tables for the three explicit benchmark methods and the
# implicit trapezoidal rule (right-hand tableaus of the printed pairs).
ADJ_A = [[0.5, -0.5], [0.5, 0.5]]
ADJ_B = [[1 / 6, -4 / 3, 7 / 6], [1 / 6, 2 / 3, -1 / 3], [1 / 6, 2 / 3, 1 / 6]]
ADJ_C = [
    [1 / 6, -2 / 3, 1 / 3, 1 / 6],
    [1 / 6, 1 / 3, -1 / 6, 1 / 6],
    [1 / 6, 1 / 3, 1 / 3, -1 / 3],
    [1 / 6, 1 / 3, 1 / 3, 1 / 6],
]
ADJ_TRAP = [[0.5, 0.0], [0.5, 0.0]]


class TestConstruction:
    def test_builtin_coefficients(self):
        b_tab = builtin("methodB")
        np.testing.assert_allclose(b_tab.b, [1 / 6, 2 / 3, 1 / 6], rtol=0, atol=0)
        assert b_tab.a[2, 0] == -1.0 and b_tab.a[2, 1] == 2.0
        c_tab = builtin("methodC")
        np.testing.assert_allclose(c_tab.c, [0, 0.5, 0.5, 1], rtol=0, atol=0)
        e = builtin("euler")
        assert e.s == 1 and e.b[0] == 1.0 and e.is_explicit
        trap = builtin("trapezoidal")
        assert not trap.is_explicit
        np.testing.assert_allclose(trap.c, [0.0, 1.0])

    def test_unknown_name(self):
        with pytest.raises(NotFound):
            builtin("rk45")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ButcherTableau(a=[[0, 0], [1, 0]], b=[0.5, 0.6])

    @pytest.mark.parametrize("a, b, message", [
        ([[0, 0]], [0.5, 0.5], r"a must be 2x2, got \(1, 2\)"),
        ([[0, 0], [1, 0]], [0.25, 0.5, 0.25], r"a must be 3x3, got \(2, 2\)"),
    ])
    def test_a_must_be_s_by_s(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ButcherTableau(a=a, b=b)

    def test_c_is_not_an_argument(self):
        ButcherTableau(a=[[0, 0], [1, 0]], b=[0.5, 0.5])
        with pytest.raises(TypeError, match="'c'"):
            ButcherTableau(a=[[0, 0], [1, 0]], b=[0.5, 0.5], c=[0.0, 1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(a=[[0.0]], b=[np.nan]),
        dict(a=[[np.inf]], b=[1.0]),
        dict(a=[[0, 0], [np.nan, 0]], b=[0.5, 0.5]),
    ])
    def test_non_finite_coefficients_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ButcherTableau(**kwargs)

    def test_c_recomputed_from_a(self):
        tab = ButcherTableau(a=[[0, 0], [0.25, 0.5]], b=[0.5, 0.5])
        np.testing.assert_array_equal(tab.c, [0.0, 0.75])

    def test_immutable(self):
        tab = builtin("methodA")
        with pytest.raises(ValueError):
            tab.a[0, 0] = 1.0


class TestAdjoint:
    @pytest.mark.parametrize(
        "name,expected,cbar",
        [
            ("methodA", ADJ_A, [0.0, 1.0]),
            ("methodB", ADJ_B, [0.0, 0.5, 1.0]),
            ("methodC", ADJ_C, [0.0, 0.5, 0.5, 1.0]),
            ("trapezoidal", ADJ_TRAP, [0.5, 0.5]),
        ],
    )
    def test_builtin_adjoints_entry_exact(self, name, expected, cbar):
        adj = adjoint(builtin(name))
        assert isinstance(adj, ButcherTableau)
        np.testing.assert_allclose(adj.a, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(adj.c, cbar, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(adj.b, builtin(name).b)

    def test_euler_adjoint_is_implicit_euler(self):
        # abar_11 = b_1 - b_1 a_11 / b_1 = 1, the symplectic-Euler partner;
        # the pairing identity b_i abar_ij + b_j a_ji - b_i b_j = 0 forces it
        adj = adjoint(builtin("euler"))
        assert adj.a[0, 0] == 1.0 and adj.c[0] == 1.0

    def test_zero_weight_rejected(self):
        tab = ButcherTableau(a=np.zeros((2, 2)), b=[1.0, 0.0])
        with pytest.raises(AdjointUndefined, match=r"^adjoint needs b_i > 0; b_2 = 0\.0$"):
            adjoint(tab)

    def test_negative_weight_rejected(self):
        tab = ButcherTableau(a=np.zeros((2, 2)), b=[1.5, -0.5])
        with pytest.raises(AdjointUndefined):
            adjoint(tab)

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_symplectic_identity(self, raw_b, seed):
        b = np.asarray(raw_b)
        b = b / b.sum()
        s = b.size
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(s, s))
        tab = ButcherTableau(a=a, b=b)
        adj = adjoint(tab)
        resid = b[:, None] * adj.a + (b[:, None] * tab.a).T - np.outer(b, b)
        assert np.abs(resid).max() < 1e-14
        # the pairing is an involution: the partner's partner is the tableau
        np.testing.assert_allclose(adjoint(adj).a, tab.a, rtol=0, atol=1e-12)


class TestStageOrders:
    # q1/q2 per stage for the three benchmark methods
    Q1Q2 = {
        "methodA": [(2, 2), (2, 2)],
        "methodB": [(3, 2), (2, 2), (2, 3)],
        "methodC": [(4, 3), (2, 2), (2, 2), (3, 4)],
    }

    @pytest.mark.parametrize("name", sorted(Q1Q2))
    def test_q1_q2_table(self, name):
        expected = self.Q1Q2[name]
        reports = stage_orders(builtin(name))
        assert [rep.stage for rep in reports] == list(range(1, len(expected) + 1))
        for rep, (q1, q2) in zip(reports, expected):
            assert (rep.q1, rep.q2) == (q1, q2)
            assert rep.c_match
            assert rep.predicted_order == min(q1, q2)
            assert rep.q1 >= 2

    def test_methodC_predictions(self):
        preds = [rep.predicted_order for rep in stage_orders(builtin("methodC"))]
        assert preds == [3, 2, 2, 3]

    def test_trapezoidal_first_order(self):
        reports = stage_orders(builtin("trapezoidal"))
        assert len(reports) == 2
        for rep in reports:
            assert not rep.c_match
            assert rep.predicted_order == 1

    def test_euler_capped_at_method_order(self):
        [rep] = stage_orders(builtin("euler"))
        assert rep.q1 >= 2 and rep.predicted_order == 1

    def test_methodA_stage2(self):
        rep = stage_orders(builtin("methodA"))[1]
        assert rep.stage == 2 and (rep.q1, rep.q2, rep.predicted_order) == (2, 2, 2)

    def test_order_stops_at_first_failed_condition(self):
        # stage 4 of Kutta's 3/8 rule misses its l = 3 condition of a but meets l = 4
        rep = stage_orders(kutta4(1 / 3, 2 / 3))[3]
        assert (rep.q1, rep.q2, rep.predicted_order) == (2, 4, 2)

    @pytest.mark.parametrize("v", [0.500001, 0.50001])
    def test_near_zero_weight_matches_abscissae(self, v):
        # b_2 = 3.8e-6 and 3.8e-5: cbar = c exactly, but abar's row 2 carries
        # rounding amplified by 1 / b_2, 5.2e-11 at v = 0.500001
        reports = stage_orders(kutta4(0.1408, v))
        assert all(rep.c_match for rep in reports)
        assert [rep.predicted_order for rep in reports] == [2, 2, 2, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_consistency(self, seed):
        # identical rows keep their report when stages are relabeled
        rng = np.random.default_rng(seed)
        tab = builtin("methodC")
        perm = rng.permutation(4)
        permuted = ButcherTableau(a=tab.a[np.ix_(perm, perm)], b=tab.b[perm])
        reports, permuted_reports = stage_orders(tab), stage_orders(permuted)
        for new_i, old_i in enumerate(perm):
            rep_old, rep_new = reports[old_i], permuted_reports[new_i]
            assert (rep_new.q1, rep_new.q2, rep_new.c_match, rep_new.predicted_order) == (
                rep_old.q1,
                rep_old.q2,
                rep_old.c_match,
                rep_old.predicted_order,
            )


def _classical3(u, v):
    """The 3-stage explicit family of classical order 3, c = (0, u, v); needs u != v, u != 2/3."""
    b2 = (2 - 3 * v) / (6 * u * (u - v))
    b3 = (2 - 3 * u) / (6 * v * (v - u))
    a32 = v * (v - u) / (u * (2 - 3 * u))
    return ButcherTableau(a=[[0, 0, 0], [u, 0, 0], [v - a32, a32, 0]], b=[1 - b2 - b3, b2, b3])


def _classical_residuals(tab):
    """The order conditions of the ODE method up to order 4, one residual per tree."""
    a, b, c = tab.a, tab.b, tab.c
    return np.array([b.sum() - 1, b @ c - 1 / 2, b @ c**2 - 1 / 3, b @ a @ c - 1 / 6,
                     b @ c**3 - 1 / 4, (b * c) @ a @ c - 1 / 8, b @ a @ c**2 - 1 / 12,
                     b @ a @ a @ c - 1 / 24])


def _hager_order(tab):
    """The control order up to 4 from Hager's conditions (Numer. Math. 87, 2000), one residual each.

    In a, b, c, d = b a and e = 1 - cbar, within ocp_order's tolerance: the
    hand-written reference the tree rule of ``ocp_order`` is checked against.
    """
    a, b, c = tab.a, tab.b, tab.c
    e = 1 - adjoint(tab).c
    tol = ORDER_COND_TOL * (1 + (b @ np.abs(a) / b).max())
    d, bc = b @ a, b * c
    residuals = (
        (b.sum() - 1,), (d.sum() - 1 / 2,),
        (c @ d - 1 / 6, b @ c**2 - 1 / 3, d @ e - 1 / 3),
        (b @ c**3 - 1 / 4, bc @ a @ c - 1 / 8, d @ c**2 - 1 / 12, d @ a @ c - 1 / 24,
         c @ (d * e) - 1 / 12, d @ e**2 - 1 / 4, bc @ a @ e - 5 / 24, d @ a @ e - 1 / 8),
    )
    for r, group in enumerate(residuals):
        if np.abs(group).max() > tol:
            return r
    return len(residuals)


# draws keep 0.05 away from the family's poles, where the coefficients blow up,
# and every |b_i| above 1e-3: the families reach b_i = ±0 (Kutta's at v = 1/2)
# and b_i of rounding size (the classical-3 one at u = 1/3, v = 1), where the
# sign of b_i and so the adjoint is rounding
_NODE = st.floats(0.1, 0.9)


def _away(*gaps):
    return min(abs(g) for g in gaps) >= 0.05


class TestOcpOrder:
    """Properties of ``ocp_order``; acceptance criterion 13 has its table of named tableaus."""

    @pytest.mark.parametrize("b", [[1.0, 0.0], [1.5, -0.5]])
    def test_non_positive_weight_raises_like_adjoint(self, b):
        tab = ButcherTableau(a=np.zeros((2, 2)), b=b)
        with pytest.raises(AdjointUndefined) as from_adjoint:
            adjoint(tab)
        with pytest.raises(AdjointUndefined, match=f"^{re.escape(str(from_adjoint.value))}$"):
            ocp_order(tab)

    def test_tree_counts(self):
        # rooted trees whose non-root vertices take one of two colours (OEIS A000151)
        assert [len(_trees(p)) for p in range(1, 7)] == [1, 2, 7, 26, 107, 458]

    def test_no_tree_is_built_at_import(self):
        src = str(Path(rklqr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import rklqr, rklqr.cli; print(rklqr.tableau._trees.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr

    def test_classical_order_is_not_control_order(self):
        # Ralston's third-order method satisfies every classical order-3
        # condition but not sum_j d_j^2 / b_j = 1/3
        assert np.abs(_classical_residuals(RALSTON3)[:4]).max() < 1e-15
        assert ocp_order(RALSTON3) == 2

    @given(st.floats(0.34, 0.66))
    @settings(max_examples=40, deadline=None)
    def test_explicit3_family_is_third_order(self, c2):
        tab = explicit3_family(c2)
        assert ocp_order(tab) == 3 == _hager_order(tab)

    @pytest.mark.parametrize("c2", [0.3, 0.8])
    def test_explicit3_family_negative_weight_raises(self, c2):
        with pytest.raises(AdjointUndefined):
            ocp_order(explicit3_family(c2))

    @given(_NODE, _NODE)
    @settings(max_examples=150, deadline=None)
    def test_kutta_family_positive_weights_give_order_4(self, u, v):
        assume(_away(u - v, u - 0.5, 6 * u * v - 4 * (u + v) + 3))
        tab = kutta4(u, v)
        assert np.abs(_classical_residuals(tab)).max() < 1e-10
        assume(np.abs(tab.b).min() > 1e-3)
        if tab.b.min() < 0:
            with pytest.raises(AdjointUndefined):
                ocp_order(tab)
            return
        assert ocp_order(tab) == 4 == _hager_order(tab)
        # order 4 at the nodes, but some internal stage is predicted lower
        reports = stage_orders(tab)
        assert min(rep.predicted_order for rep in reports) < 4
        assert all(rep.c_match == (rep.q2 >= 2) for rep in reports)

    def test_near_zero_weight_reads_full_order(self):
        # b_2 = 3.8e-6: e_2 = d_2 / b_2 amplifies the rounding of d_2, and two
        # order-4 residuals miss by 1.5e-11, more than ORDER_COND_TOL itself
        assert 0 < KUTTA_B2.b.min() < 1e-5
        assert ocp_order(KUTTA_B2) == 4

    @given(_NODE, st.floats(-7, -3), st.sampled_from([-1, 1]))
    @settings(max_examples=150, deadline=None)
    def test_kutta_family_near_zero_weight_predicts_like_v_away(self, u, exponent, sign):
        # v = 1/2 +- 10^exponent gives b_2 of the same size, which abar's
        # rounding is scaled by; below 1e-7 the forward conditions of stage 4
        # truly hold to 1e-12, so the member is no longer like v = 1/2 +- 0.02
        near, far = 0.5 + sign * 10.0**exponent, 0.5 + sign * 0.02
        assume(all(_away(u - v, u - 0.5, 6 * u * v - 4 * (u + v) + 3) for v in (near, far)))
        tab, ref = kutta4(u, near), kutta4(u, far)
        assume(min(tab.b.min(), ref.b.min()) > 0)
        reports = stage_orders(tab)
        assert [rep.predicted_order for rep in reports] == [rep.predicted_order for rep in stage_orders(ref)]
        assert all(rep.c_match == (rep.q2 >= 2) for rep in reports)

    @given(_NODE, st.floats(0.1, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_classical3_family_at_most_order_3(self, u, v):
        assume(_away(u - v, u - 2 / 3))
        tab = _classical3(u, v)
        assert np.abs(_classical_residuals(tab)[:4]).max() < 1e-10
        assume(np.abs(tab.b).min() > 1e-3)
        if tab.b.min() < 0:
            with pytest.raises(AdjointUndefined):
                ocp_order(tab)
            return
        assert ocp_order(tab) == _hager_order(tab) <= 3
        reports = stage_orders(tab)
        assert min(rep.predicted_order for rep in reports) < 3
        assert all(rep.c_match == (rep.q2 >= 2) for rep in reports)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([1.0, 0.6]))
    @settings(max_examples=200, deadline=None)
    def test_explicit_first_moving_stage_is_at_most_order_2(self, seed, s, keep):
        # the first stage with c_i != 0 reads only stages with c_j = 0, so its
        # l = 3 condition sum_j a_ij c_j = c_i^2 / 2 reads 0 = c_i^2 / 2: q1 <= 2,
        # whatever the stage count and the control order.  Zero entries (keep
        # 0.6) make whole rows zero, so that stage need not be stage 2
        tab = random_explicit_tableau(np.random.default_rng(seed), s, keep)
        moving = tab.c != 0
        # a c_i within ORDER_COND_TOL of 0 would read the failing condition as holding
        assume(moving.any() and np.abs(tab.c[moving]).min() >= 1e-3)
        rep = stage_orders(tab)[int(np.argmax(moving))]
        assert rep.q1 <= 2 and rep.predicted_order <= 2, rep


def _c_match(tab):
    return [rep.c_match for rep in stage_orders(tab)]


class TestCheckCC:
    """The abscissa match c_i == cbar_i that stage_orders reports per stage."""

    def test_benchmark_methods_match(self):
        for name in ("methodA", "methodB", "methodC"):
            tab = builtin(name)
            assert all(_c_match(tab))
            np.testing.assert_allclose(adjoint(tab).c, tab.c, rtol=0, atol=1e-12)

    def test_trapezoidal_mismatch(self):
        assert _c_match(builtin("trapezoidal")) == [False, False]

    def test_euler(self):
        # c_1 = 0 but cbar_1 = 1: the one-stage pair staggers its abscissae
        assert _c_match(builtin("euler")) == [False]


class TestExplicit3Family:
    def test_half_recovers_methodB(self):
        tab = explicit3_family(0.5)
        ref = builtin("methodB")
        np.testing.assert_allclose(tab.a, ref.a, atol=1e-15)
        np.testing.assert_allclose(tab.b, ref.b, atol=1e-15)

    def test_third(self):
        tab = explicit3_family(1 / 3)
        np.testing.assert_allclose(tab.b, [0.0, 0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(tab.a[2], [-1.0, 2.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("c2", [0.0, 2 / 3, 1.0])
    def test_poles_rejected(self, c2):
        with pytest.raises(DegenerateFamily):
            explicit3_family(c2)

    @given(st.floats(0.35, 0.65))
    @settings(max_examples=60, deadline=None)
    def test_family_weights_and_cc(self, c2):
        # weights are positive on (1/3, 2/3), so the adjoint exists and the
        # abscissae of both tableaus agree stage-wise
        tab = explicit3_family(c2)
        assert abs(tab.b.sum() - 1.0) < 1e-13
        assert all(_c_match(tab))
        assert all(rep.c_match == (rep.q2 >= 2) for rep in stage_orders(tab))

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_family_row_identity(self, c2):
        # b_i - sum_j b_j a_ji = b_i c_i holds across the whole family,
        # including members with non-positive weights
        for pole in (0.0, 2 / 3, 1.0):
            if abs(c2 - pole) < 1e-3:
                return
        tab = explicit3_family(c2)
        lhs = tab.b - tab.a.T @ tab.b
        np.testing.assert_allclose(lhs, tab.b * tab.c, atol=1e-12)


class TestLoadTableau:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "tab.json"
        path.write_text('{"s": 2, "a": [0, 0, 1, 0], "b": [0.5, 0.5], "name": "heun-like"}')
        tab = load_tableau(str(path))
        assert tab.s == 2 and tab.name == "heun-like"
        np.testing.assert_array_equal(tab.c, [0.0, 1.0])

    @pytest.mark.parametrize("fixture", SPECS, ids=lambda fixture: fixture.name)
    def test_fixture_specs_read_back_bit_for_bit(self, tmp_path, fixture):
        # the CI console step runs the command line on these files
        path = tmp_path / "spec.json"
        write_spec(fixture, path)
        got = load_tableau(path) if isinstance(fixture, ButcherTableau) else load_problem(path)[0]
        for field in dataclasses.fields(fixture):
            have, want = (np.asarray(getattr(obj, field.name)) for obj in (got, fixture))
            assert (have.shape, have.tobytes()) == (want.shape, want.tobytes()), field.name

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            load_tableau({"s": 2, "a": [0, 0, 1], "b": [0.5, 0.5]})

    @pytest.mark.parametrize("s", [2.7, "2", float("inf"), True])
    def test_non_integral_stage_count_rejected(self, s):
        # int() would truncate 2.7 to a 2-stage tableau and read JSON true as 1;
        # a and b fit that many stages
        a, b = ([0], [1]) if s is True else ([0, 0, 1, 0], [0.5, 0.5])
        with pytest.raises(ValueError, match="^malformed tableau spec: "):
            load_tableau({"s": s, "a": a, "b": b})

    @pytest.mark.parametrize("field, value", [("a", [0, 0, "1", 0]), ("a", [[0, 0], [True, 0]]),
                                              ("b", ["0.5", "0.5"]), ("b", [0.5, None])])
    def test_non_number_rejected(self, field, value):
        spec = {"s": 2, "a": [0, 0, 1, 0], "b": [0.5, 0.5], field: value}
        with pytest.raises(ValueError, match=rf"^malformed tableau spec: {field} holds .*, not a JSON number$"):
            load_tableau(spec)

    def test_integral_float_stage_count_accepted(self):
        assert load_tableau({"s": 2.0, "a": [0, 0, 1, 0], "b": [0.5, 0.5]}).s == 2

    def test_non_finite_file_rejected(self, tmp_path):
        path = tmp_path / "tab.json"
        path.write_text('{"s": 1, "a": [0], "b": [NaN]}')  # json accepts NaN
        with pytest.raises(ValueError, match="finite"):
            load_tableau(str(path))
