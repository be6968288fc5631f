"""Tableau construction, adjoint pairs, and internal-stage order conditions."""

import re

import numpy as np
import pytest
from explicit3_family import DegenerateFamily, explicit3_family
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rklqr.errors import AdjointUndefined, NotFound
from rklqr.tableau import (
    ButcherTableau,
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


def _kutta4(u, v):
    """Kutta's two-parameter 4-stage explicit family of classical order 4, c = (0, u, v, 1).

    Hairer, Nørsett and Wanner, Solving ODEs I, §II.1; needs u != v,
    u != 1/2 and D != 0.
    """
    D = 6 * u * v - 4 * (u + v) + 3
    b2 = (2 * v - 1) / (12 * u * (v - u) * (1 - u))
    b3 = (1 - 2 * u) / (12 * v * (v - u) * (1 - v))
    b4 = D / (12 * (1 - u) * (1 - v))
    a32 = v * (v - u) / (2 * u * (1 - 2 * u))
    a42 = (1 - u) * (u + v - 1 - (2 * v - 1) ** 2) / (2 * u * (v - u) * D)
    a43 = (1 - 2 * u) * (1 - u) * (1 - v) / (v * (v - u) * D)
    a = [[0, 0, 0, 0], [u, 0, 0, 0], [v - a32, a32, 0, 0], [1 - a42 - a43, a42, a43, 0]]
    return ButcherTableau(a=a, b=[1 - b2 - b3 - b4, b2, b3, b4])


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

    def test_classical_order_is_not_control_order(self):
        # Ralston's third-order method satisfies every classical order-3
        # condition but not sum_j d_j^2 / b_j = 1/3
        tab = ButcherTableau(a=[[0, 0, 0], [0.5, 0, 0], [0, 0.75, 0]], b=[2 / 9, 1 / 3, 4 / 9])
        assert np.abs(_classical_residuals(tab)[:4]).max() < 1e-15
        assert ocp_order(tab) == 2

    @given(st.floats(0.34, 0.66))
    @settings(max_examples=40, deadline=None)
    def test_explicit3_family_is_third_order(self, c2):
        assert ocp_order(explicit3_family(c2)) == 3

    @pytest.mark.parametrize("c2", [0.3, 0.8])
    def test_explicit3_family_negative_weight_raises(self, c2):
        with pytest.raises(AdjointUndefined):
            ocp_order(explicit3_family(c2))

    @given(_NODE, _NODE)
    @settings(max_examples=150, deadline=None)
    def test_kutta_family_positive_weights_give_order_4(self, u, v):
        assume(_away(u - v, u - 0.5, 6 * u * v - 4 * (u + v) + 3))
        tab = _kutta4(u, v)
        assert np.abs(_classical_residuals(tab)).max() < 1e-10
        assume(np.abs(tab.b).min() > 1e-3)
        if tab.b.min() < 0:
            with pytest.raises(AdjointUndefined):
                ocp_order(tab)
            return
        assert ocp_order(tab) == 4
        # order 4 at the nodes, but some internal stage is predicted lower
        assert min(rep.predicted_order for rep in stage_orders(tab)) < 4

    def test_near_zero_weight_reads_full_order(self):
        # b_2 = 3.8e-6: e_2 = d_2 / b_2 amplifies the rounding of d_2, and two
        # order-4 residuals miss by 1.5e-11, more than ORDER_COND_TOL itself
        tab = _kutta4(0.1408, 0.5000010)
        assert 0 < tab.b.min() < 1e-5
        assert ocp_order(tab) == 4

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
        assert ocp_order(tab) <= 3
        assert min(rep.predicted_order for rep in stage_orders(tab)) < 3


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
