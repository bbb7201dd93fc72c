"""Two-qubit engine: Bell states, Pauli application, Born-rule measurement."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmac.qubit import (
    PAULIS,
    BellIndex,
    DegenerateStateError,
    PauliOp,
    QubitId,
    TwoQubitState,
    apply_single_qubit,
    bell_probabilities,
    bell_state,
    measure_bell,
    measure_probabilities,
    measure_qubit,
)
from entmac.rng import RandomSource

from _support import ADVERSARIAL_UNIFORMS, ScriptedRng, inner, kron2, matvec4

R = 1.0 / math.sqrt(2.0)

KET_00 = TwoQubitState((1, 0, 0, 0))
KET_11 = TwoQubitState((0, 0, 0, 1))


def norm_sq(state) -> float:
    """Sum of the squared magnitudes of the state's amplitudes."""
    return sum(a.real * a.real + a.imag * a.imag for a in state.amps)


def assert_amps_close(state, expected, tol=1e-12):
    for got, want in zip(state.amps, expected):
        assert abs(got - want) <= tol, (state.amps, expected)


@st.composite
def normalized_states(draw):
    parts = [
        draw(st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)) for _ in range(8)
    ]
    amps = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm < 1e-3:
        amps[0] = complex(1.0, 0.0)
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return TwoQubitState(tuple(a / norm for a in amps))


# --- Bell states --------------------------------------------------------


def test_bell_state_amplitudes():
    assert_amps_close(bell_state(BellIndex(0, 0)), (R, 0, 0, R))
    assert_amps_close(bell_state(BellIndex(0, 1)), (R, 0, 0, -R))
    assert_amps_close(bell_state(BellIndex(1, 0)), (0, R, R, 0))
    assert_amps_close(bell_state(BellIndex(1, 1)), (0, R, -R, 0))


def test_bell_states_are_normalized():
    for k in (0, 1):
        for l in (0, 1):
            assert abs(norm_sq(bell_state(BellIndex(k, l))) - 1.0) <= 1e-12


def test_bell_orthonormality():
    indices = [(k, l) for k in (0, 1) for l in (0, 1)]
    for k1, l1 in indices:
        for k2, l2 in indices:
            ip = inner(bell_state(BellIndex(k1, l1)).amps, bell_state(BellIndex(k2, l2)).amps)
            expected = 1.0 if (k1, l1) == (k2, l2) else 0.0
            assert abs(ip - expected) <= 1e-12


def test_bell_state_matches_freshly_built_amplitudes():
    # bell_state hands out shared prebuilt states; they must equal what the
    # public constructor builds from the same literals, sign of zero included
    literals = {
        (0, 0): (R, 0.0, 0.0, R),
        (0, 1): (R, 0.0, 0.0, -R),
        (1, 0): (0.0, R, R, 0.0),
        (1, 1): (0.0, R, -R, 0.0),
    }
    for (k, l), amps in literals.items():
        fresh = TwoQubitState(tuple(complex(a) for a in amps))
        got = bell_state(BellIndex(k, l))
        assert got == fresh
        for a, b in zip(got.amps, fresh.amps):
            assert type(a) is complex
            assert (math.copysign(1.0, a.real), math.copysign(1.0, a.imag)) == (
                math.copysign(1.0, b.real), math.copysign(1.0, b.imag))


def test_shared_bell_state_is_immutable():
    with pytest.raises(AttributeError):
        bell_state(BellIndex(0, 0)).amps = (0j, 0j, 0j, 0j)


def test_bell_index_validation():
    with pytest.raises(ValueError):
        BellIndex(2, 0)
    with pytest.raises(ValueError):
        BellIndex(0, -1)


# --- state construction -------------------------------------------------


def test_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        TwoQubitState((float("nan"), 0, 0, 0))
    with pytest.raises(ValueError):
        TwoQubitState((complex(0, float("inf")), 0, 0, 0))


def test_state_rejects_wrong_arity():
    with pytest.raises(ValueError):
        TwoQubitState((1, 0, 0))


# --- Pauli application --------------------------------------------------


@pytest.mark.parametrize("target", [QubitId.A, QubitId.B])
def test_apply_rejects_overflowing_matrix(target):
    # a PauliOp may hold any matrix, so the engine re-checks its products
    huge = PauliOp("huge", ((1e308, -1e308), (-1e308, 1e308)))
    state = TwoQubitState((1e10, -1e10j, 2e10, 1e10))
    with pytest.raises(ValueError, match="non-finite amplitude"):
        apply_single_qubit(state, huge, target)


def test_pauli_matrices_are_unitary():
    for op in PAULIS.values():
        m = op.matrix
        for i in range(2):
            for j in range(2):
                # (M^dagger M)_ij
                entry = sum(m[k][i].conjugate() * m[k][j] for k in range(2))
                want = 1.0 if i == j else 0.0
                assert abs(entry - want) <= 1e-12, op.tag


def test_apply_x_on_alice_gives_beta10():
    got = apply_single_qubit(bell_state(BellIndex(0, 0)), PAULIS["X"], QubitId.A)
    assert_amps_close(got, bell_state(BellIndex(1, 0)).amps)


def test_apply_identity_is_noop():
    got = apply_single_qubit(bell_state(BellIndex(0, 0)), PAULIS["I"], QubitId.A)
    assert_amps_close(got, bell_state(BellIndex(0, 0)).amps)


def test_apply_iy_on_alice_gives_beta11():
    # oracle: iY sends |0> to -|1> and |1> to |0>, so on Alice's slot
    # (|00> + |11>)/sqrt(2) becomes (-|10> + |01>)/sqrt(2)
    got = apply_single_qubit(bell_state(BellIndex(0, 0)), PAULIS["iY"], QubitId.A)
    assert_amps_close(got, (0, R, -R, 0))
    assert_amps_close(got, bell_state(BellIndex(1, 1)).amps)


@pytest.mark.parametrize("tag", ["I", "X", "iY", "Z"])
@pytest.mark.parametrize("target", [QubitId.A, QubitId.B])
def test_apply_matches_tensor_product_oracle(tag, target):
    op = PAULIS[tag]
    identity = [[1 + 0j, 0j], [0j, 1 + 0j]]
    u = [list(row) for row in op.matrix]
    big = kron2(u, identity) if target is QubitId.A else kron2(identity, u)
    states = [bell_state(BellIndex(k, l)) for k in (0, 1) for l in (0, 1)]
    states.append(TwoQubitState((0.5, 0.5j, -0.5, 0.5j)))
    for state in states:
        expected = matvec4(big, state.amps)
        got = apply_single_qubit(state, op, target)
        assert_amps_close(got, expected)


@settings(max_examples=200)
@given(state=normalized_states(), tag=st.sampled_from(["I", "X", "iY", "Z"]),
       target=st.sampled_from([QubitId.A, QubitId.B]))
def test_unitarity_preserves_norm(state, tag, target):
    out = apply_single_qubit(state, PAULIS[tag], target)
    assert abs(norm_sq(out) - 1.0) <= 1e-9


# --- computational-basis measurement ------------------------------------


def test_measure_basis_state_is_deterministic():
    for u in ADVERSARIAL_UNIFORMS:
        outcome, post = measure_qubit(KET_00, QubitId.A, ScriptedRng(floats=[u]))
        assert outcome == 0
        assert_amps_close(post, (1, 0, 0, 0), tol=1e-9)


def test_measure_beta00_collapses_to_matching_ket():
    state = bell_state(BellIndex(0, 0))
    outcome, post = measure_qubit(state, QubitId.A, ScriptedRng(floats=[0.1]))
    assert outcome == 0
    assert_amps_close(post, KET_00.amps, tol=1e-9)
    outcome, post = measure_qubit(state, QubitId.A, ScriptedRng(floats=[0.9]))
    assert outcome == 1
    assert_amps_close(post, KET_11.amps, tol=1e-9)


def test_measure_beta10_on_bob():
    # Born rule on (|01> + |10>)/sqrt(2): Bob's bit 0 keeps |10>, 1 keeps |01>
    state = bell_state(BellIndex(1, 0))
    outcome, post = measure_qubit(state, QubitId.B, ScriptedRng(floats=[0.2]))
    assert outcome == 0
    assert_amps_close(post, (0, 0, 1, 0), tol=1e-9)
    outcome, post = measure_qubit(state, QubitId.B, ScriptedRng(floats=[0.8]))
    assert outcome == 1
    assert_amps_close(post, (0, 1, 0, 0), tol=1e-9)


@settings(max_examples=200)
@given(state=normalized_states(), target=st.sampled_from([QubitId.A, QubitId.B]))
def test_born_probabilities_sum_to_one(state, target):
    p0, p1 = measure_probabilities(state, target)
    assert p0 >= 0.0 and p1 >= 0.0
    assert abs(p0 + p1 - 1.0) <= 1e-9


@settings(max_examples=200)
@given(state=normalized_states(), scale=st.integers(-4, 100),
       target=st.sampled_from([QubitId.A, QubitId.B]), seed=st.integers(0, 2**64 - 1))
def test_post_measurement_state_is_normalized(state, scale, target, seed):
    # measure_qubit skips the constructor's checks, so its output must hold
    # four finite complex amplitudes by construction, at any input scale
    scaled = TwoQubitState(tuple(a * 10.0**scale for a in state.amps))
    _, post = measure_qubit(scaled, target, RandomSource(seed))
    assert len(post.amps) == 4
    assert all(type(a) is complex and cmath.isfinite(a) for a in post.amps)
    assert abs(norm_sq(post) - 1.0) <= 1e-9


def test_measure_overflowing_mass_stays_finite():
    # the outcome mass overflows to inf; the collapse still yields finite amplitudes
    state = TwoQubitState((1e200, 0, 0, 1e200))
    _, post = measure_qubit(state, QubitId.A, RandomSource(3))
    assert all(cmath.isfinite(a) for a in post.amps)


def test_measure_degenerate_state_raises():
    zero = TwoQubitState((0, 0, 0, 0))
    with pytest.raises(DegenerateStateError):
        measure_qubit(zero, QubitId.A, RandomSource(1))
    with pytest.raises(DegenerateStateError):
        measure_bell(zero, RandomSource(1))


@pytest.mark.parametrize("target", ["A", None])
def test_engine_rejects_a_target_that_is_not_a_qubit_id(target):
    # a string "A" must not fall through to qubit B: on |10> that would
    # measure 0 where qubit A reads 1
    state = TwoQubitState((0, 0, 1, 0))
    with pytest.raises(TypeError):
        apply_single_qubit(state, PAULIS["X"], target)
    with pytest.raises(TypeError):
        measure_probabilities(state, target)
    rng = ScriptedRng(floats=[0.5])
    with pytest.raises(TypeError):
        measure_qubit(state, target, rng)
    assert rng.next_float() == 0.5  # rejected before any draw


@pytest.mark.parametrize("measure, amps", [
    (measure_bell, (1.4e-6, 0, 0, 0)),
    (lambda state, rng: measure_qubit(state, QubitId.A, rng), (0.8e-6, 0, 0.8e-6, 0)),
], ids=["measure_bell", "measure_qubit"])
def test_measurement_rejects_all_clamped_outcomes(measure, amps):
    # total mass clears the degeneracy gate but every single outcome falls
    # below the sampling clamp
    with pytest.raises(DegenerateStateError, match="no outcome carries measurable probability"):
        measure(TwoQubitState(amps), RandomSource(1))


def test_perfect_correlation_on_beta00():
    rng = RandomSource(2024)
    zeros = 0
    n = 20_000
    for _ in range(n):
        state = bell_state(BellIndex(0, 0))
        c_a, post = measure_qubit(state, QubitId.A, rng)
        c_b, _ = measure_qubit(post, QubitId.B, rng)
        assert c_a == c_b
        zeros += 1 - c_a
    assert abs(zeros / n - 0.5) <= 5 * 0.5 / math.sqrt(n)


# --- Bell measurement ----------------------------------------------------


def test_measure_bell_identifies_basis_elements():
    for k in (0, 1):
        for l in (0, 1):
            for u in ADVERSARIAL_UNIFORMS:
                got = measure_bell(bell_state(BellIndex(k, l)), ScriptedRng(floats=[u]))
                assert (got.k, got.l) == (k, l)


def test_measure_bell_on_ket00_splits_evenly():
    # |00> = (beta00 + beta01)/sqrt(2): outcomes (0,0) and (0,1) each 1/2
    probs = bell_probabilities(KET_00)
    assert abs(probs[0] - 0.5) <= 1e-12
    assert abs(probs[1] - 0.5) <= 1e-12
    assert probs[2] == 0.0 and probs[3] == 0.0

    got = measure_bell(KET_00, ScriptedRng(floats=[0.2]))
    assert (got.k, got.l) == (0, 0)
    got = measure_bell(KET_00, ScriptedRng(floats=[0.8]))
    assert (got.k, got.l) == (0, 1)

    rng = RandomSource(5)
    n = 20_000
    count00 = sum(1 for _ in range(n) if measure_bell(KET_00, rng) == BellIndex(0, 0))
    assert abs(count00 / n - 0.5) <= 5 * 0.5 / math.sqrt(n)


@settings(max_examples=200)
@given(state=normalized_states())
def test_bell_probabilities_sum_to_one(state):
    probs = bell_probabilities(state)
    assert all(p >= 0.0 for p in probs)
    assert abs(sum(probs) - 1.0) <= 1e-9


@settings(max_examples=100)
@given(state=normalized_states(), phase=st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_bell_probabilities_ignore_global_phase(state, phase):
    factor = cmath.exp(1j * phase)
    rotated = TwoQubitState(tuple(a * factor for a in state.amps))
    for p, q in zip(bell_probabilities(state), bell_probabilities(rotated)):
        assert abs(p - q) <= 1e-12


def test_measure_bell_ignores_global_phase_of_basis_element():
    flipped = TwoQubitState(tuple(-a for a in bell_state(BellIndex(0, 1)).amps))
    for u in ADVERSARIAL_UNIFORMS:
        assert measure_bell(flipped, ScriptedRng(floats=[u])) == BellIndex(0, 1)


def test_pauli_op_is_value_like():
    assert PAULIS["X"] == PauliOp("X", ((0, 1), (1, 0)))
