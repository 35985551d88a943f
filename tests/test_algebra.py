import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amwave.algebra import (
    DimMismatch,
    NonFiniteValue,
    NonTracelessBasis,
    GeneratorSet,
    UnsupportedGenerator,
    commutator,
    commutator_sv,
    conjugate,
    cross,
    diag,
    dot,
    dots,
    frobenius_norms,
    make_generators,
    operator_norm,
    real_cross,
    real_dot,
    structure_constants,
    sup_norms,
)

from support import generator_set, identity_set, numeric_lift

SU2_KINDS = ("su2_spin_half", "su2_spin_one")

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vec3 = st.tuples(coeff, coeff, coeff).map(np.array)


def tau_from(gens, r0, r1, r2, r3):
    out = np.einsum("i,ab->iab", np.asarray(r0, float), gens.identity)
    for r, g in zip((r1, r2, r3), gens.generators):
        out = out + np.einsum("i,ab->iab", np.asarray(r, float), g)
    return out


def eta_from(gens, r1, r2, r3):
    sx, sy, sz = gens.generators
    return (np.einsum("i,ab->iab", np.cross(r2, r3), sx)
            + np.einsum("i,ab->iab", np.cross(r3, r1), sy)
            + np.einsum("i,ab->iab", np.cross(r1, r2), sz))


def test_spin_half_matrices():
    gens = make_generators("su2_spin_half", hbar=1.0)
    sx, sy, sz = gens.generators
    np.testing.assert_allclose(sz, np.diag([0.5, -0.5]))
    np.testing.assert_allclose(sx, 0.5 * np.array([[0, 1], [1, 0]]))
    np.testing.assert_allclose(sy, 0.5 * np.array([[0, -1j], [1j, 0]]))


def test_spin_one_matrices():
    gens = make_generators("su2_spin_one", hbar=1.0)
    sz = gens.generators[2]
    np.testing.assert_allclose(sz, np.diag([1.0, 0.0, -1.0]))
    sx = gens.generators[0]
    np.testing.assert_allclose(
        sx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2))


def test_identity_kind():
    gens = identity_set()
    assert gens.dim == 1
    assert gens.generators.shape == (0, 1, 1)
    assert len(gens.basis) == 1
    np.testing.assert_allclose(gens.basis[0], np.array([[1.0]]))


def test_unsupported_kind():
    # make_generators builds the three sets a command names, and no other
    for kind in ("so5", "identity", "custom"):
        with pytest.raises(UnsupportedGenerator):
            make_generators(kind)


@pytest.mark.parametrize("kind", SU2_KINDS)
@pytest.mark.parametrize("hbar", [1.0, 0.5, 3.7])
def test_su2_algebra(kind, hbar):
    gens = make_generators(kind, hbar=hbar)
    sx, sy, sz = gens.generators
    for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        assert operator_norm(commutator(a, b) - 1j * hbar * c) <= 1e-12 * max(1.0, hbar)
        assert operator_norm(commutator(a, a)) == 0.0


def test_hermiticity_all_kinds():
    for kind in ("identity",) + SU2_KINDS + ("su3_gellmann",):
        gens = generator_set(kind)
        for g in gens.basis:
            assert operator_norm(g - g.conj().T) <= 1e-12


def test_gellmann_commutator():
    gens = make_generators("su3_gellmann")
    g1, g2, g3 = gens.generators[:3]
    assert operator_norm(commutator(g1, g2) - 2j * g3) <= 1e-12


def test_gellmann_normalization():
    gens = make_generators("su3_gellmann")
    for a, ga in enumerate(gens.generators):
        assert abs(np.trace(ga)) <= 1e-12
        for b, gb in enumerate(gens.generators):
            want = 2.0 if a == b else 0.0
            assert abs(np.trace(ga @ gb) - want) <= 1e-12


@pytest.mark.parametrize("kind", SU2_KINDS)
def test_tau_cross_tau_is_ihbar_eta(kind):
    # 100 random coefficient draws per representation
    gens = make_generators(kind)
    rng = np.random.default_rng(101)
    for _ in range(100):
        r0, r1, r2, r3 = (rng.uniform(-1, 1, 3) for _ in range(4))
        tau = tau_from(gens, r0, r1, r2, r3)
        eta = eta_from(gens, r1, r2, r3)
        assert operator_norm(cross(tau, tau) - 1j * gens.hbar * eta) <= 1e-12


def test_cross_example_xz():
    # R_1 = x, R_3 = z: tau x tau = i hbar (z x x) S_y = i hbar yhat S_y
    gens = make_generators("su2_spin_half")
    zero = np.zeros(3)
    tau = tau_from(gens, zero, np.array([1.0, 0, 0]), zero, np.array([0, 0, 1.0]))
    want = np.einsum("i,ab->iab", [0.0, 1.0, 0.0], 1j * gens.generators[1])
    assert operator_norm(cross(tau, tau) - want) <= 1e-12


def test_cross_commuting_limit():
    rng = np.random.default_rng(7)
    u3, v3 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    u = numeric_lift(u3, 2)
    v = numeric_lift(v3, 2)
    want = numeric_lift(np.cross(u3, v3), 2)
    assert operator_norm(cross(u, v) - want) <= 1e-12
    assert operator_norm(cross(u, v) + cross(v, u)) <= 1e-12


def test_dot_examples():
    gens = make_generators("su2_spin_half")
    zero = np.zeros(3)
    tau = tau_from(gens, zero, np.array([1.0, 0, 0]), zero, np.array([0, 0, 1.0]))
    # S_x^2 + S_z^2 = hbar^2/2 for spin-1/2
    want = 0.5 * np.eye(2)
    assert operator_norm(dot(tau, tau) - want) <= 1e-12
    # khat = z picks out the S_z coefficient
    assert operator_norm(dot(numeric_lift([0, 0, 1.0], 2), tau) - gens.generators[2]) <= 1e-12
    # ordered dots coincide in the commuting limit
    rng = np.random.default_rng(3)
    u = numeric_lift(rng.uniform(-1, 1, 3), 3)
    v = numeric_lift(rng.uniform(-1, 1, 3), 3)
    assert operator_norm(dot(u, v) - dot(v, u)) <= 1e-14


def test_dim_mismatch():
    # the kernels refuse operands of two dimensions with numpy's ValueError
    a, b = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        commutator(a, b)
    u, v = numeric_lift([1, 0, 0], 2), numeric_lift([1, 0, 0], 3)
    with pytest.raises(ValueError):
        cross(u, v)
    with pytest.raises(ValueError):
        dot(u, v)


# The dense contractions the kernels must match bit for bit, on operands
# with the trial axis first: every term of eps_ijk u_j v_k and delta_ij
# u_i v_j, the zero ones included, and the einsums a stack with a leading
# trial axis ran for comm_sv and for the gauge conjugation.
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0
DENSE = {
    cross: lambda u, v: np.einsum("ijk,...jab,...kbc->...iac", LEVI_CIVITA, u, v),
    dot: lambda u, v: np.einsum("ij,...iab,...jbc->...ac", np.eye(3), u, v),
    commutator_sv: lambda a, v: (np.einsum("...ab,...ibc->...iac", a, v)
                                 - np.einsum("...iab,...bc->...iac", v, a)),
    conjugate: lambda u, v: np.einsum("...ab,...ibc,...cd->...iad", u, v,
                                      u.conj().swapaxes(-1, -2)),
}
# each kernel's operands: an operator vector (3, d, d), an operator (d, d),
# or a unitary (d, d), one per trial on a stack and without leading axes
OPERANDS = {cross: ("vector", "vector"), dot: ("vector", "vector"),
            commutator_sv: ("operator", "vector"), conjugate: ("unitary", "vector")}
# leading axes of the two operands: none, a leading trial axis (as a
# family's tau holds it), and an order-pair grid
LEADS = (((), ()), ((3,), (3,)), ((2, 1), (1, 3)))
# views of an array with the trial axis last (k of them): the layouts a
# kernel may meet, which ``fields`` makes contiguous
VIEWS = {
    "plain": lambda x, k: x,
    "transposed": lambda x, k: np.swapaxes(x, -2 - k, -1 - k),
    # the components of a vector, a leading axis of a matrix, if it has one
    "components reversed": lambda x, k: (x[(..., slice(None, None, -1)) + (slice(None),) * (2 + k)]
                                         if x.ndim > 2 + k else x),
    "columns reversed": lambda x, k: x[(..., slice(None, None, -1)) + (slice(None),) * k],
    "trials reversed": lambda x, k: x[(..., slice(None, None, -1)) if k else ...],
}


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(kernel=st.sampled_from(list(DENSE)), d=st.sampled_from([2, 3]),
       leads=st.sampled_from(LEADS), trials=st.sampled_from([0, 1, 2, 3]),
       views=st.tuples(*[st.sampled_from(sorted(VIEWS))] * 2),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.sampled_from([0.0, 0.3, 0.9]),
       decades=st.sampled_from([0, 150]))
def test_kernels_have_the_dense_contraction_bits(kernel, d, leads, trials, views, seed, zeros,
                                                 decades):
    # entries: exact zeros of either sign, the rest normal numbers scaled by
    # up to 1e+-150, so that every product and sum stays finite.  A stack's
    # operands hold their trial axis last for the kernel (T = 1, 2, 3, so
    # also T = d) and first for the dense contraction.
    rng = np.random.default_rng(seed)
    batch = (trials,) if trials else ()
    k = len(batch)

    def operand(kind, lead, view):
        core = {"vector": (3, d, d), "operator": (d, d), "unitary": (d, d)}[kind]
        shape = (() if kind == "unitary" else lead) + core + batch + (2,)
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-decades, decades, shape)
        x[rng.random(x.shape) < zeros] = 0.0
        x = np.copysign(x, rng.normal(size=x.shape))
        x = VIEWS[view](x.view(complex)[..., 0], k)
        # the kernel's operand, and the dense contraction's, trial axis first
        first = np.moveaxis(x, range(-k, 0), range(-k - len(core), -len(core)))
        return (first if kind == "unitary" else x), first

    (u, u_first), (v, v_first) = (operand(kind, lead, view) for kind, lead, view
                                  in zip(OPERANDS[kernel], leads, views))
    got, want = kernel(u, v, batch), DENSE[kernel](u_first, v_first)
    core = 2 if kernel is dot else 3
    got = np.moveaxis(got, range(-k, 0), range(-k - core, -core))
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("kind", ("identity", "su2_spin_half", "su2_spin_one",
                                  "su3_gellmann"))
def test_generator_sets_are_shared_and_read_only(kind):
    gens = generator_set(kind)
    assert generator_set(kind) is gens
    other = generator_set(kind, hbar=2.0)
    assert other is not gens
    # sets compare and hash by identity
    assert (gens == other) is False and gens == gens
    assert len({gens, other, gens}) == 2
    assert gens.basis.shape == (len(gens.generators) + 1, gens.dim, gens.dim)
    for mats in (gens.basis, gens.generators):
        assert not mats.flags.writeable
        if len(mats):
            with pytest.raises(ValueError):
                mats[0, 0, 0] = 7.0


@pytest.mark.parametrize("kind", ("identity", "su2_spin_half", "su2_spin_one",
                                  "su3_gellmann"))
def test_noncommuting_pairs(kind):
    gs = generator_set(kind).generators
    want = tuple((a + 1, b + 1) for a in range(len(gs)) for b in range(a + 1, len(gs))
                 if np.abs(gs[a] @ gs[b] - gs[b] @ gs[a]).max() > 1e-12)
    assert generator_set(kind).noncommuting_pairs == want
    if kind.startswith("su2"):
        assert want == ((1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("kind", SU2_KINDS)
@pytest.mark.parametrize("hbar", [1e-100, 1e-7, 1e5, 1e10, 1e100])
def test_su2_sets_build_with_every_pair_noncommuting_at_any_hbar(kind, hbar):
    # [S_x, S_y] - i hbar S_z rounds to about eps hbar^2, 3e-6 at hbar = 1e5,
    # and below hbar = 1e-6 every commutator is smaller than 1e-12: both
    # checks hold only on the generators scaled to size 1
    gens = make_generators(kind, hbar=hbar)
    assert gens.noncommuting_pairs == ((1, 2), (1, 3), (2, 3))


def test_operator_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        for _ in range(50):
            v = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
            v *= 10.0 ** rng.uniform(-8, 8)
            assert operator_norm(v[0]) == float(np.linalg.norm(v[0]))
            assert operator_norm(v[0].T) == float(np.linalg.norm(v[0].T))
            assert operator_norm(v) == max(float(np.linalg.norm(c)) for c in v)
            # strided, reversed and column-major matrices: the norm reads
            # each in memory order, as np.linalg.norm does
            for m in (v[0][::-1], v[0][:, ::-1].T, v[:, ::2, 0], np.asfortranarray(v)[1],
                      v[1].real.T):
                assert operator_norm(m) == float(np.linalg.norm(m))
    assert np.isnan(operator_norm(np.full((2, 2), np.nan + 0j)))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_stacked_norms_equal_operator_norm_bit_for_bit(d):
    rng = np.random.default_rng(30 + d)
    stacks = [np.zeros((2, 5, 3, d, d), dtype=complex),
              np.zeros((0, 3, d, d), dtype=complex),
              np.zeros((4, 0, d, d), dtype=complex)]
    for _ in range(20):
        shape = (3, 7, 3, d, d)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v *= 10.0 ** rng.uniform(-8, 8, size=shape[:-2] + (1, 1))
        stacks += [v, v[:, 2], v[1:, :, 0]]  # the last two are strided slices
    for stack in stacks:
        want = np.array([operator_norm(m) for m in stack.reshape((-1, d, d))])
        assert np.array_equal(frobenius_norms(stack), want.reshape(stack.shape[:-2]))
        for view in (stack.swapaxes(-1, -2), stack[..., ::-1, :], stack[..., ::-1].mT):
            got = frobenius_norms(view)
            assert all(got[i] == np.linalg.norm(view[i]) for i in np.ndindex(got.shape))


def test_sup_norms_take_each_trials_largest_block_norm():
    rng = np.random.default_rng(11)
    for shape in ((5, 3, 2, 2), (4, 2, 3, 3, 3), (1, 1, 4, 4)):
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = [max(operator_norm(m) for m in trial.reshape((-1,) + shape[-2:]))
                for trial in arr]
        got = sup_norms(arr, shape[:1])
        assert got.shape == shape[:1] and got.tolist() == want
    # no batch: the largest norm of them all
    assert sup_norms(arr[0], ()) == operator_norm(arr[0])
    # an empty batch, and trials without blocks (a field with no orders)
    assert sup_norms(np.zeros((0, 3, 2, 2), dtype=complex), (0,)).shape == (0,)
    assert sup_norms(np.zeros((4, 0, 3, 2, 2), dtype=complex), (4,)).tolist() == [0.0] * 4


# a real 3-vector k per wave, with operator vectors of one wave, of T
# trials, and of a grid of orders by T trials, the trials first or last
REAL_LEADS = ((), (4,), (2, 4))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lead", REAL_LEADS, ids=lambda lead: f"lead{lead}")
def test_real_kernels_have_the_bits_of_the_lifted_dense_kernels(d, lead):
    # k has exact zeros and components from 1e-8 to 1e8; the bits agree up
    # to the sign of a zero, which x + 0.0 clears and no norm can see
    rng = np.random.default_rng(40 + d)
    for _ in range(40):
        k = rng.normal(size=lead[-1:] + (3,)) * 10.0 ** rng.uniform(-8, 8, lead[-1:] + (3,))
        k[rng.random(k.shape) < 0.3] = 0.0
        shape = lead + (3, d, d)
        v = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(
            -8, 8, shape)
        v[rng.random(shape) < 0.2] = 0.0
        for kernel, dense in ((real_cross, cross), (real_dot, dot)):
            got, want = kernel(k, v), dense(numeric_lift(k, d), v)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got + 0.0), _bits(want + 0.0)), kernel.__name__
            if not lead:
                continue
            # the T trials last, as a stacked field holds them, with k one
            # per trial, and one k for all of them
            core = 3 if kernel is real_cross else 2
            for n in (k, k[0]):
                want = dense(numeric_lift(n, d), v)
                got = kernel(n, np.moveaxis(v, len(lead) - 1, -1), lead[-1:])
                got = np.moveaxis(got, -1, -1 - core)
                assert np.array_equal(_bits(got + 0.0), _bits(want + 0.0)), kernel.__name__


def test_diag_builds_each_vectors_diagonal_matrix():
    x = np.arange(12.0).reshape(2, 2, 3) - 1j
    got = diag(x)
    assert got.shape == (2, 2, 3, 3) and got.dtype == x.dtype
    for i in np.ndindex(2, 2):
        assert np.array_equal(got[i], np.diag(x[i]))


def test_dots_give_each_vector_of_a_stack_its_own_bits():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, 200, 3)) * 10.0 ** rng.uniform(-5, 5, size=(2, 200, 1))
    got = dots(a, b)
    assert got.shape == (200,)
    assert got.tolist() == [float(u @ v) for u, v in zip(a, b)]
    assert [float(np.sqrt(x)) for x in dots(a, a)] == [float(np.linalg.norm(u)) for u in a]


SU3_F = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5, (3, 4, 5): 0.5,
    (1, 5, 6): -0.5, (3, 6, 7): -0.5,
    (4, 5, 8): np.sqrt(3) / 2, (6, 7, 8): np.sqrt(3) / 2,
}


def test_su3_structure_constants():
    f, d = structure_constants(make_generators("su3_gellmann"))
    for (a, b, c), want in SU3_F.items():
        assert abs(f[a - 1, b - 1, c - 1] - want) <= 1e-12
    # total antisymmetry of f, total symmetry of d
    assert np.abs(f + np.transpose(f, (0, 2, 1))).max() <= 1e-12
    assert np.abs(f + np.transpose(f, (1, 0, 2))).max() <= 1e-12
    assert np.abs(d - np.transpose(d, (0, 2, 1))).max() <= 1e-12
    assert np.abs(d - np.transpose(d, (1, 0, 2))).max() <= 1e-12
    # nothing survives outside the nine listed triples and their images
    listed = np.zeros((8, 8, 8), dtype=bool)
    for (a, b, c) in SU3_F:
        for p in ((a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)):
            listed[p[0] - 1, p[1] - 1, p[2] - 1] = True
    assert np.abs(f[~listed]).max() <= 1e-12


# a set of the user's own (d, d) matrices, here d = 2, is checked as it is built
@pytest.mark.parametrize("matrices, error, match", [
    ([np.ones((2, 3))], DimMismatch, "dimension"),
    ([np.array([[0.5, np.nan], [np.nan, -0.5]])], NonFiniteValue, "finite"),
    ([np.array([[0.0, 1.0], [0.0, 0.0]])], ValueError, "Hermitian"),
    ([np.diag([1.0, 0.0, -1.0])], DimMismatch, "dimension"),
    ([], DimMismatch, "dimension"),
], ids=("non-square", "nan", "non-hermitian", "mixed-dimension", "empty"))
def test_custom_generators_reject_bad_input(matrices, error, match):
    with pytest.raises(error, match=match):
        GeneratorSet("custom", 2, matrices)


def test_structure_constants_rejects_traced_basis():
    bad = GeneratorSet("custom", 2, [np.eye(2)])
    with pytest.raises(NonTracelessBasis):
        structure_constants(bad)
    with pytest.raises(NonTracelessBasis):
        structure_constants(identity_set())


@settings(max_examples=60, deadline=None)
@given(a=st.tuples(*[coeff] * 6), b=st.tuples(*[coeff] * 2))
def test_eta_cross_eta_vanishes_for_coplanar_triples(a, b):
    # eta x eta = i*hbar*det(R1, R2, R3) * (R1 S_x + R2 S_y + R3 S_z), so it
    # cancels exactly when the three coefficient vectors share a plane --
    # which every solution family guarantees
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([b[0], 1.0, b[1]])
    r1 = a[0] * e1 + a[1] * e2
    r2 = a[2] * e1 + a[3] * e2
    r3 = a[4] * e1 + a[5] * e2
    gens = make_generators("su2_spin_half")
    eta = eta_from(gens, r1, r2, r3)
    assert operator_norm(cross(eta, eta)) <= 1e-12


def test_eta_cross_eta_needs_coplanarity():
    gens = make_generators("su2_spin_half")
    r1, r2, r3 = np.eye(3)  # independent triple: determinant 1
    eta = eta_from(gens, r1, r2, r3)
    tau = tau_from(gens, np.zeros(3), r1, r2, r3)
    assert operator_norm(cross(eta, eta) - 1j * gens.hbar * tau) <= 1e-12
    assert operator_norm(cross(eta, eta)) > 0.1


@settings(max_examples=60, deadline=None)
@given(u=vec3, v=vec3)
def test_cross_antisymmetry_commuting(u, v):
    uu = numeric_lift(u, 3)
    vv = numeric_lift(v, 3)
    assert operator_norm(cross(uu, vv) + cross(vv, uu)) <= 1e-12
