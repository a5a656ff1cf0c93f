"""Differential tests: the numpy backend must agree bit-for-bit with python.

The python backend is the golden reference (the original seed
implementation).  For every ported kernel these tests run both backends on
identical randomized (seeded) inputs across every prime/degree combination
the parameter sets in :mod:`repro.fhe.params` produce — CKKS toy/small RNS
chains and special moduli (40-42 bit), the TFHE 32-bit primes, plus stress
primes up to the 61-62-bit word cap — and assert exact equality.

The numpy backend under test is constructed with both crossover thresholds
at 0 so the vectorized code paths are exercised even at tiny ring degrees
(with default thresholds small inputs would silently take the python
fallback and the comparison would be vacuous).
"""

import random

import pytest

from repro.fhe import modmath
from repro.fhe.backend import (
    NumpyBackend,
    PerLimbNumpyBackend,
    PythonBackend,
    available_backends,
    get_backend,
    set_active_backend,
    use_backend,
)
from repro.fhe.ckks.context import CKKSContext
from repro.fhe.ntt import NTTContext, four_step_intt, four_step_ntt
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.polynomial import Polynomial
from repro.fhe.rns import RNSBasis, RNSPolynomial, exact_basis_conversion, fast_basis_conversion
from repro.fhe.tfhe.pbs import TFHEContext

numpy_missing = "numpy" not in available_backends()
pytestmark = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")

PYTHON = PythonBackend()
#: Thresholds at 0: force the vectorized path at every size.
NUMPY = None if numpy_missing else NumpyBackend(min_vector_length=0, min_ntt_length=0)


def _parameter_set_moduli():
    """Every (modulus, ring_degree) pair the functional parameter sets use."""
    combos = []
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256)):
        for q in params.moduli:
            combos.append((q, params.ring_degree))
        for p in params.special_moduli:
            combos.append((p, params.ring_degree))
    for params in (TFHEParameters.toy(), TFHEParameters.small()):
        combos.append((params.modulus, params.polynomial_size))
    # Stress the word-size boundary of the vectorized backend: the largest
    # primes the paper's parameter space can produce are <= 61 bits.
    combos.append((modmath.find_ntt_prime(58, 64), 64))
    combos.append((modmath.find_ntt_prime(61, 128), 128))
    combos.append((modmath.find_ntt_prime(62, 64), 64))
    # De-duplicate while keeping order for stable test IDs.
    seen = set()
    unique = []
    for combo in combos:
        if combo not in seen:
            seen.add(combo)
            unique.append(combo)
    return unique


MODULUS_COMBOS = _parameter_set_moduli()


def _vectors(q, n, seed, count=2):
    rng = random.Random((seed * 0x9E3779B1 + q + n) & 0xFFFFFFFF)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


def _same_width_moduli(q, n, count):
    """``q`` plus NTT primes of its bit width: a basis in ``q``'s word regime."""
    moduli = [q]
    index = 0
    while len(moduli) < count:
        p = modmath.find_ntt_prime(q.bit_length(), n, index=index)
        index += 1
        if p != q:
            moduli.append(p)
    return moduli


@pytest.mark.parametrize("q,n", MODULUS_COMBOS)
class TestElementwiseParity:
    def test_add_sub_neg(self, q, n):
        a, b = _vectors(q, n, 1)
        assert NUMPY.add(a, b, q) == PYTHON.add(a, b, q)
        assert NUMPY.sub(a, b, q) == PYTHON.sub(a, b, q)
        assert NUMPY.neg(a, q) == PYTHON.neg(a, q)

    def test_mul(self, q, n):
        a, b = _vectors(q, n, 2)
        assert NUMPY.mul(a, b, q) == PYTHON.mul(a, b, q)

    def test_scalar_mul(self, q, n):
        (a,) = _vectors(q, n, 3, count=1)
        for scalar in (0, 1, q - 1, q // 3):
            assert NUMPY.scalar_mul(a, scalar, q) == PYTHON.scalar_mul(a, scalar, q)

    def test_sub_scaled(self, q, n):
        a, b = _vectors(q, n, 4)
        for scalar in (1, q - 1, q // 7 + 1):
            assert NUMPY.sub_scaled(a, b, scalar, q) == PYTHON.sub_scaled(a, b, scalar, q)

    def test_weighted_sum(self, q, n):
        rows = _vectors(q, n, 5, count=4)
        rng = random.Random(q ^ n)
        weights = [rng.randrange(q) for _ in rows]
        assert NUMPY.weighted_sum(rows, weights, q) == PYTHON.weighted_sum(rows, weights, q)

    def test_modmath_batched_wrappers(self, q, n):
        """The public batched_mod_* entry points honour backend= and agree."""
        a, b = _vectors(q, n, 20)
        scalar = q // 5 + 1
        rows = _vectors(q, n, 21, count=3)
        weights = [3, q - 2, 7]
        for op, args in (
            (modmath.batched_mod_add, (a, b, q)),
            (modmath.batched_mod_sub, (a, b, q)),
            (modmath.batched_mod_neg, (a, q)),
            (modmath.batched_mod_mul, (a, b, q)),
            (modmath.batched_mod_scalar_mul, (a, scalar, q)),
            (modmath.batched_mod_sub_scaled, (a, b, scalar, q)),
            (modmath.batched_mod_weighted_sum, (rows, weights, q)),
        ):
            assert op(*args, backend=NUMPY) == op(*args, backend=PYTHON)
        # backend=None uses the active backend.
        with use_backend(PYTHON):
            assert modmath.batched_mod_add(a, b, q) == PYTHON.add(a, b, q)


@pytest.mark.parametrize("q,n", MODULUS_COMBOS)
class TestNTTParity:
    def test_forward_inverse(self, q, n):
        context = NTTContext(n, q)
        (a,) = _vectors(q, n, 6, count=1)
        fwd_py = PYTHON.ntt_forward(context, a)
        fwd_np = NUMPY.ntt_forward(context, a)
        assert fwd_np == fwd_py
        assert NUMPY.ntt_inverse(context, fwd_np) == PYTHON.ntt_inverse(context, fwd_py) == a

    def test_negacyclic_convolution(self, q, n):
        context = NTTContext(n, q)
        a, b = _vectors(q, n, 7)
        assert NUMPY.negacyclic_convolution(context, a, b) == \
            PYTHON.negacyclic_convolution(context, a, b)

    def test_ntt_batches(self, q, n):
        context = NTTContext(n, q)
        for rows in ([], _vectors(q, n, 10, count=1), _vectors(q, n, 11, count=4)):
            fwd = PYTHON.ntt_forward_batch(context, rows)
            assert NUMPY.ntt_forward_batch(context, rows) == fwd
            assert NUMPY.ntt_inverse_batch(context, fwd) == \
                PYTHON.ntt_inverse_batch(context, fwd) == rows

    @pytest.mark.parametrize("limbs", [1, 3])
    def test_limb_store_transforms(self, q, n, limbs):
        """batched_ntt/intt and limbs_convolution on one- and multi-limb stores."""
        moduli = _same_width_moduli(q, n, limbs)
        contexts = [NTTContext(n, p) for p in moduli]
        rows_a = [_vectors(p, n, 12)[0] for p in moduli]
        rows_b = [_vectors(p, n, 12)[1] for p in moduli]

        def run(backend):
            a = backend.pack_limbs(rows_a, moduli)
            b = backend.pack_limbs(rows_b, moduli)
            fwd = backend.batched_ntt(contexts, a)
            outs = (fwd, backend.batched_intt(contexts, fwd),
                    backend.limbs_convolution(contexts, a, b))
            return [backend.unpack_limbs(out) for out in outs]

        expected = run(PYTHON)
        assert run(NUMPY) == expected
        assert expected[1] == rows_a

    def test_cyclic_ntt_batch(self, q, n):
        context = NTTContext(n, q)
        rows = _vectors(q, n, 8, count=3)
        assert NUMPY.cyclic_ntt_batch(rows, context.omega, q) == \
            PYTHON.cyclic_ntt_batch(rows, context.omega, q)

    def test_four_step(self, q, n):
        context = NTTContext(n, q)
        (a,) = _vectors(q, n, 9, count=1)
        rows = 1 << (n.bit_length() // 2)
        with use_backend(PYTHON):
            expected = four_step_ntt(context, a, rows)
            assert four_step_intt(context, expected, rows) == a
        with use_backend(NUMPY):
            assert four_step_ntt(context, a, rows) == expected
            assert four_step_intt(context, expected, rows) == a


class TestNTTCore:
    """The numpy NTT core's one table cache and its python fallbacks."""

    @pytest.mark.parametrize("bits", [30, 40])   # single-word and lazy regimes
    def test_basis_tables_stack_cached_limb_tables(self, bits):
        n = 64
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        contexts = tuple(NTTContext(n, p) for p in modmath.find_ntt_primes(bits, n, 2))
        moduli = tuple(ctx.modulus for ctx in contexts)
        stacked = backend._ntt_tables(contexts)
        assert stacked.use32 == (bits <= 32)
        assert stacked.mont is backend._mont_vec(moduli)
        for i, ctx in enumerate(contexts):
            assert (n, (ctx.modulus,)) in backend._ntt_cache
            single = backend._ntt_tables((ctx,))
            names = type(stacked)._LIMB_ARRAYS
            if stacked.use32:
                names += type(stacked)._U32_ARRAYS
            for name in names:
                assert (getattr(stacked, name)[i] == getattr(single, name)[0]).all(), name

    @pytest.mark.parametrize("q", [q for q, n in MODULUS_COMBOS if n == 64])
    def test_below_crossover_is_the_python_reference(self, q):
        backend = NumpyBackend()                    # default crossovers
        n = 64
        assert n < backend.min_ntt_length
        context = NTTContext(n, q)
        a, b = _vectors(q, n, 30)
        assert backend._ntt_tables((context,)) is None
        assert backend.ntt_forward(context, a) == PYTHON.ntt_forward(context, a)
        assert backend.ntt_inverse(context, a) == PYTHON.ntt_inverse(context, a)
        assert backend.negacyclic_convolution(context, a, b) == \
            PYTHON.negacyclic_convolution(context, a, b)
        assert backend.ntt_forward_batch(context, [a, b]) == \
            PYTHON.ntt_forward_batch(context, [a, b])
        assert backend.ntt_inverse_batch(context, [a, b]) == \
            PYTHON.ntt_inverse_batch(context, [a, b])

    def test_per_limb_row_batches(self):
        """The per-limb backend loops its row batches over the numpy scalar
        transforms, which must not loop back into the batches."""
        backend = PerLimbNumpyBackend(min_vector_length=0, min_ntt_length=0)
        q, n = MODULUS_COMBOS[0]
        context = NTTContext(n, q)
        rows = _vectors(q, n, 31, count=3)
        fwd = PYTHON.ntt_forward_batch(context, rows)
        assert backend.ntt_forward_batch(context, rows) == fwd
        assert backend.ntt_inverse_batch(context, fwd) == rows


class TestUnreducedInputParity:
    """Backends must agree even on not-yet-reduced / negative inputs."""

    def test_out_of_range_values(self):
        q = modmath.find_ntt_prime(40, 64)
        rng = random.Random(11)
        a = [rng.randrange(-5 * q, 5 * q) for _ in range(64)]
        b = [rng.randrange(2**70) for _ in range(64)]
        assert NUMPY.add(a, b, q) == PYTHON.add(a, b, q)
        assert NUMPY.mul(a, b, q) == PYTHON.mul(a, b, q)
        context = NTTContext(64, q)
        assert NUMPY.ntt_forward(context, a) == PYTHON.ntt_forward(context, a)

    def test_big_modulus_falls_back_exactly(self):
        # A CRT-product modulus far beyond 62 bits must still work on the
        # numpy backend (via its exact python fallback).
        q = (1 << 100) + 7
        rng = random.Random(12)
        a = [rng.randrange(q) for _ in range(32)]
        b = [rng.randrange(q) for _ in range(32)]
        assert NUMPY.add(a, b, q) == PYTHON.add(a, b, q)
        assert NUMPY.mul(a, b, q) == PYTHON.mul(a, b, q)


class TestRNSParity:
    def _rns_poly(self, params, seed):
        basis = params.basis()
        rng = random.Random(seed)
        coeffs = [rng.randrange(basis.product) for _ in range(params.ring_degree)]
        return RNSPolynomial.from_integer_coefficients(params.ring_degree, basis, coeffs)

    def test_rescale_parity(self):
        params = CKKSParameters.toy(ring_degree=128)
        poly = self._rns_poly(params, 13)
        with use_backend(PYTHON):
            expected = poly.rescale()
        with use_backend(NUMPY):
            actual = poly.rescale()
        assert actual == expected

    def test_fast_basis_conversion_parity(self):
        params = CKKSParameters.toy(ring_degree=128)
        poly = self._rns_poly(params, 14)
        target = RNSBasis(list(params.special_moduli))
        with use_backend(PYTHON):
            expected = fast_basis_conversion(poly, target)
        with use_backend(NUMPY):
            actual = fast_basis_conversion(poly, target)
        assert actual == expected
        # And the approximate conversion stays within the documented slack of
        # the exact one regardless of backend (sanity, not parity).
        exact = exact_basis_conversion(poly, target)
        assert actual.ring_degree == exact.ring_degree

    def test_polynomial_ops_parity(self):
        q = modmath.find_ntt_prime(40, 256)
        rng = random.Random(15)
        a = Polynomial(256, q, [rng.randrange(q) for _ in range(256)])
        b = Polynomial(256, q, [rng.randrange(q) for _ in range(256)])
        with use_backend(PYTHON):
            expected = (a + b, a - b, -a, a * b, a.scalar_multiply(12345))
        with use_backend(NUMPY):
            actual = (a + b, a - b, -a, a * b, a.scalar_multiply(12345))
        assert actual == expected


class TestEndToEndParity:
    """Whole-scheme flows must produce identical ciphertexts on both backends."""

    def test_ckks_multiply_rescale_parity(self):
        params = CKKSParameters.toy(ring_degree=64, max_level=2)
        results = {}
        for name in ("python", "numpy"):
            ctx = CKKSContext(params, seed=99, error_stddev=0.0, backend=name)
            pt = ctx.encoder.encode([1.5 - 0.5j, 2.0, 0.25j])
            ct = ctx.encrypt(pt)
            product = ctx.evaluator.rescale(ctx.evaluator.multiply(ct, ct))
            results[name] = (
                product.c0.to_integer_coefficients(),
                product.c1.to_integer_coefficients(),
            )
        assert results["python"] == results["numpy"]

    def test_tfhe_pbs_parity(self):
        params = TFHEParameters.toy()
        outputs = {}
        for name in ("python", "numpy"):
            ctx = TFHEContext(params, seed=5, backend=name)
            ct = ctx.encrypt(1)
            refreshed = ctx.programmable_bootstrap(ct)
            outputs[name] = (refreshed.a, refreshed.b, ctx.decrypt(refreshed))
        assert outputs["python"] == outputs["numpy"]
        assert outputs["python"][2] == 1


class TestBackendSelection:
    def test_registry_round_trip(self):
        assert get_backend("python").name == "python"
        assert get_backend("numpy").name in ("numpy", "python")  # graceful fallback
        with pytest.raises(ValueError):
            get_backend("fortran")

    @pytest.fixture()
    def restore_active_backend(self):
        """Snapshot the process-wide backend so selection tests cannot leak
        their choice into the rest of the pytest process (which would defeat
        the REPRO_BACKEND CI matrix legs)."""
        from repro.fhe.backend import active_backend
        previous = active_backend()
        yield
        set_active_backend(previous)

    def test_use_backend_restores_previous(self, restore_active_backend):
        previous = set_active_backend("python")
        assert previous.name == "python"
        with use_backend("numpy") as active:
            assert active.name == "numpy"
        from repro.fhe.backend import active_backend
        assert active_backend().name == "python"

    def test_env_variable_selects_backend(self, monkeypatch, restore_active_backend):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        set_active_backend(None)
        from repro.fhe.backend import active_backend
        assert active_backend().name == "python"
