"""The bit comparison of the test reference module, and the pinned output digests.

``DIGESTS`` were recorded with ``python tests/reference.py``.  A change
that keeps every output's bits keeps them all; a change that moves
numbers on purpose records the new digests and names the outputs that
moved.  They hold for the 80-bit x86-64 ``longdouble`` only.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import reference
from bykov import BykovError, corollary_ratios, generate_hitting_sequence
from reference import LD, P, SEED, _encode, same_bits

DIGESTS = {
    "adjusted_sequence": "e0346f47344e0e0c357b20a1eaf417560fb13d1d09ffd661785f199c87a969bd",
    "birkhoff_average.piecewise": "6562eafc969d9a0a7571ff69cca53e2a1bbbe0f5a5287fe4802234b93da1873d",
    "birkhoff_average.smooth": "7af0caaad7e8eaa57ba52586afe236cfc66144b941e2cc4cf63d0f82dd504f06",
    "corollary_ratios": "fa27fd5ab4bc8000fc7424c4e29f80507e17acfe026f4a83140a1e8723f2c374",
    "estimate_invariants": "b39cd3022da1db1d7686b3175f6d21a32a2b25cd5061b163b865348e5ce56f97",
    "generate_hitting_sequence": "4763e25e473e62998abf86f410904a8eb828b2cd596ee40670ed8e62002f6e23",
    "historic_certificate.piecewise": "eec16e533a369efc8b408ff65dd454970133a7c9a25b5a9cc763d7e32cc606c3",
    "historic_certificate.smooth": "2eb02a26143b439f89a256266a8ed2a2103b0fac68bc328940e0fc44e23b0916",
    "lemma_diagnostics": "f374a7f4487abf019bafee36e637338372f522a75677a623617600870cdcb453",
    "perturbation_decay_slope": "8ca3f37e1bf6e8896a6b7471d30324f226506bef6bd0b7ec7a2cdd54ce8e086d",
    "poincare": "65b5822c16264e516070bb5dd3b32cb58212e30134f818b4055c6d703a427ab9",
    "shift_invariance_check": "1bdbc83d85cf7be4972e814bd06bb7e444ea7b79a82c6952e11a52fee2fffc0a",
    "sojourn_fractions": "09c47638dccd9832aaee4a14ad1749fa3a11ffcd614bc41795e002c18205fef5",
    "verify_conjugacy": "51b93ff23bf8aeb32bd69dccb94f54d8d3d802438878a372d34d0a4e9c09a276",
    # 64-loop orbits, four times as long
    "adjusted_sequence.n64": "735ceeb2b2e6cc6bb0d34116dc021a48e3f084741c899ecdf073113596248afc",
    "birkhoff_average.smooth.n64": "85d67ca12fd738fbbe450e5cadf6bcb2c45c4ca45538eab84869219c883f4731",
    "generate_hitting_sequence.n64": "d95494fb4d5912cf5a48e27e4754189b73e8de3515c14d7cd202b20bce76b6f9",
    "historic_certificate.smooth.n64": "d99ca9e12dd54b42808f86445dbfd1046dc8689976b445029b0ff3849c5f4a7e",
    "poincare.n64": "878c5b28e0ac575ef39dc915b52e9eea78edb185313df3828f6dcb8de33b65d3",
    "shift_invariance_check.n64": "e46f91c32c3b78000877a2138a82481a6537cbe6097c7583cb0c7e6667a90c4a",
    # inputs that the random draws never reach (reference.EDGE_CASES)
    "edge.birkhoff_average.smooth": "5f20918a45b526fc282370006a8b293265c8224a93daad50f789d4e5e84f28b5",
    "edge.estimate_invariants.near_one": "b1a64ac447109a1121a38182c1c4afbb7b1b256c2ac27f3c434dcbb31f9dc827",
    "edge.generate_hitting_sequence.axis": "73cf782e640a48aed0df4a8e0e0cbcd55ac8562f038c2406340cb0c2f0b6a8cf",
    "edge.generate_hitting_sequence.delta81": "b660711e1ae1892d5e5bc39180843a18c0634e554961686ba780f01d00dce175",
    "edge.generate_hitting_sequence.tiny_a": "5874a3da31803d011c88d94987db04eed4f7a941a7d39b1a74a4b84760873384",
    "edge.poincare.axis": "73cf782e640a48aed0df4a8e0e0cbcd55ac8562f038c2406340cb0c2f0b6a8cf",
    "edge.poincare.delta81": "b660711e1ae1892d5e5bc39180843a18c0634e554961686ba780f01d00dce175",
    "edge.poincare.tiny_a": "5874a3da31803d011c88d94987db04eed4f7a941a7d39b1a74a4b84760873384",
}


def test_every_public_output_keeps_its_digest():
    got = reference.digest()
    moved = sorted(name for name in DIGESTS.keys() | got.keys() if got.get(name) != DIGESTS.get(name))
    assert not moved, f"outputs whose bits moved: {moved}"


@pytest.mark.parametrize("name, f, args", reference.EDGE_CASES, ids=[c[0] for c in reference.EDGE_CASES])
def test_an_edge_case_returns_or_refuses_without_a_warning(name, f, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            f(*args)
        except BykovError:
            pass


def test_padding_bytes_are_not_compared():
    a = np.array([1.0, -2.5, np.inf, np.nan], dtype=LD)
    b = a.copy()
    a.view(np.uint8).reshape(4, -1)[:, 10:] = 0x00
    b.view(np.uint8).reshape(4, -1)[:, 10:] = 0xAB
    assert a.tobytes() != b.tobytes()
    assert same_bits(a[:3], b[:3]) and same_bits(a, b, equal_nan=True)
    assert _encode(a) == _encode(b)  # so they hash alike


def test_signed_zeros_differ():
    for dtype in (LD, np.float64):
        assert not same_bits(np.zeros(2, dtype), np.array([0.0, -0.0], dtype))
        assert _encode(dtype(0.0)) != _encode(dtype(-0.0))


def test_nan_heads_compare_equal_by_payload():
    ratio2 = corollary_ratios(generate_hitting_sequence(SEED, P, 4), P).ratios[1]
    head = np.array([np.nan], dtype=LD)
    assert same_bits(ratio2[:1], head, equal_nan=True)
    assert not same_bits(ratio2[:1], head)  # a NaN fails unless asked for
    assert not same_bits(ratio2[:1], -head, equal_nan=True)  # the sign is part of the payload
    assert not same_bits(np.float64(1.0), LD(1.0))  # equal values of two dtypes differ


def test_digest_refuses_a_long_double_that_is_not_80_bit(monkeypatch):
    monkeypatch.setattr(reference, "LD", np.float64)
    with pytest.raises(SystemExit, match="80-bit x87 long double only; .* 52 fraction bits"):
        reference.digest()
