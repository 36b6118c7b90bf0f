"""Derived objects have one home: the object they come from.

A bimodule keeps its two one-sided views and its tensor tower, and an
algebra keeps its degree-zero subalgebra and its component bimodules, so
every caller reads the same object and what is cached on it.
"""

import pytest

from injgen import constructions
from injgen.algebra import component_bimodule, degree_zero_subalgebra
from injgen.bundled import load_corpus
from injgen.constructions import tensor_ring, tower_of
from injgen.homology import (_resolver, left_perfect_check, nilpotency_index,
                             power_block_law_check)
from injgen.reduction import derive, emit_certificate, validate_cert
from injgen.registry import Registry


@pytest.fixture()
def corpus(tmp_path):
    reg = Registry(tmp_path / "store")
    labels = load_corpus(reg)
    return reg, labels


def test_views_towers_and_degree_zero_parts_are_kept(corpus):
    reg, labels = corpus
    A = reg.load(labels["a3-graded"])
    A0 = degree_zero_subalgebra(A)
    assert degree_zero_subalgebra(A) is A0
    W = component_bimodule(A, (1,))
    assert component_bimodule(A, (1,)) is W
    assert component_bimodule(A, (1 + A.group.order,)) is W
    assert component_bimodule(A, (2,)) is not W
    assert W.left_algebra is A0 and W.right_algebra is A0
    assert W.as_left_module() is W.as_left_module()
    assert W.as_right_module() is W.as_right_module()
    assert _resolver(W.as_left_module()) is _resolver(W.as_left_module())
    assert tower_of(W) is tower_of(W)
    N = reg.load(labels["kxk-arrow"])
    assert tower_of(N) is tower_of(N) and tower_of(N) is not tower_of(W)
    assert tensor_ring(N.left_algebra, N, 2).tower is tower_of(N)


def test_tower_users_share_the_bimodule_tower(corpus, monkeypatch):
    reg, labels = corpus
    W = reg.load(labels["a3-pos"])
    made = []
    real = constructions.TensorTower.__init__

    def counted(self, R, M):
        made.append((R, M))
        real(self, R, M)

    monkeypatch.setattr(constructions.TensorTower, "__init__", counted)
    nilpotency_index(W)
    left_perfect_check(W.left_algebra, W)
    tensor_ring(W.left_algebra, W, nilpotency_index(W).value)
    assert len(made) == 1
    power_block_law_check(W.left_algebra, W)
    assert [M for _, M in made if M is W] == [W]


def test_derivations_build_each_tensor_power_once(corpus, monkeypatch):
    """Deriving and validating a tensor-ring claim and a theta-extension
    claim evaluates the same bimodule hypotheses on several edges; each
    power P (x) W of a bimodule W is built once all the same."""
    reg, labels = corpus
    calls = []
    real = constructions.tensor_bimodules

    def spy(P, Q):
        calls.append((P, Q))    # holding them keeps their ids apart
        return real(P, Q)

    monkeypatch.setattr(constructions, "tensor_bimodules", spy)
    for label in ("a2-tensor", "theta-a3"):
        cert = emit_certificate(derive(reg, labels[label]))
        assert validate_cert(cert, reg)[0]
    assert calls
    for n, (P, Q) in enumerate(calls):
        assert not any(P is P2 and Q is Q2 for P2, Q2 in calls[:n])
