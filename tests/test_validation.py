"""One input rule for every route: bad bodies, multidegrees and sample counts
end as InputError, never as a silent number or a numpy error."""

import numpy as np
import pytest

from mixvol.cones import general_position, random_admissible
from mixvol.errors import InputError
from mixvol.exterior import Subspace
from mixvol.flag_calculus import (flag_mixed_functional, flag_mixed_volume,
                                  phi_kernel, psi_kernel,
                                  verify_multiplier_identity)
from mixvol.generators import cube, diamond
from mixvol.kernels import KernelSpec
from mixvol.mixed_volume import (angle_mixed_volume, epsilon_mixed_volume,
                                 mixed_exterior_angle, oracle_mixed_volumes,
                                 schneider_mixed_volume)
from mixvol.translative import (curvature_mixed_functional,
                                decompose_homogeneous, duality_check,
                                translative_integral_mc)
from mixvol.util import check_count

Q2, D2, Q3, D3 = cube(2), diamond(2), cube(3), diamond(3)


def _faces(bodies):
    # any face will do: the body and degree rule is checked before the faces
    return [p.faces(0)[0] for p in bodies]


# name: (call(bodies, degrees, samples), takes bodies, takes samples)
N_ROUTES = {
    "schneider": (lambda b, n, s: schneider_mixed_volume(b, n, rng=0), True, False),
    "angle": (lambda b, n, s: angle_mixed_volume(b, n, rng=0, samples=s), True, True),
    "epsilon": (lambda b, n, s: epsilon_mixed_volume(b, n, 0.2, rng=0, samples=s),
                True, True),
    "exterior-quadrature": (lambda b, n, s: mixed_exterior_angle(
        _faces(b), b, n, rng=0, samples=s), True, True),
    "exterior-admissible": (lambda b, n, s: mixed_exterior_angle(
        _faces(b), b, n, rng=0, route="admissible-mc", samples=s), True, True),
    "flag-volume": (lambda b, n, s: flag_mixed_volume(b, n, rng=0, samples=s),
                    True, True),
    "random-admissible": (lambda b, n, s: random_admissible(b, n, 0), True, False),
    "general-position": (lambda b, n, s: general_position(b, n, "mixed-volume"),
                         True, False),
    "kernel-spec": (lambda b, n, s: KernelSpec(b[0].dim, n, "n"), False, False),
    "subspace-identity": (lambda b, n, s: verify_multiplier_identity(
        b[0].dim, n, "subspace", rng=0, trials=1, samples=s), False, True),
}

R_ROUTES = {
    "curvature": (lambda b, r, s: curvature_mixed_functional(b, r), True, False),
    "flag-functional": (lambda b, r, s: flag_mixed_functional(b, r, rng=0, samples=s),
                        True, True),
    "general-position": (lambda b, r, s: general_position(b, r, "translative"),
                         True, False),
    "kernel-spec": (lambda b, r, s: KernelSpec(b[0].dim, r, "r"), False, False),
    "interleaved-identity": (lambda b, r, s: verify_multiplier_identity(
        b[0].dim, r, "interleaved", rng=0, trials=1, samples=s), False, True),
}

# (case, bodies, degrees, samples, needs bodies, needs samples)
N_CASES = [
    ("too few bodies", [Q2], (2,), 10, False, False),
    ("dimension mismatch", [Q2, Q3], (1, 1), 10, True, False),
    ("wrong degree count", [Q2, D2], (1, 1, 0), 10, True, False),
    ("n_i = d", [Q3, D3], (3, 0), 10, False, False),
    ("negative degree", [Q2, D2], (-1, 3), 10, False, False),
    ("wrong sum", [Q2, D2], (1, 0), 10, False, False),
    ("fractional degrees", [Q2, D2], (1.5, 0.5), 10, False, False),
    ("boolean degrees", [Q2, D2], (True, 1), 10, False, False),
    ("samples = 0", [Q2, D2], (1, 1), 0, False, True),
    ("samples < 0", [Q2, D2], (1, 1), -5, False, True),
]

R_CASES = [
    ("too few bodies", [Q3], (2,), 10, False, False),
    ("dimension mismatch", [Q3, Q2], (2, 2), 10, True, False),
    ("wrong degree count", [Q3, D3], (2, 2, 2), 10, True, False),
    ("r_i = d", [Q3, D3], (3, 2), 10, False, False),
    ("r_i = 0", [Q3, D3], (0, 2), 10, False, False),
    ("sum below (k-1)d", [Q3, D3], (1, 1), 10, False, False),
    ("boolean degrees", [Q3, D3], (True, 2), 10, False, False),
    ("samples = 0", [Q3, D3], (2, 2), 0, False, True),
    ("samples < 0", [Q3, D3], (2, 2), -5, False, True),
]


def _table(routes, cases):
    out = []
    for name, (call, takes_bodies, takes_samples) in routes.items():
        for case, bodies, degrees, samples, needs_bodies, needs_samples in cases:
            if (needs_bodies and not takes_bodies) or \
                    (needs_samples and not takes_samples):
                continue
            out.append(pytest.param(call, bodies, degrees, samples,
                                    id=f"{name}-{case}"))
    return out


def _assert_rule(call, bodies, degrees, samples):
    with pytest.raises(InputError) as exc:
        call(bodies, degrees, samples)
    # the rule itself must fire, not a later face or kernel check
    assert "face" not in str(exc.value)


@pytest.mark.parametrize("call,bodies,degrees,samples",
                         _table(N_ROUTES, N_CASES))
def test_mixed_volume_routes_reject(call, bodies, degrees, samples):
    _assert_rule(call, bodies, degrees, samples)


@pytest.mark.parametrize("call,bodies,degrees,samples",
                         _table(R_ROUTES, R_CASES))
def test_translative_routes_reject(call, bodies, degrees, samples):
    _assert_rule(call, bodies, degrees, samples)


@pytest.mark.parametrize("call", [
    lambda b, j, s: translative_integral_mc(b, j, rng=0, samples=s),
    lambda b, j, s: decompose_homogeneous(b, j, rng=0, samples=s),
], ids=["translative-mc", "decompose"])
@pytest.mark.parametrize("bodies,j,samples", [
    ([Q2], 0, 10), ([Q2, Q3], 0, 10), ([Q2, D2], 2, 10), ([Q2, D2], -1, 10),
    ([Q2, D2], 0, 0), ([Q2, D2], 1, -5), ([Q3, D3], 0.5, 10),
    ([Q3, D3], True, 10),
], ids=["too few bodies", "dimension mismatch", "j = d", "j < 0",
        "samples = 0", "samples < 0", "fractional j", "boolean j"])
def test_translation_integral_routes_reject(call, bodies, j, samples):
    with pytest.raises(InputError):
        call(bodies, j, samples)


@pytest.mark.parametrize("bodies", [[Q2], [], [Q2, Q3]],
                         ids=["one body", "no body", "dimension mismatch"])
def test_oracle_rejects_bodies(bodies):
    with pytest.raises(InputError):
        oracle_mixed_volumes(bodies)


@pytest.mark.parametrize("K,L,n", [(Q2, Q3, 1), (Q3, D3, 0), (Q3, D3, 3)],
                         ids=["dimension mismatch", "n = 0", "n = d"])
def test_duality_check_rejects(K, L, n):
    with pytest.raises(InputError):
        duality_check(K, L, n)


def test_multiplier_kernels_reject_slot_dimensions():
    e = np.eye(3)
    us = [e[0], e[1]]
    # a 2-dimensional frame in e1^perp gives r = 0; an empty one r = 2
    frames = [Subspace(e[:, 1:]), Subspace(np.zeros((3, 0)))]
    with pytest.raises(InputError):
        psi_kernel(us, frames)
    # Phi slots of dimensions 2 and 0 sum to 2, not d = 3
    with pytest.raises(InputError):
        phi_kernel(us, frames)


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 0.0, np.nan])
def test_multiplier_kernels_reject_non_unit_directions(scale):
    e = np.eye(3)
    us = [scale * e[0], e[1]]
    plane, line = Subspace(e[:, 1:]), Subspace(e[:, [0]])
    empty = Subspace(np.zeros((3, 0)))
    for call, frames in ((phi_kernel, [plane, line]),
                         (psi_kernel, [empty, empty])):
        with pytest.raises(InputError):
            call(us, frames)


@pytest.mark.parametrize("bad", [0, -5, 2.5, True, None, "10"])
def test_check_count_rejects(bad):
    with pytest.raises(InputError):
        check_count(bad)
    assert check_count(np.int64(3)) == 3
