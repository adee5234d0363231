import numpy as np
import pytest

from transmission.assembly import (
    BetaCoefficient,
    DiffusionTensor,
    KernelSpec,
    build_operator,
)
from transmission.diagnostics import compute_energy_report
from transmission.dynamics import integrate
from transmission.geometry import (
    KochPrefractal,
    Segment,
    build_interface_measure,
    build_square_mesh,
)


def default_operator(n, dirichlet_side="left", beta_value=1.0, delta=1,
                     y0=0.5, s=0.5):
    mesh = build_square_mesh(n, Segment(y0), dirichlet_side=dirichlet_side)
    measure = build_interface_measure(mesh)
    D = DiffusionTensor(1.0, 0.0, 1.0, 1.0)
    beta = BetaCoefficient(beta_value, beta_value)
    kernel = KernelSpec(s=s)
    return build_operator(mesh, measure, D, beta, kernel, delta=delta)


def koch_operator():
    """Operator on a level-1 Koch interface at n=27."""
    mesh = build_square_mesh(27, KochPrefractal(level=1, y0=0.4))
    measure = build_interface_measure(mesh)
    return build_operator(
        mesh, measure,
        DiffusionTensor(1.0, 0.0, 1.0, 1.0),
        BetaCoefficient(1.0, 1.0),
        KernelSpec(s=0.5),
    )


def anisotropic_operator(n, interface=Segment(0.5), d12=0.37):
    """Operator of the constant tensor (d11, d12, d22) = (2.3, d12, 2.1): with
    d12 != 0 it is no grid pencil, and the integrator factors it by SuperLU."""
    mesh = build_square_mesh(n, interface)
    measure = build_interface_measure(mesh)
    return build_operator(mesh, measure,
                          DiffusionTensor(2.3, d12, 2.1, 1.0),
                          BetaCoefficient(1.0, 1.0),
                          KernelSpec(s=0.5))


def run_recorded(op, U0, f, h, T, ctrl):
    """(trajectory, every accepted state, energy report) of one integrate
    run: integrate keeps only the last state, so a list observer collects
    them all, the initial one first, and the report is built from them."""
    records = []
    traj = integrate(op, U0, f, h, T, ctrl,
                     observers=(lambda t, dt, U: records.append((t, dt, U)),))
    return (traj, [U for _, _, U in records],
            compute_energy_report(records, op, f, h))


@pytest.fixture(scope="session")
def op16():
    return default_operator(16)


@pytest.fixture(scope="session")
def op32():
    return default_operator(32)


@pytest.fixture(scope="session")
def op64():
    """4,160 free DOFs: above the size from which quadratic_form sums the
    form by stencil diagonals."""
    return default_operator(64)


@pytest.fixture(scope="session")
def op16_neumann():
    return default_operator(16, dirichlet_side="none")


@pytest.fixture(scope="session")
def spec16(op16):
    from transmission.operators import spectrum

    return spectrum(op16)


@pytest.fixture()
def rng():
    # fresh deterministic stream per test: results do not depend on which
    # other tests ran before
    return np.random.default_rng(12345)
